from dataclasses import replace

import pytest

from lassosat.encoder import CheckProblem, encode
from lassosat.errors import EncodingError
from lassosat.formula import Atom, Next, Not, Release, Since, Until, Yesterday

P, Q = Atom("P"), Atom("Q")
ROOT = Until(Not(P), Next(Yesterday(Q)))


def _varmap(k, engine="mono", root=ROOT, **kw):
    return encode(CheckProblem(k=k, engine=engine, root=root, **kw)).varmap


def _owns_id(f):
    """Whether ROOT's entries of f own ids on a lasso: negations, `next`
    and yesterday alias everywhere."""
    return not isinstance(f, (Not, Next, Yesterday))


def _owned(vm):
    """The ids of ROOT's table in allocation order: primary rows, which run
    over the instants 0..k+T, then copy rows, which start at instant T+1."""
    primary = [lit for f in vm.closure if _owns_id(f) for lit in vm.rrows[f][0]]
    copies = [
        lit for f in vm.closure if _owns_id(f) for row in vm.rrows[f][1:]
        for lit in row[vm.lookback + 1:]
    ]
    return primary, copies


def test_call_is_deterministic_and_injective():
    vm = _varmap(3)
    assert _varmap(3).rrows == vm.rrows
    primary, copies = _owned(vm)
    assert len(set(primary + copies)) == len(primary + copies)
    # every entry has a literal; a loop pass holds a placeholder at instant 0
    assert all(lit for f in vm.closure for c, row in enumerate(vm.rrows[f])
               for lit in row[1 if c else 0:])
    assert all(row[0] == 0 for f in vm.closure for row in vm.rrows[f][1:])


def test_var_blocks_follow_closure_order():
    # with no aliases the closure order inverts an id: block index, then instant
    root = Until(P, Release(Q, P))
    vm = _varmap(3, root=root)
    assert vm.closure == (P, Q, Release(Q, P), root)
    for f in vm.closure:
        for t in range(4):
            idx, instant = divmod(vm.lit(f, t) - 1, 4)
            assert (vm.closure[idx], instant) == (f, t)


def test_aliased_entries_own_no_id():
    # ids go to the other entries, consecutively in allocation order: the
    # primary rows, the copy rows, then the selectors
    vm = _varmap(3)
    primary, copies = _owned(vm)
    assert primary == list(range(1, len(primary) + 1))
    assert copies == list(range(len(primary) + 1, len(primary) + len(copies) + 1))
    assert min(vm.loop_selectors.values()) == len(primary) + len(copies) + 1
    # an alias holds the literal it stands for
    for t in range(4):
        assert vm.lit(Not(P), t) == -vm.lit(P, t)
    for t in range(1, 4):
        assert vm.lit(Yesterday(Q), t) == vm.lit(Q, t - 1)
    for t in range(3):
        assert vm.lit(Next(Yesterday(Q)), t) == vm.lit(Yesterday(Q), t + 1)
    # ROOT reads Q one instant back, so the word is unrolled to k+T = 4;
    # `next` at that last instant is the successor literal of the bound, an
    # id taken after the selectors and E_k, as the clauses are written
    assert vm.lookback == 1 and len(vm.rrows[P][0]) == 5
    assert vm.rrows[Next(Yesterday(Q))][0][4] > max(vm.loop_selectors.values()) + 1


def test_instant_out_of_range():
    vm = _varmap(3)
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, 4)
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, -1)


def test_unknown_formula_and_unknown_id():
    vm = _varmap(3)
    with pytest.raises(EncodingError, match="not in the closure"):
        vm.lit(Atom("ZZZ"), 0)
    assert max(sum(_owned(vm), [])) <= vm.max_var


def test_partitions_disjoint_and_cover():
    vm = _varmap(4, transitions=(Since(P, Q),))
    parts = vm.partitions
    assert set(parts) == {"bool", "future", "past"}
    assert vm.atoms + parts["bool"] + parts["future"] + parts["past"] == vm.closure
    assert len(set(vm.closure)) == len(vm.closure)
    assert set(vm.atoms) == {P, Q}
    assert ROOT in parts["future"]
    assert Yesterday(Q) in parts["past"] and Since(P, Q) in parts["past"]
    assert Not(P) in parts["bool"]


def test_selectors_allocated_after_blocks():
    # as a transition too, ROOT's copies are read on every pass
    vm = _varmap(3, "bi", transitions=(ROOT,))
    # the rows run T' = 1 instant before instant 0 and T = 1 after k: the
    # loop positions start at T'+T+1 = 3, the pool lies within 0..k of the
    # rows
    assert (vm.lookahead, vm.lookback) == (1, 1)
    assert sorted(vm.loop_selectors) == [3, 4, 5]
    assert sorted(vm.pool_selectors) == [1, 2, 3]
    table = {
        abs(lit) for rows in (vm.rrows, vm.lrows) for f in vm.closure
        for row in rows[f] for lit in row
    }
    first = min(vm.loop_selectors.values())
    # the last member in closure order with copy ids, the root, takes the
    # last copy id: the last instant of its deepest pool pass
    last = vm.lrows[ROOT][1][3]
    assert last == max(i for i in table if i <= vm.max_var) == first - 1
    assert min(vm.pool_selectors.values()) == max(vm.loop_selectors.values()) + 1
    assert vm.max_var == max(vm.pool_selectors.values())


def test_extra_atoms_lead_ordering():
    vm = _varmap(2, atoms=(Atom("Z"), P))
    assert vm.atoms == (Atom("Z"), P, Q)
    assert vm.closure[:3] == vm.atoms
    assert [vm.lit(Atom("Z"), t) for t in range(3)] == [1, 2, 3]


def test_copy_blocks():
    # under a `next`, which reads each loop pass at its wrap, the copies of
    # a yesterday nest over a since reach its pass depth; a nest free of
    # since and trigger unrolls the word T instants further instead
    s = Since(P, Q)
    ys = Yesterday(s)
    yys = Yesterday(ys)
    vm = _varmap(3, root=Next(yys))
    assert len(vm.rrows[ys]) == 3 and len(vm.rrows[yys]) == 4  # copies up to the pass depth
    assert set(vm.copy_base) == {(s, "r", 1)}  # yesterday and next alias on every copy
    vm = _varmap(3, root=Next(Yesterday(Yesterday(Q))))
    assert all(len(rows) == 1 for rows in vm.rrows.values()) and vm.lookback == 2
    s1 = Since(P, Q)
    s2 = Since(P, s1)
    vm = _varmap(3, root=Next(s2))
    assert set(vm.copy_base) == {(s1, "r", 1), (s2, "r", 1), (s2, "r", 2)}
    for (f, family, c), base in vm.copy_base.items():
        assert vm.rrows[f][c][1] == base  # a loop pass starts at instant 1
    assert vm.copy_base[(s1, "r", 1)] < vm.copy_base[(s2, "r", 1)] < vm.copy_base[(s2, "r", 2)]
    assert vm.copy_base[(s2, "r", 2)] < min(vm.loop_selectors.values())
    # the bi engine's backward copies of a future node under a yesterday,
    # which reads each pool pass at instant 0, one id per instant
    until = Until(P, Q)
    vm = _varmap(3, "bi", root=Yesterday(until))
    base = vm.copy_base[(until, "l", 1)]
    assert set(vm.copy_base) == {(until, "l", 1)}
    assert vm.lrows[until][1] == [base, base + 1, base + 2, base + 3]


def test_loop_free_window_grows_by_instant_blocks():
    problem = CheckProblem(k=1, engine="mono", root=ROOT, loop_free=True)
    first = encode(problem)
    vm, n_vars = first.varmap, first.cnf.num_vars
    assert vm.k == 1 and not vm.loop_selectors and not vm.copy_base
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, 2)
    # a fresh window is one block, laid out row-major; negations, `next`
    # and yesterday alias
    owners = [f for f in vm.closure if _owns_id(f)]
    assert owners == [P, Q, ROOT]
    assert [vm.lit(f, t) for f in owners for t in (0, 1)] == list(range(1, 7))
    assert vm.lit(Next(Yesterday(Q)), 0) == vm.lit(Yesterday(Q), 1) == vm.lit(Q, 0)
    assert vm.max_var == 6 and first.activation == 7
    # `next` at the last instant is the successor literal, false under E_1
    edge = vm.lit(Next(Yesterday(Q)), 1)
    assert edge > first.activation and [-first.activation, -edge] in first.cnf.clauses

    # a later instant takes one slot per owner, after all the first block took,
    # and the old successor literal becomes the operand at that instant
    grown = encode(replace(problem, k=2), first)
    assert grown.varmap is vm and vm.k == 2
    block = [vm.lit(f, 2) for f in owners]
    assert block == list(range(n_vars + 1, n_vars + 4))
    assert vm.max_var == block[-1] and grown.activation == vm.max_var + 1
    assert vm.lit(Yesterday(Q), 2) == vm.lit(Q, 1)
    assert vm.lit(Next(Yesterday(Q)), 1) == edge
    q1 = vm.lit(Q, 1)
    assert [-edge, q1] in grown.cnf.clauses and [edge, -q1] in grown.cnf.clauses
