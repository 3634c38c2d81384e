from dataclasses import replace

import pytest

from lassosat.encoder import CheckProblem, encode
from lassosat.errors import EncodingError
from lassosat.formula import Atom, Next, Not, Release, Since, Until, Yesterday

P, Q = Atom("P"), Atom("Q")
ROOT = Until(Not(P), Next(Yesterday(Q)))


def _varmap(k, engine="mono", root=ROOT, **kw):
    return encode(CheckProblem(k=k, engine=engine, root=root, **kw)).varmap


def _owns_id(f, c, t):
    """Whether ROOT's entry (f, loop-pass copy c, instant t) owns an id on a
    lasso: negations and `next` alias everywhere, yesterday everywhere but
    instant 0 of a deeper loop pass."""
    if isinstance(f, Yesterday):
        return c > 0 and t == 0
    return not isinstance(f, (Not, Next))


def _owned(vm):
    """The ids of ROOT's table in allocation order: primary rows, then copy rows."""
    primary = [vm.lit(f, t) for f in vm.closure for t in range(vm.k + 1) if _owns_id(f, 0, t)]
    copies = [
        lit for f in vm.closure for c, row in enumerate(vm.rrows[f][1:], 1)
        for t, lit in enumerate(row) if _owns_id(f, c, t)
    ]
    return primary, copies


def test_call_is_deterministic_and_injective():
    vm = _varmap(3)
    assert _varmap(3).rrows == vm.rrows
    primary, copies = _owned(vm)
    assert len(set(primary + copies)) == len(primary + copies)
    assert all(lit for f in vm.closure for row in vm.rrows[f] for lit in row)


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
    vm = _varmap(3, "bi")
    assert sorted(vm.loop_selectors) == [1, 2, 3]
    assert sorted(vm.pool_selectors) == [1, 2, 3]
    table = {
        abs(lit) for rows in (vm.rrows, vm.lrows) for f in vm.closure
        for row in rows[f] for lit in row
    }
    first = min(vm.loop_selectors.values())
    # the last member in closure order, yesterday, takes the last copy id
    assert vm.rrows[Yesterday(Q)][1][0] == max(i for i in table if i <= vm.max_var) == first - 1
    assert min(vm.pool_selectors.values()) == max(vm.loop_selectors.values()) + 1
    assert vm.max_var == max(vm.pool_selectors.values())


def test_extra_atoms_lead_ordering():
    vm = _varmap(2, atoms=(Atom("Z"), P))
    assert vm.atoms == (Atom("Z"), P, Q)
    assert vm.closure[:3] == vm.atoms
    assert [vm.lit(Atom("Z"), t) for t in range(3)] == [1, 2, 3]


def test_copy_blocks():
    yq = Yesterday(Q)
    yyq = Yesterday(yq)
    vm = _varmap(3, root=yyq)
    assert len(vm.rrows[yq]) == 2 and len(vm.rrows[yyq]) == 3  # copies up to the past depth
    assert set(vm.copy_base) == {(yq, "r", 1), (yyq, "r", 1), (yyq, "r", 2)}
    for (f, family, c), base in vm.copy_base.items():
        assert vm.rrows[f][c][0] == base  # instant 0 of a deeper loop pass owns the id
    assert vm.copy_base[(yq, "r", 1)] < vm.copy_base[(yyq, "r", 1)] < vm.copy_base[(yyq, "r", 2)]
    assert vm.copy_base[(yyq, "r", 2)] < min(vm.loop_selectors.values())
    # the bi engine's backward copies of a future node, one id per instant
    until = Until(P, Q)
    vm = _varmap(3, "bi", root=until)
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
    # in a window only negations and yesterday alias; `next` keeps its id
    owners = [f for f in vm.closure if not isinstance(f, (Not, Yesterday))]
    assert owners == [P, Q, Next(Yesterday(Q)), ROOT]
    assert [vm.lit(f, 0) for f in owners] == [1, 2, 3, 4]
    # instant 1's block comes after E_0 and instant 0's gates
    block = [vm.lit(f, 1) for f in owners]
    assert block[0] > 5 and block == list(range(block[0], block[0] + 4))
    assert vm.max_var == block[-1] and first.activation == vm.max_var + 1

    grown = encode(replace(problem, k=2), first)
    assert grown.varmap is vm and vm.k == 2
    block = [vm.lit(f, 2) for f in owners]
    assert block == list(range(n_vars + 1, n_vars + 5))  # after all instant 1 took
    assert vm.max_var == block[-1] and grown.activation == vm.max_var + 1
    assert vm.lit(Yesterday(Q), 2) == vm.lit(Q, 1)
