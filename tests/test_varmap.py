import pytest

from lassosat.errors import EncodingError
from lassosat.formula import Atom, Next, Not, Since, Until, Yesterday
from lassosat.varmap import build_varmap

P, Q = Atom("P"), Atom("Q")
ROOT = Until(Not(P), Next(Yesterday(Q)))


def test_call_is_deterministic_and_injective():
    vm = build_varmap([ROOT], 3, "mono")
    seen = {}
    for f in vm.closure:
        for t in range(4):
            v = vm.lit(f, t)
            assert v not in seen
            seen[v] = (f, t)
    assert len(seen) == len(vm.closure) * 4


def test_var_blocks_follow_closure_order():
    # the closure order inverts an id: block index, then instant
    vm = build_varmap([ROOT], 3, "mono")
    for f in (P, ROOT, Next(Yesterday(Q))):
        for t in (0, 2, 3):
            idx, instant = divmod(vm.lit(f, t) - 1, 4)
            assert (vm.closure[idx], instant) == (f, t)


def test_aliased_entries_own_no_id():
    # ids go to the other entries, consecutively in allocation order; an
    # alias's slot stays 0 until the encoder writes its literal there
    def aliased(f, family, copy, t):
        return isinstance(f, Not) or (isinstance(f, Yesterday) and t > 0)

    vm = build_varmap([ROOT], 3, "mono", aliased=aliased)
    ids = [lit for f in vm.closure for lit in vm.rrows[f][0] if lit]
    assert ids == list(range(1, len(ids) + 1))
    assert len(ids) == 4 * len(vm.closure) - 4 - 3
    assert vm.rrows[Not(P)][0] == [0, 0, 0, 0]
    assert vm.rrows[Yesterday(Q)][0][1:] == [0, 0, 0] and vm.lit(Yesterday(Q), 0) > 0
    assert min(vm.loop_selectors.values()) == len(ids) + 1


def test_instant_out_of_range():
    vm = build_varmap([ROOT], 3, "mono")
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, 4)
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, -1)


def test_unknown_formula_and_unknown_id():
    vm = build_varmap([ROOT], 3, "mono")
    with pytest.raises(EncodingError, match="not in the closure"):
        vm.lit(Atom("ZZZ"), 0)
    assert max(vm.lit(f, t) for f in vm.closure for t in range(4)) <= vm.max_var


def test_partitions_disjoint_and_cover():
    vm = build_varmap([ROOT, Since(P, Q)], 4, "mono")
    parts = vm.partitions
    union = set(parts["prop"]) | set(parts["bool"]) | set(parts["future"]) | set(parts["past"])
    assert union == set(vm.closure)
    total = sum(len(p) for p in parts.values())
    assert total == len(vm.closure)
    assert set(parts["prop"]) == {P, Q}
    assert Until(Not(P), Next(Yesterday(Q))) in parts["future"]
    assert Yesterday(Q) in parts["past"]
    assert Not(P) in parts["bool"]


def test_selectors_allocated_after_blocks():
    vm = build_varmap([ROOT], 3, "bi")
    assert sorted(vm.loop_selectors) == [1, 2, 3]
    assert sorted(vm.pool_selectors) == [1, 2, 3]
    assert min(vm.loop_selectors.values()) > len(vm.closure) * 4
    assert vm.max_var == max(vm.pool_selectors.values())


def test_extra_atoms_lead_ordering():
    vm = build_varmap([ROOT], 2, "mono", extra_atoms=(Atom("Z"), P))
    assert vm.atoms[0] == Atom("Z")
    assert vm.atoms[1] == P
    assert len(vm.atoms) == 3  # Z, P, Q


def test_copy_blocks():
    caps = {Yesterday(Q): (2, 0)}
    vm = build_varmap([Yesterday(Q)], 3, "mono", copies=caps)
    base = vm.lit(Yesterday(Q), 0)
    c1 = vm.copy_base[(Yesterday(Q), "r", 1)]
    c2 = vm.copy_base[(Yesterday(Q), "r", 2)]
    assert len({base, c1, c2}) == 3
    assert c2 + 3 < min(vm.loop_selectors.values())  # k+1 instants per copy block
    assert (Yesterday(Q), "r", 3) not in vm.copy_base


def test_loop_free_window_grows_by_instant_blocks():
    vm = build_varmap([ROOT], 3, "mono", loop_free=True)
    assert vm.k == -1 and not vm.loop_selectors and not vm.copy_base
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, 0)
    n = len(vm.closure)
    vm.add_instant(1)
    vm.add_instant(n + 5)  # ids n+1..n+4 are taken by others in between
    assert vm.k == 1 and vm.max_var == 2 * n + 4
    for slot, f in enumerate(vm.closure):
        assert (vm.lit(f, 0), vm.lit(f, 1)) == (1 + slot, n + 5 + slot)
    with pytest.raises(EncodingError, match="outside"):
        vm.lit(P, 2)
