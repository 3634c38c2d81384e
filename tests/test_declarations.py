import pytest

from lassosat.declarations import ArrayDecl, Declarations, ItemDecl, domain_constraints
from lassosat.errors import DomainError, SpecFormatError
from lassosat.formula import And, Atom, Not, Or


def _declared(*decls):
    out = Declarations()
    for decl in decls:
        (out.add_item if isinstance(decl, ItemDecl) else out.add_array)(decl)
    return out


def test_lower_item_atom():
    decls = _declared(ItemDecl("CONT", tuple(range(10))))
    atom = decls.lower_item("CONT", 6)
    assert atom == Atom("CONT", (6,), "item")
    assert atom.display == "CONT = 6"
    assert atom.key == "CONT=6"
    with pytest.raises(SpecFormatError, match="not declared"):
        decls.lower_item("NOPE", 6)


def test_lower_item_out_of_domain():
    decls = _declared(ItemDecl("CONT", tuple(range(10))))
    with pytest.raises(DomainError, match="not in domain"):
        decls.lower_item("CONT", 42)


def test_lower_array_atom():
    decls = _declared(ArrayDecl("ARR", tuple(range(10)), ("ON", "OFF", "UNKNOWN")))
    atom = decls.lower_array("ARR", 6, "OFF")
    assert atom == Atom("ARR", (6, "OFF"), "array")
    assert atom.display == "ARR[6] = OFF"
    with pytest.raises(DomainError, match="index not in"):
        decls.lower_array("ARR", 11, "OFF")
    with pytest.raises(DomainError, match="value not in"):
        decls.lower_array("ARR", 6, "BROKEN")
    with pytest.raises(SpecFormatError, match="not declared"):
        decls.lower_array("NOPE", 6, "OFF")


def test_lowering_is_stable():
    decls = Declarations()
    decls.add_item(ItemDecl("ST", (1, 2, 3)))
    assert decls.lower_item("ST", 2) is not None
    assert decls.lower_item("ST", 2) == decls.lower_item("ST", 2)


def test_exactly_one_constraint_shape():
    decls = Declarations()
    decls.add_item(ItemDecl("V", (1, 2, 3)))
    cons = domain_constraints(decls)
    a1, a2, a3 = (Atom("V", (v,), "item") for v in (1, 2, 3))
    assert cons[0] == Or((a1, a2, a3))
    assert Not(And((a1, a2))) in cons
    assert Not(And((a1, a3))) in cons
    assert Not(And((a2, a3))) in cons
    assert len(cons) == 4


def test_array_constraint_groups_per_cell():
    decls = Declarations()
    decls.add_array(ArrayDecl("A", (1, 2), ("ON", "OFF")))
    cons = domain_constraints(decls)
    # two cells, each: one at-least-one plus one pairwise exclusion
    assert len(cons) == 4


def test_empty_declarations_give_no_constraints():
    assert domain_constraints(Declarations()) == []


def test_duplicate_names_rejected():
    decls = Declarations()
    decls.add_item(ItemDecl("X", (1,)))
    with pytest.raises(SpecFormatError, match="duplicate"):
        decls.add_item(ItemDecl("X", (2,)))
    with pytest.raises(SpecFormatError, match="duplicate"):
        decls.add_array(ArrayDecl("X", (1,), (2,)))
    with pytest.raises(SpecFormatError, match="already"):
        decls.register_atom("X", 0)


def test_empty_domain_rejected():
    with pytest.raises(SpecFormatError, match="empty domain"):
        ItemDecl("X", ())
    with pytest.raises(SpecFormatError, match="duplicate domain"):
        ItemDecl("X", (1, 1))


def test_state_atoms_flatten_the_one_hot_groups():
    decls = Declarations()
    decls.add_item(ItemDecl("X", (1, 2, 3)))
    decls.add_array(ArrayDecl("A", (1, 2), ("ON", "OFF")))
    atoms = decls.state_atoms()
    assert atoms == [atom for group in decls.groups() for atom in group]
    assert atoms[:3] == [decls.lower_item("X", v) for v in (1, 2, 3)]
    assert atoms[3:5] == [decls.lower_array("A", 1, v) for v in ("ON", "OFF")]
    assert len(atoms) == 3 + 2 * 2
