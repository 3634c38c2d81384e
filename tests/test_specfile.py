import pytest

from lassosat.desugar import desugar
from lassosat.errors import SpecFormatError
from lassosat.formula import (
    And,
    Atom,
    BoundedSince,
    BoundedUntil,
    Cond,
    Exists,
    Forall,
    ItemRef,
    Lasts,
    Next,
    Not,
    Somf,
    UntilVar,
    Yesterday,
)
from lassosat.pretty import formula_text, to_sexpr
from lassosat.sexpr import read_sexprs, to_text
from lassosat.specfile import parse_formula, parse_spec_text


def _f(text, decls=None):
    return parse_formula(read_sexprs(text)[0], decls)


def test_define_item_with_range():
    doc = parse_spec_text("(define-item cont (range 0 9))")
    assert doc.declarations.items["CONT"].domain == tuple(range(10))


def test_define_array():
    doc = parse_spec_text(
        "(define-array arr (range 0 9) (on off unknown))"
    )
    decl = doc.declarations.arrays["ARR"]
    assert decl.index_domain == tuple(range(10))
    assert decl.value_domain == ("ON", "OFF", "UNKNOWN")


def test_mutex_init_parses():
    doc = parse_spec_text(
        "(define-array state (1 2 3) (n t c))"
        "(define-item turn (1 2 3))"
        "(init (&& (-A- x (1 2 3) (state= x n)) (turn= 1)))"
    )
    init = doc.init
    assert isinstance(init, And)
    quant, turn = init.items
    assert isinstance(quant, Forall) and quant.domain == (1, 2, 3)
    assert turn == ItemRef("TURN", 1)


def test_property_only_spec_is_valid():
    doc = parse_spec_text("(property (-P- p))")
    assert doc.property == Atom("P")
    assert doc.transitions == []


def test_unknown_section_keyword():
    with pytest.raises(SpecFormatError, match="unknown section"):
        parse_spec_text("(frobnicate 1)")


def test_duplicate_init_rejected():
    with pytest.raises(SpecFormatError, match="duplicate init"):
        parse_spec_text("(init (-P- a)) (init (-P- b))")


def test_undeclared_item_reference():
    with pytest.raises(SpecFormatError, match="undeclared item"):
        parse_spec_text("(init (cont= 6))")


def test_options_sections():
    doc = parse_spec_text("(bound 10) (engine bi) (loop-free) (solver minisat)")
    assert doc.bound == 10
    assert doc.engine == "bi"
    assert doc.loop_free is True
    assert doc.solver == "minisat"


def test_empty_range_rejected_as_quantifier_domain():
    with pytest.raises(SpecFormatError, match="empty"):
        parse_spec_text("(property (-A- x (range 5 3) (-P- p x)))")


def test_operator_parsing_spot_checks():
    assert _f("(until (-P- a) (-P- b))") == parse_formula(
        read_sexprs("(UNTIL (-P- A) (-P- B))")[0]
    )
    assert _f("(lasts (-P- a) 3)") == Lasts(Atom("A"), 3, "ee")
    assert _f("(lasts_ii (-P- a) 3)") == Lasts(Atom("A"), 3, "ii")
    assert _f("(somf_i (-P- a))") == Somf(Atom("A"), "i")
    assert _f("(until_ei (-P- a) (-P- b))") == UntilVar(Atom("A"), Atom("B"), "ei")
    assert _f("(until_ie_<=_<= 2 3 (-P- a) (-P- b))") == BoundedUntil(
        Atom("A"), Atom("B"), 2, 3, "ie"
    )
    assert _f("(until_ie_>= 2 (-P- a) (-P- b))") == BoundedUntil(
        Atom("A"), Atom("B"), 2, None, "ie"
    )
    assert _f("(next (yesterday (!! (-P- a))))") == Next(Yesterday(Not(Atom("A"))))


def test_quantifier_with_condition():
    f = _f("(-E- x (1 2 3) (< x 3) (-P- p x))")
    assert isinstance(f, Exists)
    assert f.cond == Cond("<", ("X", 3))


def test_condition_in_formula_position():
    f = _f("(-A- p (1 2) (-> (not (equal p 1)) (-P- q p)))")
    assert isinstance(f.body.left, Cond)


def test_bare_symbol_is_not_a_formula():
    with pytest.raises(SpecFormatError, match="bare symbol"):
        _f("(&& p)")


def test_arity_conflict_detected():
    with pytest.raises(SpecFormatError, match="argument"):
        parse_spec_text("(init (&& (-P- p 1) (-P- p)))")


def test_trans_accepts_multiple_formulas():
    doc = parse_spec_text("(declare a b) (trans (-P- a) (-P- b))")
    assert len(doc.transitions) == 2


def test_history_section():
    doc = parse_spec_text(
        "(define-item cont (range 0 3))"
        "(history (at 0 (-P- on) (!! (-P- off))) (at 2 (cont= 1)) (loop 1))"
    )
    hist = doc.history
    assert (0, Atom("ON"), True) in hist.facts
    assert (0, Atom("OFF"), False) in hist.facts
    assert (2, Atom("CONT", (1,), "item"), True) in hist.facts
    assert hist.loop_at == 1


def test_declare_entries_must_name_atoms():
    with pytest.raises(SpecFormatError, match="declare entries must be atoms"):
        parse_spec_text("(declare a (next (-P- a)))")


def test_history_facts_must_name_atoms():
    with pytest.raises(SpecFormatError, match="history facts must be atoms"):
        parse_spec_text("(history (at 0 (next (-P- a))))")
    with pytest.raises(SpecFormatError, match="history facts must be atoms"):
        parse_spec_text("(history (at 1 (!! (next (-P- a)))))")


def test_arbitrary_input_is_accepted_or_diagnosed():
    """Spec text either parses and desugars or raises a located error."""
    from hypothesis import given, settings, strategies as st

    from lassosat.desugar import desugar
    from lassosat.errors import LassosatError

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="()'; \n-PEA&|!<>=123xsinitrange", max_size=120))
    def check(text):
        try:
            doc = parse_spec_text(text)
            for f in [doc.init, doc.property, *doc.transitions]:
                if f is not None:
                    desugar(f, doc.declarations)
        except LassosatError:
            pass

    check()


def test_formula_print_parse_round_trip():
    texts = [
        "(&& (-P- P) (!! (-P- Q 1 2)))",
        "(until_ii (withinp_ei (-P- A) 2) (som (-P- B)))",
        "(-A- X (1 2) (eql X 1) (dist (-P- P X) -3))",
        "(and-case (X (1 2) Y (3 4)) ((-P- P X) (-P- Q X)) (else (-P- R2 X)))",
        "(since_ee_>= 1 (-P- A) (lasted_ie (-P- B) 2))",
    ]
    for text in texts:
        ast = _f(text)
        again = parse_formula(read_sexprs(to_text(to_sexpr(ast)))[0])
        assert again == ast, text


# The tests below nest far deeper than Python's default recursion limit:
# parse, desugar and print keep their own stacks.


def test_deep_conjunction_parses_and_desugars():
    n = 3000
    f = _f("(&& (-P- a) " * n + "(-P- a)" + ")" * n)
    assert desugar(f) is f  # already core
    links = 0
    while isinstance(f, And):
        f = f.items[1]
        links += 1
    assert (links, f) == (n, Atom("A"))


def test_deep_quantifier_nesting_parses_and_desugars():
    n = 3000
    f = _f("(-A- x (1) " * n + "(-P- p x)" + ")" * n)
    with pytest.warns(UserWarning, match="shadows"):
        assert desugar(f) == Atom("P", (1,))


def test_deep_sugared_chain_prints_and_round_trips():
    a, b = Atom("A"), Atom("B", (1,))
    steps = (
        lambda f: Lasts(f, 2, "ie"),
        lambda f: Somf(f, "i"),
        lambda f: UntilVar(b, f, "ei"),
        lambda f: BoundedSince(f, a, 1, None, "ee"),
        lambda f: Forall("X", (1, 2), f, Cond("<", ("X", 3))),
        lambda f: Not(f),
        lambda f: And((a, f)),
    )
    f = a
    for i in range(5000):
        f = steps[i % len(steps)](f)
    text = formula_text(f)
    assert repr(f) == text
    assert text.startswith(
        "(SOMF_I (LASTS_IE (&& (-P- A) (!! (-A- X (1 2) (< X 3) "
        "(SINCE_EE_>= 1 (UNTIL_EI (-P- B 1) (SOMF_I "
    )
    assert parse_formula(read_sexprs(text)[0]) is f
