import re

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


@pytest.mark.parametrize("section", [
    "(init (c= 1))",
    "(trans (-> (c= 0) (next (c= 1))))",
    "(history (at 0 (c= 1)))",
])
def test_a_section_may_precede_the_item_it_references(section):
    """Items and arrays are defined before any other section is read, so
    a section may come before the definition it names, as a plain atom may
    be used before its declare."""
    before = parse_spec_text(f"{section} (define-item c (0 1)) (define-array a (0) (0 1))")
    after = parse_spec_text(f"(define-item c (0 1)) (define-array a (0) (0 1)) {section}")
    assert before == after
    assert list(before.declarations.items) == ["C"]
    assert list(before.declarations.arrays) == ["A"]


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


# (spec text, message, the text at fault): every shape error of a section, a
# history entry, a declaration or a formula, located at the last copy of the
# text at fault.
SHAPE_ERRORS = [
    # a second copy of each section that sets one field
    ("(init (-P- a)) (init (-P- b))", "duplicate init section", "(init (-P- b))"),
    ("(property (-P- a)) (property (-P- b))", "duplicate property section",
     "(property (-P- b))"),
    ("(history (at 0 a)) (history (at 1 b))", "duplicate history section",
     "(history (at 1 b))"),
    ("(bound 3) (bound 5)", "duplicate bound section", "(bound 5)"),
    ("(engine bi) (engine mono)", "duplicate engine section", "(engine mono)"),
    ("(loop-free) (loop-free)", "duplicate loop-free section", "(loop-free)"),
    ("(solver a) (solver b)", "duplicate solver section", "(solver b)"),
    # a wrong operand count for each section that has one
    ("(define-item c)", "(define-item NAME DOMAIN) expected, got 1", "(define-item c)"),
    ("(define-array r (1 2))", "(define-array NAME INDEX-DOMAIN VALUE-DOMAIN) expected, got 2",
     "(define-array r (1 2))"),
    ("(init)", "(init FORMULA) expected, got 0", "(init)"),
    ("(trans)", "(trans FORMULA ...) expected, got 0", "(trans)"),
    ("(property (-P- a) (-P- b))", "(property FORMULA) expected, got 2", "(property"),
    ("(bound)", "(bound N) expected, got 0", "(bound)"),
    ("(engine)", "(engine mono|bi) expected, got 0", "(engine)"),
    ("(loop-free 7)", "(loop-free) expected, got 1", "(loop-free 7)"),
    ("(solver a b)", "(solver NAME) expected, got 2", "(solver a b)"),
    # forms that are no section, and bad operands
    ("7", "section expected, got 7", "7"),
    ("()", "section expected, got ()", "()"),
    ("((init))", "expected a symbol for section keyword", "(init)"),
    ("(bound x)", "expected an integer for bound, got X", "x"),
    ("(bound 0)", "bound must be >= 1", "0"),
    ("(engine tri)", "unknown engine tri", "tri"),
    # history entries
    ("(history (loop 1) (loop 2))", "duplicate loop history entry", "(loop 2)"),
    ("(history (pool 1) (pool 2))", "duplicate pool history entry", "(pool 2)"),
    ("(history (at))", "(at N FACT ...) expected, got 0", "(at)"),
    ("(history (loop))", "(loop N) expected, got 0", "(loop)"),
    ("(history (pool 1 2))", "(pool N) expected, got 2", "(pool 1 2)"),
    ("(history a)", "history entry expected, got A", "a"),
    ("(history (1 a))", "expected a symbol for history entry keyword", "1"),
    ("(history (when 1 a))", "unknown history entry WHEN", "when"),
    ("(history (at -1 a))", "history instant must be >= 0", "-1"),
    ("(history (at x a))", "expected an integer for history instant", "x"),
    ("(history (loop x))", "expected an integer for loop instant", "x"),
    ("(history (at 0 (next (-P- a))))", "history facts must be atoms", "(next"),
    # a declaration's own checks, located at the section that runs them
    ("(define-item c (range 3 1))", "item C: empty domain", "(define-item"),
    ("(define-item c (1 1))", "item C: duplicate domain elements", "(define-item"),
    ("(define-item c (1 2)) (define-item c (3 4))", "duplicate declaration of C",
     "(define-item"),
    ("(define-array r () (1))", "array R: empty domain", "(define-array"),
    ("(define-array r (1 1) (2))", "array R: duplicate index elements", "(define-array"),
    ("(define-array r (1) (2 2))", "array R: duplicate domain elements", "(define-array"),
    ("(declare (-P- p 1)) (property (-P- p))",
     "predicate P used with 0 argument(s), previously 1", "(property"),
    ("(define-item c (1 2)) (declare c)", "C is already a declared item/array", "(declare c)"),
    # formulas
    ("(property (foo (-P- a)))", "unknown operator FOO", "foo"),
    ("(property (next (-P- a) (-P- b)))", "NEXT expects 1 argument(s), got 2", "(next"),
    ("(property ())", "empty list is not a formula", "()"),
    ("(property ((-P- a)))", "formula must start with an operator, got (-P- A)", "(-P- a)"),
    ("(property a)", "bare symbol A is not a formula", "a"),
    ("(property (-P-))", "(-P- ...) needs a proposition name", "(-P-)"),
    ("(property (futr (-P- a) (1)))", "expected a constant or variable, got (1)", "(1)"),
    ("(property (-A- x (1 2)))", "quantifier expects (var domain [condition] body)", "(-A-"),
    ("(property (-E- x 1 (-P- a)))", "expected a domain list, got 1", "1"),
    ("(property (-A- x (1 2) x (-P- a)))", "expected a condition, got X", "x"),
    ("(property (-A- x (1 2) (foo x 1) (-P- a)))", "unknown condition operator FOO", "foo"),
    ("(property (-A- x (1 2) (eql x) (-P- a)))", "(EQL ...) expects 2 terms", "(eql x)"),
    ("(property (-A- x (1 2) (not (eql x 1) (eql x 2)) (-P- a)))",
     "(not ...) expects 1 condition", "(not"),
    ("(define-item c (1 2)) (property (c= 1 2))", "(c= ...) expects one value", "(c="),
    ("(define-array r (1 2) (3 4)) (property (r= 1))", "(r= ...) expects index and value",
     "(r="),
    ("(property (d= 1))", "reference to undeclared item/array D", "(d="),
    ("(property (and-case x ((-P- a) (-P- b))))",
     "case construct expects a bindings list first", "(and-case"),
    ("(property (and-case (x) ((-P- a) (-P- b))))",
     "case bindings must alternate variable and domain", "(x)"),
    ("(property (or-case (x ()) ((-P- a) (-P- b))))", "case binding domain is empty", "()"),
    ("(property (or-case (x (1 2)) ((-P- a))))",
     "case branch must be (guard body) or (else body)", "((-P- a))"),
    ("(property (and-case (x (1)) (else (-P- a)) (else (-P- b))))", "multiple else branches",
     "(else"),
    ("(property (and-case (x (1)) (else (-P- a)) ((-P- a) (-P- b))))",
     "else branch must come last", "((-P- a) (-P- b))"),
]


@pytest.mark.parametrize("text, message, at_fault", SHAPE_ERRORS)
def test_every_shape_error_names_the_form_at_fault(text, message, at_fault):
    with pytest.raises(SpecFormatError, match=re.escape(message)) as exc:
        parse_spec_text("(declare a b)\n" + text)
    assert (exc.value.line, exc.value.col) == (2, text.rindex(at_fault) + 1)


def test_history_facts_do_not_register_atoms():
    # the encoder decides whether a fact's atom exists, as for a history file
    doc = parse_spec_text("(declare p) (history (at 0 typo (-P- q 1) (!! (-P- p))))")
    assert doc.declarations.atom_arity == {"P": 0}
    assert {atom for _, atom, _ in doc.history.facts} == {Atom("TYPO"), Atom("Q", (1,)), Atom("P")}


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
