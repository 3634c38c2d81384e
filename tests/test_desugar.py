import copy
import pickle
import random
import warnings

import pytest

from gen import random_core, random_sugared, random_trace
from lassosat.desugar import desugar, eval_cond, expand_case
from lassosat.errors import FormulaError
from lassosat.formula import (
    And,
    Atom,
    BoundedUntil,
    Forall,
    Futr,
    Lasts,
    Next,
    Not,
    Or,
    Release,
    Since,
    SinceVar,
    Som,
    Somf,
    Somp,
    Trigger,
    TrueF,
    Until,
    UntilVar,
    WithinF,
    Yesterday,
    classify,
    closure,
    temporal_depth,
)
from lassosat.oracle import eval_lasso
from lassosat.sexpr import read_sexprs
from lassosat.specfile import parse_formula

P, Q = Atom("P"), Atom("Q")


def _f(text):
    return parse_formula(read_sexprs(text)[0])


def _norm(f):
    """Order-insensitive structural key (conjunct/disjunct order is free)."""
    if isinstance(f, (And, Or)):
        return (type(f).__name__, frozenset(_norm(x) for x in f.items))
    slots = []
    for name in ("sub", "left", "right", "body", "else_body"):
        child = getattr(f, name, None)
        if child is not None:
            slots.append(_norm(child))
    for name in ("name", "args", "variant", "offset", "var", "domain", "op"):
        value = getattr(f, name, None)
        if value is not None:
            slots.append(value)
    return (type(f).__name__, tuple(slots))


def _equivalent(a, b, rng, cases=40):
    """Semantic equivalence on random lasso traces, via the oracle."""
    for _ in range(cases):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 5)
        tr = random_trace(rng, k, engine, ("P", "Q"))
        pos = rng.randint(0, k)
        if eval_lasso(tr, a, pos) != eval_lasso(tr, b, pos):
            return False
    return True


def test_plain_until_passes_through():
    assert desugar(Until(P, Q)) == Until(P, Q)


def test_futr_zero_is_identity():
    assert desugar(Futr(P, 0)) == P


def test_lasts_default_expansion_golden():
    # default lasts = lasts_ee: offsets {1, 2} for t = 3
    assert desugar(Lasts(P, 3)) == And((Next(P), Next(Next(P))))


def test_lasts_variant_ranges():
    assert desugar(Lasts(P, 1, "ee")) == TrueF()  # empty range [1, 0]
    assert desugar(Lasts(P, 1, "ie")) == P
    assert desugar(Lasts(P, 2, "ii")) == And((P, Next(P), Next(Next(P))))
    assert desugar(Lasts(P, 2, "ei")) == And((Next(P), Next(Next(P))))


def test_lasts_expansion_matches_range_definition_on_short_words():
    # check the expansion against the direct range definition on every
    # 2^5 valuation of a five-instant lasso
    core = desugar(Lasts(P, 3))
    for bits in range(32):
        vals = tuple(bool((bits >> t) & 1) for t in range(5))
        from lassosat.trace import LassoTrace

        tr = LassoTrace(4, "mono", (P,), {P: vals}, loop_start=4)
        expect = vals[1] and vals[2]  # A at offsets {1,2} from position 0
        assert eval_lasso(tr, core, 0) == expect


def test_bounded_until_golden_shape():
    got = desugar(BoundedUntil(P, Q, 2, 3, "ie"))
    d2 = And((Next(Next(Q)), P, Next(P)))
    d3 = And((Next(Next(Next(Q))), P, Next(P), Next(Next(P))))
    assert _norm(got) == _norm(Or((d2, d3)))


def test_bounded_until_brute_force_over_length_six_words():
    # witness d in {2, 3}: B at d and A on [0, d-1]
    core = desugar(BoundedUntil(P, Q, 2, 3, "ie"))
    from lassosat.trace import LassoTrace

    for bits in range(1 << 12):
        pv = tuple(bool((bits >> t) & 1) for t in range(6))
        qv = tuple(bool((bits >> (6 + t)) & 1) for t in range(6))
        tr = LassoTrace(5, "mono", (P, Q), {P: pv, Q: qv}, loop_start=5)
        expect = any(
            qv[d] and all(pv[x] for x in range(d)) for d in (2, 3)
        )
        assert eval_lasso(tr, core, 0) == expect


def test_until_variant_table():
    assert desugar(UntilVar(P, Q, "ie")) == Until(P, Q)
    assert desugar(UntilVar(P, Q, "ii")) == Until(P, And((P, Q)))
    assert desugar(UntilVar(P, Q, "ee")) == Next(Until(P, Q))
    assert desugar(UntilVar(P, Q, "ei")) == Next(Until(P, And((P, Q))))
    assert desugar(SinceVar(P, Q, "ee")) == Yesterday(Since(P, Q))


def test_som_alw_expansions():
    assert desugar(Somf(P)) == Next(Until(TrueF(), P))
    assert desugar(Somf(P, "i")) == Until(TrueF(), P)
    assert desugar(Somp(P)) == Yesterday(Since(TrueF(), P))
    som = desugar(Som(P))
    assert isinstance(som, Or) and len(som.items) == 3


def test_quantifier_expansion_golden():
    f = _f("(-A- x (1 2) (-P- P x))")
    assert desugar(f) == And((Atom("P", (1,)), Atom("P", (2,))))


def test_quantifier_four_way_instance():
    f = _f("(-E- x (range 2 5) (-P- P x))")
    out = desugar(f)
    assert isinstance(out, Or) and len(out.items) == 4


def test_nested_quantifier_product():
    f = _f("(-A- x (1 2) (-A- y (3 4) (-P- P x y)))")
    out = desugar(f)
    assert isinstance(out, And)
    atoms = [a for a in closure([out]) if isinstance(a, Atom)]
    assert len(atoms) == 4


def test_quantifier_condition_filters_instances():
    f = _f("(-E- x (1 2 3) (< x 3) (-P- P x))")
    assert desugar(f) == Or((Atom("P", (1,)), Atom("P", (2,))))


def test_condition_inside_body_evaluates():
    f = _f("(-A- p (1 2) (-> (not (equal p 1)) (-P- q p)))")
    # p = 1 instance collapses to true and is folded away
    assert desugar(f) == Atom("Q", (2,))


def test_condition_connectives_stop_at_the_deciding_argument():
    # x = A makes eql true, so or never compares A with 3
    cond = _f("(or (eql x a) (< x 3))")
    assert eval_cond(cond, {"X": "A"}) is True
    with pytest.raises(FormulaError, match="non-integers"):
        eval_cond(cond, {"X": "B"})
    assert eval_cond(_f("(and (eql x 1) (< x b))"), {"X": 2}) is False
    with pytest.raises(FormulaError, match="non-integers"):
        eval_cond(_f("(not (and (eql x x) (< x b)))"), {"X": 2})
    # nested deeper than the recursion limit
    n = 3001
    assert eval_cond(_f("(not " * n + "(eql 1 1)" + ")" * n)) is False


def test_empty_domain_quantifier_rejected():
    with pytest.raises(FormulaError, match="empty domain"):
        desugar(Forall("X", (), P))


def test_shadowing_warns_and_inner_wins():
    f = _f("(-A- x (1 2) (-E- x (3 4) (-P- P x)))")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = desugar(f)
    shadowing = [w for w in caught if "shadow" in str(w.message)]
    assert shadowing
    for w in shadowing:
        # reported at this call of desugar, naming the shadowing quantifier
        assert w.filename == __file__
        assert str(w.message).endswith("in (-E- X (3 4) ...)")
    atoms = {a for a in closure([out]) if isinstance(a, Atom)}
    assert atoms == {Atom("P", (3,)), Atom("P", (4,))}


AND_CASE = """
(and-case (x (1 2) y (3 4))
          ((-P- P x) (-P- Q x))
          ((-P- R y) (-P- R1 y))
          (else (-P- R2 x)))
"""

AND_CASE_EXPANDED = """
(-A- X (1 2)
    (-A- Y (3 4)
     (&& (-> (-P- R Y) (-P- R1 Y)) (-> (-P- P X) (-P- Q X))
      (-> (&& (!! (-P- R Y)) (!! (-P- P X))) (-P- R2 X)))))
"""

OR_CASE = AND_CASE.replace("and-case", "or-case")

OR_CASE_EXPANDED = """
(-E- X (1 2)
    (-E- Y (3 4)
     (|| (&& (-P- R Y) (-P- R1 Y)) (&& (-P- P X) (-P- Q X))
      (&& (!! (-P- R Y)) (!! (-P- P X)) (-P- R2 X)))))
"""


def test_and_case_expansion_golden():
    got = expand_case(_f(AND_CASE))
    assert _norm(got) == _norm(_f(AND_CASE_EXPANDED))


def test_or_case_expansion_golden():
    got = expand_case(_f(OR_CASE))
    assert _norm(got) == _norm(_f(OR_CASE_EXPANDED))


def test_and_case_with_only_else():
    f = _f("(and-case (x (1 2)) (else (-P- P x)))")
    out = expand_case(f)
    assert out == Forall("X", (1, 2), Atom("P", ("X",)))


def test_multiple_else_rejected_at_parse():
    from lassosat.errors import SpecFormatError

    with pytest.raises(SpecFormatError, match="multiple else"):
        _f("(and-case (x (1 2)) (else (-P- a)) (else (-P- b)))")


def test_else_not_last_rejected():
    from lassosat.errors import SpecFormatError

    with pytest.raises(SpecFormatError, match="must come last"):
        _f("(and-case (x (1 2)) (else (-P- a)) ((-P- g) (-P- b)))")


def test_desugar_idempotent_on_random_formulas():
    rng = random.Random(5)
    for _ in range(150):
        core = desugar(random_sugared(rng, rng.randint(1, 4), ("P", "Q", "R")))
        # classify (like closure's walk) rejects every sugar node
        assert all(classify(g) for g in closure([core]))
        assert desugar(core) == core


def test_offset_validation():
    with pytest.raises(FormulaError, match="out of range"):
        desugar(Lasts(P, 0))
    with pytest.raises(FormulaError, match="integer literal"):
        desugar(Lasts(P, "T"))
    with pytest.raises(FormulaError, match="out of range"):
        desugar(Futr(P, -1))
    with pytest.raises(FormulaError, match="out of range"):
        desugar(BoundedUntil(P, Q, 2, 1, "ie"))


def test_dualities_on_random_instances():
    rng = random.Random(9)
    for variant in ("ee", "ie", "ei", "ii"):
        for t in (1, 2, 3):
            a = random_core(rng, 1, ("P", "Q"))
            withinf = desugar(WithinF(a, t, variant))
            dual = desugar(Not(Lasts(Not(a), t, variant)))
            assert _equivalent(withinf, dual, rng, cases=12), (variant, t)


def test_release_trigger_duality():
    rng = random.Random(10)
    for _ in range(25):
        a = random_core(rng, 1, ("P", "Q"))
        b = random_core(rng, 1, ("P", "Q"))
        assert _equivalent(
            Release(a, b), Not(Until(Not(a), Not(b))), rng, cases=12
        )
        assert _equivalent(
            Trigger(a, b), Not(Since(Not(a), Not(b))), rng, cases=12
        )


def test_temporal_depth():
    assert temporal_depth(P) == (0, 0)
    assert temporal_depth(Until(P, Yesterday(Q))) == (1, 1)
    assert temporal_depth(Next(Next(Since(P, Q)))) == (2, 1)
    # far deeper than the recursion limit: the walk keeps its own stack
    chain = P
    for _ in range(5000):
        chain = Next(chain)
    assert temporal_depth(chain) == (5000, 0)
    assert len(closure([chain])) == 5001


def test_nodes_are_interned(data_dir):
    from lassosat.pipeline import build_problem
    from lassosat.specfile import load_spec

    assert Next(Atom("a")) is Next(Atom("a"))
    assert Atom("x", (1,)) == Atom("x", (1,))
    assert Atom("x", (1,)) is Atom(name="x", args=(1,), kind="prop")
    assert Atom("x", (1,)) != Atom("x", (2,))
    assert copy.deepcopy(Until(P, Q)) is Until(P, Q)
    roots = [
        build_problem(load_spec(data_dir / "lamp.zot"), 10, "bi", "bsc").root
        for _ in range(2)
    ]
    assert roots[0] is roots[1]


def test_deep_formulas_copy_and_pickle_to_the_interned_node():
    chain = P
    for _ in range(5000):
        chain = Next(chain)
    assert copy.deepcopy(chain) is chain
    assert pickle.loads(pickle.dumps(chain)) is chain
    # sugar nodes keep nodes inside tuples: branches, conditions, items
    for text in (
        "(-A- x (1 2) (-E- y (3 4) (EQUAL x y) (&& (-P- P x) (-P- Q y))))",
        "(and-case (x (1 2)) ((-P- P x) (-P- Q x)) (else (-P- R x)))",
    ):
        f = _f(text)
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_temporal_depth_mutex_property_regression(data_dir):
    # frozen after first implementation: som/alw wraps the somf layer in
    # zeta/trigger towards the past and next/release towards the future
    from lassosat.desugar import desugar as ds
    from lassosat.specfile import load_spec

    doc = load_spec(data_dir / "mutex3.zot")
    core = ds(Not(doc.property), doc.declarations)
    assert temporal_depth(core) == (4, 2)
