import random

import pytest

from brute import brute_force_sat, trace_from_index
from gen import random_core, random_sugared_capped, random_trace
from lassosat.cnf import to_cnf
from lassosat.desugar import desugar
from lassosat.encoder import CheckProblem, add_loop_free, encode, encode_bi, encode_mono
from lassosat.errors import EncodingError
from lassosat.formula import And, Atom, Iff, Next, Not, Yesterday, Zeta
from lassosat.oracle import eval_lasso
from lassosat.pipeline import RunConfig, build_problem, check_trace_against_root, run
from lassosat.sat_embedded import solve_embedded
from lassosat.specfile import load_spec
from lassosat.trace import LassoTrace, PartialHistory, decode

P, Q = Atom("P"), Atom("Q")


def _solve(problem):
    encoded = encode(problem)
    result = solve_embedded(to_cnf(encoded))
    return encoded, result


def test_yesterday_idiom_pins_init_at_zero():
    encoded, result = _solve(CheckProblem(k=3, engine="mono", root=Yesterday(P)))
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert trace.holds(P, 0)


def test_zeta_true_at_origin_irrespective_of_operand():
    # assert at instant 0 through the yesterday idiom
    encoded, result = _solve(
        CheckProblem(k=3, engine="mono", root=Yesterday(And((Zeta(P), Not(P)))))
    )
    assert result.verdict == "SAT"
    _, result = _solve(
        CheckProblem(k=3, engine="mono", root=Yesterday(Not(Zeta(P))))
    )
    assert result.verdict == "UNSAT"


def test_yesterday_equals_zeta_everywhere_in_bi():
    f = Not(Iff(Yesterday(P), Zeta(P)))
    _, result = _solve(CheckProblem(k=4, engine="bi", root=f))
    assert result.verdict == "UNSAT"


def test_bi_alw_forces_atom_at_every_instant():
    from lassosat.desugar import desugar
    from lassosat.formula import Alw

    alw_p = desugar(Alw(P))
    encoded, result = _solve(CheckProblem(k=4, engine="bi", root=alw_p))
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert all(trace.holds(P, t) for t in range(5))
    # and pinning any instant false makes it unsatisfiable
    pins = PartialHistory(((3, P, False),))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=alw_p, facts=pins, atoms=(P,))
    )
    assert result.verdict == "UNSAT"


def test_small_bounds_rejected():
    with pytest.raises(EncodingError, match="k >= 2"):
        encode_mono(CheckProblem(k=1, engine="mono", root=P))
    with pytest.raises(EncodingError, match="k >= 2"):
        encode_bi(CheckProblem(k=1, engine="bi", root=P))


def test_exactly_one_selector_in_models():
    encoded, result = _solve(CheckProblem(k=4, engine="bi", root=Next(P)))
    assert result.verdict == "SAT"
    model = result.model
    assert sum(model[v] for v in encoded.varmap.loop_selectors.values()) == 1
    assert sum(model[v] for v in encoded.varmap.pool_selectors.values()) == 1


def test_exactness_small_scale_mono_and_bi():
    """Verdicts equal brute-force lasso enumeration for |AP| <= 2, k <= 4."""
    rng = random.Random(77)
    for n in range(120):
        engine = "mono" if n % 2 == 0 else "bi"
        k = rng.randint(2, 4)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        pos = 1 if engine == "mono" else 0
        _, result = _solve(CheckProblem(k=k, engine=engine, root=f))
        expected, _ = brute_force_sat(f, k, engine, pos)
        assert (result.verdict == "SAT") == expected, (engine, k, f)


def test_soundness_random_sample():
    """Every SAT answer decodes to a trace the oracle accepts."""
    rng = random.Random(78)
    for _ in range(70):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 6)
        _, core = random_sugared_capped(rng, rng.randint(1, 4), ("P", "Q", "R"))
        encoded, result = _solve(CheckProblem(k=k, engine=engine, root=core))
        if result.verdict == "SAT":
            trace = decode(result, encoded.varmap)
            pos = 1 if engine == "mono" else 0
            assert eval_lasso(trace, core, pos), (engine, k, core)


def test_bounded_completeness_via_history_pinning():
    """An oracle-accepted trace, pinned as a total history, stays SAT."""
    rng = random.Random(79)
    accepted = 0
    while accepted < 40:
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 4)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        trace = random_trace(rng, k, engine, ("P", "Q"))
        pos = 1 if engine == "mono" else 0
        if not eval_lasso(trace, f, pos):
            continue
        accepted += 1
        facts = tuple(
            (t, atom, bool(trace.valuations[atom][t]))
            for atom in trace.atoms
            for t in range(k + 1)
        )
        pins = PartialHistory(
            facts,
            loop_at=trace.loop_start,
            pool_at=trace.pool_start if engine == "bi" else None,
        )
        _, result = _solve(
            CheckProblem(k=k, engine=engine, root=f, facts=pins,
                         atoms=trace.atoms)
        )
        assert result.verdict == "SAT", (engine, k, f, trace)


def test_loop_free_three_state_cycle(data_dir):
    doc = load_spec(data_dir / "cycle3.zot")
    for k, expected in ((1, "SAT"), (2, "SAT"), (3, "UNSAT")):
        problem = build_problem(doc, k, "mono", "loop-free")
        _, result = _solve(problem)
        assert result.verdict == expected, k


def test_loop_free_stutter_system(data_dir):
    doc = load_spec(data_dir / "stutter.zot")
    problem = build_problem(doc, 1, "mono", "loop-free")
    _, result = _solve(problem)
    assert result.verdict == "UNSAT"


def test_loop_free_free_atom_pigeonhole(data_dir):
    doc = load_spec(data_dir / "free1.zot")
    for k, expected in ((1, "SAT"), (2, "UNSAT")):
        problem = build_problem(doc, k, "mono", "loop-free")
        _, result = _solve(problem)
        assert result.verdict == expected, k


def test_loop_free_distinctness_holds_in_models(data_dir):
    doc = load_spec(data_dir / "cycle3.zot")
    problem = build_problem(doc, 2, "mono", "loop-free")
    encoded, result = _solve(problem)
    assert result.verdict == "SAT"
    vm = encoded.varmap
    states = [
        tuple(result.model[vm.var(a, t)] for a in vm.atoms) for t in range(3)
    ]
    assert len(set(states)) == 3


def test_add_loop_free_rederives_from_source():
    problem = CheckProblem(k=2, engine="mono", root=Yesterday(P), atoms=(P,))
    loopy = encode(problem)
    free = add_loop_free(loopy)
    assert free.loop_free and not loopy.loop_free
    assert free.varmap.loop_selectors == {}


def test_add_loop_free_rejects_bi():
    encoded = encode(CheckProblem(k=2, engine="bi", root=P))
    with pytest.raises(EncodingError, match="mono"):
        add_loop_free(encoded)


def test_history_fact_beyond_bound_rejected():
    pins = PartialHistory(((5, P, True),))
    with pytest.raises(EncodingError, match="exceeds the bound"):
        encode(CheckProblem(k=3, engine="mono", root=P, facts=pins, atoms=(P,)))


def test_pool_marker_requires_bi_engine():
    pins = PartialHistory(((0, P, True),), pool_at=2)
    with pytest.raises(EncodingError, match="bi engine"):
        encode(CheckProblem(k=3, engine="mono", root=P, facts=pins, atoms=(P,)))


def test_bi_transitions_with_past_content_constrain_the_past_loop():
    """yesterday(p) -> p at every integer instant: p is upward closed."""
    from lassosat.desugar import desugar
    from lassosat.formula import Alwf, Implies, Somp

    persist = Implies(Yesterday(P), P)
    # p at instant 0 forces p at every later instant of the induced word
    future_all = desugar(Alwf(P, "i"))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, Not(future_all))),
                     transitions=(persist,), atoms=(P,))
    )
    assert result.verdict == "UNSAT"
    # the past period spans u[0..pool] and repeats backward, so a not-p cell
    # in it would recur after the p-true cell at instant 0 and break
    # persistence: p-now with not-p somewhere in the strict past is
    # unsatisfiable under this transition (brute-force confirmed)
    past_somewhere_not = desugar(Somp(Not(P), "e"))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, past_somewhere_not)),
                     transitions=(persist,), atoms=(P,))
    )
    assert result.verdict == "UNSAT"
    # without the transition the same root is easily satisfiable
    encoded, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, past_somewhere_not)),
                     atoms=(P,))
    )
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert eval_lasso(trace, And((P, past_somewhere_not)), 0)


def test_deep_metric_chain_runs_under_the_default_recursion_limit(tmp_path):
    spec = tmp_path / "deep.zot"
    spec.write_text("(declare a)\n(property (futr (-P- a) 5000))\n")
    report = run(RunConfig(spec_path=str(spec), bound=5, out_dir=str(tmp_path)))
    assert report.verdict == "SAT"
    problem = build_problem(load_spec(spec), 5, "mono", "bsc")
    assert check_trace_against_root(problem, report.trace)
