import hashlib
import random
from dataclasses import replace

import pytest

from brute import brute_force_sat
from gen import random_core, random_sugared_capped, random_trace
from lassosat.cnf import dimacs_text, to_cnf
from lassosat.desugar import desugar
from lassosat.encoder import CheckProblem, encode
from lassosat.errors import EncodingError
from lassosat.formula import And, Atom, Iff, Next, Not, TrueF, Yesterday, Zeta
from lassosat.oracle import eval_lasso
from lassosat.pipeline import (
    RunConfig,
    build_problem,
    check_trace_against_root,
    find_bound,
    run,
)
from lassosat.sat_embedded import solve_embedded
from lassosat.specfile import load_spec
from lassosat.trace import PartialHistory, decode, load_history

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
        encode(CheckProblem(k=1, engine="mono", root=P))
    with pytest.raises(EncodingError, match="k >= 2"):
        encode(CheckProblem(k=1, engine="bi", root=P))
    with pytest.raises(EncodingError, match="loop-free mode needs k >= 1"):
        encode(CheckProblem(k=0, engine="mono", root=P, loop_free=True))
    with pytest.raises(EncodingError, match="unknown engine"):
        encode(CheckProblem(k=3, engine="tri", root=P))


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


def test_loop_free_encoding_has_no_selectors():
    problem = CheckProblem(k=2, engine="mono", root=Yesterday(P), atoms=(P,))
    loopy = encode(problem)
    free = encode(replace(problem, loop_free=True))
    assert free.loop_free and not loopy.loop_free
    assert free.varmap.loop_selectors == {}
    assert loopy.varmap.loop_selectors != {}


def test_loop_free_rejects_bi():
    problem = CheckProblem(k=2, engine="bi", root=P)
    encode(problem)
    with pytest.raises(EncodingError, match="defined for the mono engine only"):
        encode(replace(problem, loop_free=True))


# Encoding bytes pinned at a known-good state: spec, k, engine, mode, copy
# blocks, variables, clauses and the SHA-256 of the DIMACS text.  A change
# to the encoding must update a row on purpose.
PINNED = [
    ("lamp.zot", 5, "mono", "bsc", 147, 1947, 6265,
     "31ccd44ed977d784f57e0a6cc6e477c0ee69226c8a50c4fbe73fdbbc0c83645e"),
    ("lamp.zot", 5, "bi", "bsc", 156, 2162, 7102,
     "272740893de38b7bbec841576dd8c524f617d517a9cf15ee7e3b3b9f79c9a336"),
    ("mutex3.zot", 4, "mono", "bmc", 16, 1166, 3724,
     "a808c57d398b9a2b4de5e89edabf21dfdf887d3d9e7699a563e107666b3652b3"),
    ("mutex3.zot", 4, "bi", "bmc", 213, 2892, 10227,
     "0c70af6c7552e422afe4864c1b6315d489df1e73014a9fa6a71f1e13b449950c"),
    ("cycle3.zot", 3, "mono", "loop-free", 0, 90, 254,
     "970ce46db4d6d20d6db3de67074b3a928f42b199b2593423f521ede9b10bcafb"),
    ("stutter.zot", 4, "bi", "bsc", 4, 78, 262,
     "dc3d19a3d3ad3578fd175ee2b7eab1ac12e2bee78ef58604968693e9f9904559"),
    ("lamp.zot", 10, "bi", "hcc", 156, 4187, 15526,
     "f74f729357f9941a63e90400405cce003d7735792baa7c41690a307daf5cb9ad"),
    ("mutex3.zot", 4, "mono", "loop-free", 0, 965, 3053,
     "9e5399e5e7ff2a4ea2f6014fa515cfff6c9ab54855110ad2c72fcde04947f704"),
]


@pytest.mark.parametrize("spec,k,engine,mode,blocks,nvars,nclauses,digest", PINNED)
def test_encoding_bytes_are_pinned(
    data_dir, spec, k, engine, mode, blocks, nvars, nclauses, digest
):
    facts = load_history(data_dir / "lamp_history.txt") if mode == "hcc" else None
    problem = build_problem(load_spec(data_dir / spec), k, engine, mode, facts)
    encoded = encode(problem)
    inst = to_cnf(encoded)
    assert len(encoded.varmap.copy_base) == blocks
    assert (inst.num_vars, len(inst.clauses)) == (nvars, nclauses)
    assert hashlib.sha256(dimacs_text(inst).encode()).hexdigest() == digest


def test_atomless_loop_free_windows_are_unsat(tmp_path):
    # no atoms: no two instants can differ, so the all-different constraint
    # is the empty clause and the completeness bound is 1
    inst = to_cnf(encode(CheckProblem(k=1, engine="mono", root=TrueF(), loop_free=True)))
    assert [] in inst.clauses
    assert solve_embedded(inst).verdict == "UNSAT"
    spec = tmp_path / "atomless.zot"
    spec.write_text("(property (TRUE))\n")
    assert find_bound(RunConfig(spec_path=str(spec), out_dir=str(tmp_path))) == 1


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
