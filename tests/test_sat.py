import gc
import itertools
import os
import random
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lassosat import sat_embedded
from lassosat.cnf import CnfInstance, check_model, to_cnf
from lassosat.errors import LassosatError, SolverTimeout
from lassosat.sat_embedded import Solver, solve_embedded
from dimacs import parse_dimacs
from rup import RupChecker, learnts_are_rup


def naive_dpll(clauses, num_vars):
    """Independent reference solver: unit propagation plus splitting."""

    def simplify(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            reduced = [x for x in c if x != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def go(cls):
        while True:
            units = [c[0] for c in cls if len(c) == 1]
            if not units:
                break
            cls = simplify(cls, units[0])
            if cls is None:
                return False
        if not cls:
            return True
        lit = cls[0][0]
        for choice in (lit, -lit):
            reduced = simplify(cls, choice)
            if reduced is not None and go(reduced):
                return True
        return False

    return go([list(c) for c in clauses])


def test_unit_contradiction_unsat():
    assert solve_embedded(CnfInstance(1, [[1], [-1]])).verdict == "UNSAT"


def test_propagation_forces_model():
    result = solve_embedded(CnfInstance(2, [[1, 2], [-1]]))
    assert result.verdict == "SAT"
    assert result.model[2] is True
    assert result.model[1] is False


def test_empty_clause_is_unsat():
    assert solve_embedded(CnfInstance(2, [[1], []])).verdict == "UNSAT"


def test_empty_instance_is_sat():
    result = solve_embedded(CnfInstance(0, []))
    assert result.verdict == "SAT"


def test_unconstrained_variables_get_values():
    result = solve_embedded(CnfInstance(5, [[3]]))
    assert result.verdict == "SAT"
    assert len(result.model) == 6


def pigeonhole(n, m):
    """n pigeons into m holes: var(p, h) = m * p + h + 1."""
    var = lambda p, h: m * p + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(m)] for p in range(n)]
    for h in range(m):
        for p1 in range(n):
            for p2 in range(p1 + 1, n):
                clauses.append([-var(p1, h), -var(p2, h)])
    return CnfInstance(n * m, clauses)


def test_random_3cnf_cross_check_against_naive_dpll():
    """100 instances at the hard ratio, 30 variables each."""
    rng = random.Random(42)
    num_vars = 30
    num_clauses = 126  # ratio 4.2
    agreements = 0
    for _ in range(100):
        clauses = []
        for _ in range(num_clauses):
            vs = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([v * rng.choice((-1, 1)) for v in vs])
        inst = CnfInstance(num_vars, clauses)
        result = solve_embedded(inst)
        expected = naive_dpll(clauses, num_vars)
        assert (result.verdict == "SAT") == expected
        if result.verdict == "SAT":
            assert check_model(inst, result.model)
        agreements += 1
    assert agreements == 100


def test_pigeonhole_unsat():
    assert solve_embedded(pigeonhole(4, 3)).verdict == "UNSAT"


def test_timeout_raises():
    from lassosat.errors import SolverTimeout

    # 9 pigeons into 8 holes is far beyond a zero-second budget
    with pytest.raises(SolverTimeout):
        solve_embedded(pigeonhole(9, 8), timeout_s=0.0)


@pytest.fixture
def fast_decay(monkeypatch):
    # var_inc doubles per conflict and passes the 1e100 rescale threshold
    # after about 332 conflicts
    monkeypatch.setattr(sat_embedded, "_VAR_DECAY", 0.5)


def test_activity_rescale_keeps_the_search_complete(fast_decay):
    result = solve_embedded(pigeonhole(7, 6))
    assert result.verdict == "UNSAT"
    assert result.stats["conflicts"] > 340


def test_rescale_keeps_every_unassigned_variable_decidable(fast_decay):
    # vars 1..3 conflict at the first decisions and are bumped early; the
    # satisfiable random 3-CNF on vars 4..103 then needs more than 340
    # conflicts, so 1..3 are unassigned at the rescale and decided last
    clauses = [[1, 2, 3], [1, 2, -3]]
    rng = random.Random(4)
    for _ in range(420):
        clauses.append([v * rng.choice((-1, 1)) for v in rng.sample(range(4, 104), 3)])
    inst = CnfInstance(103, clauses)
    result = solve_embedded(inst)
    assert result.verdict == "SAT"
    assert check_model(inst, result.model)
    assert result.stats["conflicts"] > 340


def test_random_3cnf_cross_check_with_fast_decay(fast_decay):
    test_random_3cnf_cross_check_against_naive_dpll()


def test_solves_are_deterministic():
    rng = random.Random(7)
    clauses = [[v * rng.choice((-1, 1)) for v in rng.sample(range(1, 61), 3)]
               for _ in range(240)]
    inst = CnfInstance(60, clauses)
    first, second = solve_embedded(inst), solve_embedded(inst)
    assert first.stats["conflicts"] > 0
    assert (first.verdict, first.model, first.stats) == (
        second.verdict, second.model, second.stats
    )
    unsat = pigeonhole(5, 4)
    assert solve_embedded(unsat).stats == solve_embedded(unsat).stats


def test_counters_match_the_reference_search(data_dir):
    """Pinned counters of the search on mutex3 BMC at k = 10 (UNSAT).

    Speeding up propagation or the heap must leave them as they are; a
    change to the decisions, conflicts or learnt clauses moves them.
    """
    from lassosat.encoder import encode
    from lassosat.pipeline import build_problem
    from lassosat.specfile import load_spec

    problem = build_problem(load_spec(data_dir / "mutex3.zot"), 10, "mono", "bmc")
    result = solve_embedded(to_cnf(encode(problem)))
    assert result.verdict == "UNSAT"
    assert result.stats == {
        "conflicts": 198,
        "decisions": 435,
        "propagations": 20664,
        "restarts": 1,
        "learnts": 186,
        "learnt_lits": 1603,
        "minimized": 587,
    }


def test_rup_checker_rejects_what_does_not_follow():
    checker = RupChecker([[1, 2], [-1, 2], [-2, 3, 4]])
    assert checker.implies([2]) and checker.implies([3, 4]) and checker.implies([1, -1])
    assert not checker.implies([1]) and not checker.implies([3])
    checker.add([-4])
    assert checker.implies([3])


def test_learnt_clauses_are_rup_on_random_3cnf():
    """Every clause learnt, minimized or not, follows from the given clauses
    and the clauses learnt before it by unit propagation alone."""
    rng = random.Random(29)
    num_vars = 60
    checked = minimized = binaries = 0
    verdicts = set()
    for i in range(30):
        inst = CnfInstance(num_vars, [_random_clause(rng, num_vars) for _ in range(256)])
        assumptions = [v * rng.choice((-1, 1)) for v in rng.sample(range(1, num_vars + 1), i % 3)]
        live = Solver()
        result = solve_embedded(inst, assumptions=assumptions, live=live)
        verdicts.add(result.verdict)
        checked += learnts_are_rup(live, inst.clauses)
        minimized += result.stats["minimized"]
        binaries += sum(len(c) == 2 for c in live.clauses)
        assert result.stats["learnt_lits"] == sum(map(len, live.clauses))
    assert verdicts == {"SAT", "UNSAT"}
    assert checked > 1000 and minimized > 0 and binaries > 0


def test_learnt_clauses_are_rup_on_mutex3_bmc(data_dir):
    from lassosat.encoder import encode
    from lassosat.pipeline import build_problem
    from lassosat.specfile import load_spec

    problem = build_problem(load_spec(data_dir / "mutex3.zot"), 10, "mono", "bmc")
    live = Solver()
    inst = to_cnf(encode(problem))
    result = solve_embedded(inst, live=live)
    assert result.verdict == "UNSAT"
    assert learnts_are_rup(live, inst.clauses) >= result.stats["learnts"] > 0


def test_binary_conflicts_above_level_0_match_naive_dpll():
    # deciding -1 implies 2 and 3 through binaries, and [-2, -3] conflicts
    live = Solver()
    result = solve_embedded(CnfInstance(3, [[1, 2], [1, 3], [-2, -3]]), live=live)
    assert result.verdict == "SAT" and result.stats["conflicts"] == 1
    assert live.clauses == [[1]]
    # in a 2-CNF every reason and every conflict is binary
    rng = random.Random(31)
    verdicts, conflicts = set(), 0
    for _ in range(200):
        num_vars = rng.randint(4, 12)
        clauses = [_random_clause(rng, num_vars, 2) for _ in range(rng.randint(4, 2 * num_vars))]
        inst = CnfInstance(num_vars, clauses)
        result = solve_embedded(inst)
        assert (result.verdict == "SAT") == naive_dpll(clauses, num_vars)
        if result.verdict == "SAT":
            assert check_model(inst, result.model)
            conflicts += result.stats["conflicts"]  # a SAT search conflicts above level 0 only
        verdicts.add(result.verdict)
    assert verdicts == {"SAT", "UNSAT"} and conflicts > 0


def test_learnt_binary_clause_matches_naive_dpll():
    # -1, then -2, imply 4 and 5, which [-4, -5] forbids: the learnt clause is [2, 1]
    clauses = [[1, 2, 4], [1, 2, 5], [-4, -5]]
    live = Solver()
    result = solve_embedded(CnfInstance(5, clauses), live=live)
    assert live.clauses == [[2, 1]]
    assert result.verdict == "SAT" and naive_dpll(clauses, 5)
    # the learnt binary implies 2 on every later search that decides -1
    result = solve_embedded(CnfInstance(5, clauses), assumptions=[-1], live=live)
    assert result.verdict == "SAT" and result.model[2] and result.stats["conflicts"] == 0
    clauses.append([-2, 3])
    result = solve_embedded(CnfInstance(5, clauses), assumptions=[-1, -3], live=live)
    assert result.verdict == "UNSAT"
    assert not naive_dpll(clauses + [[-1], [-3]], 5)


def test_append_shrinking_a_ternary_clause_to_a_binary_one_matches_naive_dpll():
    clauses = [[1]]
    live = Solver()
    assert solve_embedded(CnfInstance(3, clauses), live=live).verdict == "SAT"
    clauses.append([-1, 2, 3])  # 1 holds at level 0: this is [2, 3]
    inst = CnfInstance(3, clauses)
    for assumptions, expected in (([-2], True), ([-2, -3], False), ([-3, -2], False), ([], True)):
        result = solve_embedded(inst, assumptions=assumptions, live=live)
        assert (result.verdict == "SAT") == expected
        assert naive_dpll(clauses + [[a] for a in assumptions], 3) == expected
        if expected:
            assert check_model(inst, result.model)
            assert all(result.model[abs(a)] == (a > 0) for a in assumptions)
    assert 3 in live.bins[2] and 2 in live.bins[3]


def test_repeated_and_complementary_literals_match_brute_force():
    """Clauses as parse_dimacs may give them, straight to the solver."""
    rng = random.Random(37)
    verdicts = set()
    for _ in range(4000):
        num_vars = rng.randint(1, 5)
        clauses = [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 12))]
        inst = CnfInstance(num_vars, clauses)
        result = solve_embedded(inst)
        expected = any(check_model(inst, [False, *bits])
                       for bits in itertools.product((False, True), repeat=num_vars))
        assert (result.verdict == "SAT") == expected, clauses
        if expected:
            assert check_model(inst, result.model)
        verdicts.add(result.verdict)
    assert verdicts == {"SAT", "UNSAT"}


def _random_clause(rng, num_vars, width=3):
    return [v * rng.choice((-1, 1)) for v in rng.sample(range(1, num_vars + 1), width)]


def test_live_solver_agrees_with_naive_dpll_on_appends_and_assumptions():
    """Random append/solve sequences on one live solver: every verdict is
    naive_dpll's on the clauses so far plus the assumptions as units, and
    every model satisfies both."""
    rng = random.Random(43)
    verdicts = set()
    for _ in range(60):
        live, num_vars = Solver(), rng.randint(6, 10)
        inst = CnfInstance(num_vars, [])
        for _ in range(6):
            num_vars += rng.randint(0, 4)  # later appends bring new variables
            inst = CnfInstance(num_vars, inst.clauses)
            for _ in range(rng.randint(2, 12)):
                inst.clauses.append(_random_clause(rng, num_vars, rng.choice((1, 2, 3, 3, 3))))
            assumptions = [v * rng.choice((-1, 1))
                           for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))]
            result = solve_embedded(inst, assumptions=assumptions, live=live)
            expected = naive_dpll(inst.clauses + [[a] for a in assumptions], num_vars)
            assert (result.verdict == "SAT") == expected
            verdicts.add(result.verdict)
            if result.verdict == "SAT":
                assert check_model(inst, result.model)
                assert all(result.model[abs(a)] == (a > 0) for a in assumptions)
    assert verdicts == {"SAT", "UNSAT"}


def test_live_solver_stays_unsat_after_a_level_0_conflict():
    live = Solver()
    inst = CnfInstance(3, [[1, 2], [-1, 3]])
    assert solve_embedded(inst, assumptions=[-3], live=live).verdict == "SAT"
    assert solve_embedded(inst, assumptions=[1, -3], live=live).verdict == "UNSAT"
    inst.clauses.extend([[-2], [-3]])  # -3 forces -1, so [1, 2] fails at level 0
    assert solve_embedded(inst, live=live).verdict == "UNSAT"
    inst.clauses.append([4, 5])
    for assumptions in ((), (4,), (-5,)):
        assert solve_embedded(CnfInstance(5, inst.clauses), assumptions=assumptions,
                              live=live).verdict == "UNSAT"


def test_live_solver_keeps_learnt_clauses_between_calls():
    rng = random.Random(11)
    inst = CnfInstance(60, [_random_clause(rng, 60) for _ in range(250)])
    live = Solver()
    first = solve_embedded(inst, live=live)
    assert first.verdict == "SAT" and first.stats["learnts"] > 0
    learnt = live.clauses[-first.stats["learnts"]:]
    # the saved phases replay the model, so the same problem costs nothing
    again = solve_embedded(inst, live=live)
    assert again.verdict == "SAT" and again.stats["conflicts"] == 0
    inst.clauses.append([-v if first.model[v] else v for v in (1, 2, 3)])
    solve_embedded(inst, live=live)
    attached = {id(c) for c in live.clauses}
    assert all(id(c) in attached for c in learnt)


def test_live_solver_honours_the_time_limit():
    live = Solver()
    inst = CnfInstance(2, [[1, 2]])
    assert solve_embedded(inst, live=live).verdict == "SAT"
    hard = pigeonhole(9, 8)
    inst = CnfInstance(2 + hard.num_vars,
                       inst.clauses + [[l + 2 if l > 0 else l - 2 for l in c] for c in hard.clauses])
    with pytest.raises(SolverTimeout):
        solve_embedded(inst, timeout_s=0.0, live=live)


def test_live_model_check_still_catches_a_bad_model_after_certification():
    """A clause a level-0 literal satisfies is checked through that literal
    (its certificate), the others are scanned: a model that breaks either
    fails the check."""
    bad = "internal error: model fails clause check"
    for flip in (1, -2):
        clauses = [[1], [-2], [3, 4]]
        live = Solver()
        assert solve_embedded(CnfInstance(4, clauses), live=live).verdict == "SAT"
        clauses.extend([[1, 3], [-2, -4]])  # 1 and -2 hold at level 0
        assert solve_embedded(CnfInstance(4, clauses), live=live).verdict == "SAT"
        assert (live.cert_pos, live.cert_neg, live.pending) == ([1], [-2], [[3, 4]])
        live.lv[flip], live.lv[-flip] = -1, 1  # a certificate is false in the next model
        with pytest.raises(LassosatError, match=bad):
            solve_embedded(CnfInstance(4, clauses), live=live)

    # [2, 3] arrives once 1 holds at level 0, and the search then loses it
    clauses = [[1]]
    live = Solver()
    assert solve_embedded(CnfInstance(3, clauses), live=live).verdict == "SAT"
    clauses.append([2, 3])
    assert solve_embedded(CnfInstance(3, clauses), live=live).verdict == "SAT"
    live.bins[2].remove(3)
    live.bins[3].remove(2)
    clauses.extend([[-2], [-3]])
    with pytest.raises(LassosatError, match=bad):
        solve_embedded(CnfInstance(3, clauses), live=live)
    assert live.pending[0] == [2, 3]


def test_solves_pause_cyclic_gc_and_restore_the_callers_setting(monkeypatch):
    during = []
    real = sat_embedded.check_model
    monkeypatch.setattr(
        sat_embedded, "check_model", lambda *a: during.append(gc.isenabled()) or real(*a)
    )
    collecting = gc.isenabled()
    try:
        for setting in (gc.enable, gc.disable):
            setting()
            before = gc.isenabled()
            assert solve_embedded(CnfInstance(2, [[1, 2]])).verdict == "SAT"
            assert solve_embedded(CnfInstance(2, [[1, 2]]), live=Solver()).verdict == "SAT"
            assert solve_embedded(pigeonhole(3, 2)).verdict == "UNSAT"
            with pytest.raises(SolverTimeout):
                solve_embedded(pigeonhole(9, 8), timeout_s=0.0)
            assert gc.isenabled() == before
        assert during == [False] * 4
    finally:
        (gc.enable if collecting else gc.disable)()


def test_external_solver_timeout(tmp_path, monkeypatch, data_dir):
    from lassosat.errors import SolverTimeout
    from lassosat.pipeline import RunConfig, run
    from lassosat.sat_external import SolverConfig, solve_external

    exe = tmp_path / "minisat"
    exe.write_text("#!/bin/sh\nexec sleep 5\n")
    exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
    config = SolverConfig("slow", "minisat", executable=str(exe))
    with pytest.raises(SolverTimeout, match="slow exceeded 0.2 s"):
        solve_external(CnfInstance(1, [[1]]), config, tmp_path, timeout_s=0.2)

    # a run passes RunConfig.timeout_s to the external backend too
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    config = RunConfig(spec_path=str(data_dir / "lamp.zot"), solver="minisat",
                       out_dir=str(tmp_path / "out"), timeout_s=0.2)
    with pytest.raises(SolverTimeout, match="minisat exceeded 0.2 s"):
        run(config)


def test_external_solver_missing_executable():
    from lassosat.errors import SolverError
    from lassosat.sat_external import SolverConfig, solve_external, solver_available

    config = SolverConfig("nonexistent-solver-xyzzy", "minisat")
    assert not solver_available(config)
    with pytest.raises(SolverError, match="not found"):
        solve_external(CnfInstance(1, [[1]]), config)


def test_external_output_dialects():
    from lassosat.errors import SolverError
    from lassosat.sat_external import _parse_minisat, _parse_picosat

    result = _parse_minisat("SAT\n1 -2 3 0\n", 3)
    assert result.verdict == "SAT"
    assert result.model[1:] == [True, False, True]
    assert _parse_minisat("UNSAT\n", 3).verdict == "UNSAT"
    with pytest.raises(SolverError, match="unrecognized"):
        _parse_minisat("INDETERMINATE\n", 3)
    with pytest.raises(SolverError, match="empty"):
        _parse_minisat("", 3)

    out = "c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n"
    result = _parse_picosat(out, 3)
    assert result.verdict == "SAT"
    assert result.model[1:] == [True, False, True]
    assert _parse_picosat("s UNSATISFIABLE\n", 2).verdict == "UNSAT"
    with pytest.raises(SolverError, match="no 's"):
        _parse_picosat("v 1 0\n", 2)


# A stand-in for an installed minisat or picosat: it reads the DIMACS file
# with parse_dimacs, solves it with the embedded solver, answers in its
# dialect (result file or stdout) and logs each call.
_FAKE_SOLVER = '''
from dimacs import parse_dimacs
from lassosat.sat_embedded import solve_embedded

with open(LOG, "a", encoding="utf-8") as fh:
    fh.write(DIALECT + "\\n")
with open(sys.argv[1], encoding="utf-8") as fh:
    inst = parse_dimacs(fh.read())
result = solve_embedded(inst)
sat = result.verdict == "SAT"
model = " ".join(
    str(v if result.model[v] else -v) for v in range(1, inst.num_vars + 1)
) if sat else ""
if DIALECT == "minisat":
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        fh.write(f"SAT\\n{model} 0\\n" if sat else "UNSAT\\n")
else:
    print(f"s SATISFIABLE\\nv {model} 0" if sat else "s UNSATISFIABLE")
sys.exit(10 if sat else 20)
'''


@pytest.fixture
def fake_solvers(tmp_path, monkeypatch):
    """Fake minisat and picosat executables first on PATH (they import
    lassosat and the tests' DIMACS reader); returns their call log."""
    import lassosat

    bin_dir, log = tmp_path / "bin", tmp_path / "calls.txt"
    bin_dir.mkdir()
    paths = [str(Path(lassosat.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    for dialect in ("minisat", "picosat"):
        exe = bin_dir / dialect
        exe.write_text(
            f"#!{sys.executable}\nimport sys\nsys.path[:0] = {paths!r}\n"
            f"DIALECT, LOG = {dialect!r}, {str(log)!r}\n" + _FAKE_SOLVER
        )
        exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return log


@pytest.mark.parametrize("solver", ["minisat", "picosat"])
def test_external_backends_run_end_to_end(fake_solvers, data_dir, tmp_path, solver):
    from lassosat.encoder import encode
    from lassosat.pipeline import (
        RunConfig,
        build_problem,
        check_trace_against_root,
        find_bound,
        run,
        solve_window,
    )
    from lassosat.specfile import load_spec

    def calls():
        return fake_solvers.read_text().split() if fake_solvers.exists() else []

    lamp = RunConfig(spec_path=str(data_dir / "lamp.zot"), solver=solver,
                     out_dir=str(tmp_path / "lamp"))
    report = run(lamp)
    assert (report.verdict, report.exit_code) == ("SAT", 0)
    problem = build_problem(load_spec(lamp.spec_path), report.k, report.engine, "bsc")
    assert check_trace_against_root(problem, report.trace)
    assert (tmp_path / "lamp" / "output.hist.txt").read_text() == report.history_text != ""
    assert calls() == [solver]

    out = tmp_path / "mutex3"
    report = run(RunConfig(spec_path=str(data_dir / "mutex3.zot"), mode="bmc", bound=3,
                           solver=solver, out_dir=str(out)))
    assert (report.verdict, report.exit_code, report.trace) == ("UNSAT", 1, None)
    assert report.history_text == (out / "output.hist.txt").read_text() == ""
    assert calls() == [solver] * 2

    # find-bound hands an external solver the grown clauses, the distinctness
    # pairs its models called for and the unit E_k, once per solve: its calls
    # and its last file are those of solve_window driven, over the same
    # growing window, by a fresh embedded solve of to_cnf, as the fake runs
    external = tmp_path / "fb-external"
    cycle3 = str(data_dir / "cycle3.zot")
    assert find_bound(RunConfig(spec_path=cycle3, solver=solver, out_dir=str(external))) == 3
    fresh_calls = []

    def fresh(encoded, timeout_s):
        fresh_calls.append(encoded.varmap.k)
        return solve_embedded(to_cnf(encoded))

    problem, encoded = build_problem(load_spec(cycle3), 1, "mono", "find-bound"), None
    for k in (1, 2, 3):
        encoded = encode(replace(problem, k=k), encoded)
        verdict = solve_window(encoded, fresh).verdict
    assert verdict == "UNSAT" and fresh_calls == [1, 2, 3, 3]
    assert calls() == [solver] * 6
    assert parse_dimacs((external / "output.cnf.txt").read_text()) == to_cnf(encoded)
    report = run(RunConfig(spec_path=cycle3, mode="loop-free", bound=3, solver=solver,
                           out_dir=str(tmp_path / "lf-external")))
    assert report.verdict == "UNSAT" and calls() == [solver] * 8


def test_cli_solver_option_reaches_the_external_adapter(fake_solvers, data_dir, tmp_path):
    """The adapters load on first use: a fresh `check --solver minisat`
    process still hands its CNF to the minisat executable."""
    import lassosat

    env = dict(os.environ)
    src = str(Path(lassosat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lassosat.cli", "check", "--solver", "minisat",
         "--out", str(out), str(data_dir / "lamp.zot")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert fake_solvers.read_text().split() == ["minisat"]
    assert (out / "output.sat.txt").read_text().startswith("SAT\n")
    assert (out / "output.hist.txt").read_text() != ""
