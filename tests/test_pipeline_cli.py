import hashlib
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from dimacs import parse_dimacs
from lassosat import pipeline, sat_embedded
from lassosat.cli import main
from lassosat.cnf import check_model
from lassosat.encoder import encode
from lassosat.errors import BoundSearchError, EncodingError, SolverTimeout, SpecFormatError
from lassosat.formula import Atom
from lassosat.oracle import LassoWord, eval_lasso
from lassosat.pipeline import (
    RunConfig,
    build_problem,
    check_trace_against_root,
    find_bound,
    run,
    solve_window,
    window_solver,
)
from lassosat.sat_embedded import solve_embedded
from lassosat.specfile import load_spec
from lassosat.trace import parse_history, render_history


def _cfg(data_dir, out_dir, name, **kw):
    return RunConfig(spec_path=str(data_dir / name), out_dir=out_dir, **kw)


def test_bsc_lamp_writes_all_three_files(data_dir, out_dir):
    report = run(_cfg(data_dir, out_dir, "lamp.zot"))
    assert report.verdict == "SAT"
    assert report.exit_code == 0
    out = Path(out_dir)
    assert (out / "output.cnf.txt").exists()
    assert (out / "output.sat.txt").exists()
    hist = (out / "output.hist.txt").read_text()
    assert hist == report.history_text
    assert "**LOOP**" in hist and "**POOL**" in hist
    # the written history parses back and the trace satisfies the spec
    parsed = parse_history(hist)
    assert parsed.loop_at == report.trace.loop_start
    doc = load_spec(data_dir / "lamp.zot")
    problem = build_problem(doc, 10, "bi", "bsc")
    assert check_trace_against_root(problem, report.trace)


def test_unsat_leaves_empty_history(data_dir, out_dir, tmp_path):
    spec = tmp_path / "impossible.zot"
    spec.write_text("(declare p)\n(property (&& (-P- p) (!! (-P- p))))\n(bound 3)\n")
    report = run(RunConfig(spec_path=str(spec), out_dir=out_dir))
    assert report.verdict == "UNSAT"
    assert report.exit_code == 1
    assert (Path(out_dir) / "output.hist.txt").read_text() == ""


def test_bmc_forms_the_negated_property_root(data_dir, out_dir, tmp_path):
    # a system that can stay silent forever violates "eventually p"
    spec = tmp_path / "live.zot"
    spec.write_text(
        "(declare p)\n(init (!! (-P- p)))\n"
        "(trans (-> (-P- p) (next (-P- p))))\n"
        "(property (somf_i (-P- p)))\n"
    )
    report = run(RunConfig(spec_path=str(spec), out_dir=out_dir,
                           mode="bmc", bound=4, engine="mono"))
    assert report.verdict == "SAT"  # counterexample found
    doc = load_spec(spec)
    problem = build_problem(doc, 4, "mono", "bmc")
    # the decoded counterexample satisfies init and falsifies the property
    assert check_trace_against_root(problem, report.trace)
    from lassosat.desugar import desugar

    prop = desugar(doc.property, doc.declarations)
    assert eval_lasso(report.trace, prop, 1) is False


def test_bmc_requires_transitions(data_dir, out_dir, tmp_path):
    spec = tmp_path / "notrans.zot"
    spec.write_text("(declare p)\n(init (-P- p))\n(property (-P- p))\n")
    with pytest.raises(SpecFormatError, match="trans"):
        run(RunConfig(spec_path=str(spec), out_dir=out_dir, mode="bmc", bound=3))


def _lamp_with_history(data_dir, tmp_path, section):
    """lamp.zot with a (history ...) section appended."""
    spec = tmp_path / "lamp_history.zot"
    spec.write_text((data_dir / "lamp.zot").read_text() + f"(history {section})\n")
    return spec


def test_hcc_contradictory_history_is_unsat(data_dir, out_dir, tmp_path):
    both = tmp_path / "bad.txt"
    both.write_text("------ time 2 ------\n  ON\n  L\n------ time 3 ------\n  !L\n  ON\n")
    late = tmp_path / "late.txt"
    late.write_text("------ time 3 ------\n  !L\n  ON\n")
    # lamp spec forbids L to go off while ON was pressed yesterday; the
    # facts come from a file, from the spec's section, or half from each
    for section, hist in (
        (None, both),
        ("(at 2 on l) (at 3 (!! l) on)", None),
        ("(at 2 on l)", late),
    ):
        spec = data_dir / "lamp.zot" if section is None else _lamp_with_history(
            data_dir, tmp_path, section)
        report = run(RunConfig(spec_path=str(spec), out_dir=out_dir, mode="hcc",
                               history_path=hist and str(hist)))
        assert report.verdict == "UNSAT", (section, hist)
        assert (Path(out_dir) / "output.hist.txt").read_text() == ""
    # either half alone is satisfiable, so the merge took both
    early = _lamp_with_history(data_dir, tmp_path, "(at 2 on l)")
    for spec, hist in ((early, None), (data_dir / "lamp.zot", late)):
        report = run(RunConfig(spec_path=str(spec), out_dir=out_dir, mode="hcc",
                               history_path=hist and str(hist)))
        assert report.verdict == "SAT", (spec, hist)


def test_hcc_completes_partial_history(data_dir, out_dir, tmp_path):
    hist = tmp_path / "partial.txt"
    hist.write_text("------ time 1 ------\n  ON\n")
    section = _lamp_with_history(data_dir, tmp_path, "(at 1 on)")
    for config in (
        _cfg(data_dir, out_dir, "lamp.zot", mode="hcc", history_path=str(hist)),
        RunConfig(spec_path=str(section), out_dir=out_dir, mode="hcc"),
    ):
        report = run(config)
        assert report.verdict == "SAT"
        assert report.trace.holds(Atom("ON"), 1)
        assert report.trace.holds(Atom("L"), 2)  # forced by the lamp axiom


@pytest.mark.parametrize("engine", ["mono", "bi"])
def test_hcc_loop_marker_pins_the_loop_start_of_the_bound(data_dir, out_dir, tmp_path, engine):
    """lamp reads 5 instants back, so its encoding runs over the instants
    0..k+5 and its loop selectors over 6..k+5.  A **LOOP** marker at L
    selects L+5, and the model decodes and renders with loop start L."""
    doc = load_spec(data_dir / "lamp.zot")
    assert encode(build_problem(doc, 10, engine, "bsc")).varmap.lookback == 5
    for at in (1, 4, 10):
        hist = tmp_path / f"loop{at}.txt"
        hist.write_text(f"------ time {at} ------\n  **LOOP**\n")
        report = run(_cfg(data_dir, out_dir, "lamp.zot", engine=engine, mode="hcc",
                          history_path=str(hist)))
        assert report.verdict == "SAT", at
        assert report.trace.k == 10 and report.trace.loop_start == at
        assert parse_history(report.history_text).loop_at == at
        assert check_trace_against_root(build_problem(doc, 10, engine, "hcc"), report.trace)


METRIC3 = ("(declare a b)\n(property (alw (-> (-P- a) "
           "(&& (lasted (-P- b) 3) (withinf (-P- a) 3)))))\n")


def test_hcc_pool_marker_pins_the_pool_start_of_the_bound(out_dir, tmp_path):
    """The metric probe at t = 3 reads 2 instants ahead under a past node,
    so on the bi engine its rows run over the instants -2..k+2 and its pool
    selectors over 1..k in row index.  A **POOL** marker at P, also at or
    below T' = 2, selects the pool start P, and the model decodes and
    renders with pool start P."""
    spec = tmp_path / "metric3.zot"
    spec.write_text(METRIC3)
    doc = load_spec(spec)
    vm = encode(build_problem(doc, 6, "bi", "bsc")).varmap
    assert vm.lookahead == 2 and sorted(vm.pool_selectors) == list(range(1, 7))
    for at in (1, 2, 6):
        hist = tmp_path / f"pool{at}.txt"
        hist.write_text(f"------ time {at} ------\n  **POOL**\n")
        report = run(RunConfig(spec_path=str(spec), out_dir=out_dir, bound=6, engine="bi",
                               mode="hcc", history_path=str(hist)))
        assert report.verdict == "SAT", at
        assert report.trace.k == 6 and report.trace.pool_start == at
        block = report.history_text.split(f"------ time {at} ------\n")[1].split("------")[0]
        assert "  **POOL**\n" in block
        assert parse_history(report.history_text).pool_at == at
        assert check_trace_against_root(build_problem(doc, 6, "bi", "hcc"), report.trace)


def test_history_is_ignored_outside_hcc(data_dir, out_dir, tmp_path):
    hist = tmp_path / "partial.txt"
    hist.write_text("------ time 1 ------\n  ON\n")
    section = _lamp_with_history(data_dir, tmp_path, "(at 1 on)")
    for config in (
        _cfg(data_dir, out_dir, "lamp.zot", history_path=str(hist)),
        RunConfig(spec_path=str(section), out_dir=out_dir),
    ):
        with pytest.warns(UserWarning, match="ignored outside hcc mode"):
            report = run(config)
        assert report.mode == "bsc" and report.verdict == "SAT"


def test_hcc_rejects_a_fact_on_an_unknown_atom_from_a_section_or_a_file(
    data_dir, tmp_path, capsys
):
    # a (history ...) fact names an atom as a history file does: it does
    # not declare one, so a typo fails the run instead of adding a free atom
    section = _lamp_with_history(data_dir, tmp_path, "(at 0 typo)")
    typo = tmp_path / "typo.txt"
    typo.write_text("------ time 0 ------\n  TYPO\n")
    for spec, history in ((section, []), (data_dir / "lamp.zot", ["--history", str(typo)])):
        out = tmp_path / "out"
        code = main(["check", "--mode", "hcc", "--bound", "3", *history, "--out", str(out),
                     str(spec)])
        assert code == 2
        assert capsys.readouterr().err == "error: history atom TYPO is not registered\n"
        assert not out.exists()


def test_hcc_loop_marker_comes_once_and_agrees_with_the_section(data_dir, out_dir, tmp_path,
                                                                 capsys):
    # two **LOOP** lines, or a file's **LOOP** against the section's (loop
    # N), fail the run instead of keeping the last one in silence
    twice = tmp_path / "twice.txt"
    twice.write_text("------ time 1 ------\n  **LOOP**\n------ time 3 ------\n  **LOOP**\n")
    third = tmp_path / "third.txt"
    third.write_text("------ time 3 ------\n  **LOOP**\n")
    for section, hist, message in (
        (None, twice, "line 4: a second **LOOP** marker (the first is at time 1)"),
        ("(loop 2)", third, "contradictory **LOOP** markers: times 2 and 3"),
    ):
        spec = data_dir / "lamp.zot" if section is None else _lamp_with_history(
            data_dir, tmp_path, section)
        out = tmp_path / "out"
        code = main(["check", "--mode", "hcc", "--history", str(hist), "--out", str(out),
                     str(spec)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    agreeing = _lamp_with_history(data_dir, tmp_path, "(loop 3)")
    report = run(RunConfig(spec_path=str(agreeing), out_dir=out_dir, mode="hcc",
                           history_path=str(third)))
    assert report.verdict == "SAT" and report.trace.loop_start == 3


def test_hcc_needs_some_history(data_dir, out_dir):
    with pytest.raises(SpecFormatError, match="history"):
        run(_cfg(data_dir, out_dir, "lamp.zot", mode="hcc"))


def test_find_bound_results(data_dir, out_dir):
    assert find_bound(_cfg(data_dir, out_dir, "cycle3.zot", mode="find-bound")) == 3
    assert find_bound(_cfg(data_dir, out_dir, "stutter.zot", mode="find-bound")) == 1
    assert find_bound(_cfg(data_dir, out_dir, "free1.zot", mode="find-bound")) == 2
    # the config's default mode is bsc; find_bound needs no bound either way
    assert find_bound(_cfg(data_dir, out_dir, "cycle3.zot")) == 3


def test_find_bound_warns_that_history_input_is_ignored(data_dir, out_dir, tmp_path):
    # as every mode but hcc does, for a (history ...) section and a file
    section = tmp_path / "cycle3_history.zot"
    section.write_text((data_dir / "cycle3.zot").read_text() + "(history (at 0 (st= 0)))\n")
    history = str(data_dir / "lamp_history.txt")
    for spec, history_path in ((section, None), (data_dir / "cycle3.zot", history)):
        config = RunConfig(spec_path=str(spec), out_dir=out_dir, history_path=history_path)
        with pytest.warns(UserWarning, match="history input is ignored outside hcc mode"):
            assert find_bound(config) == 3


def test_find_bound_exhaustion_is_an_error(data_dir, out_dir, tmp_path):
    spec = tmp_path / "counter.zot"
    spec.write_text(
        "(define-item c (range 0 40))\n(init (c= 0))\n"
    )
    with pytest.raises(BoundSearchError, match="maximum bound"):
        find_bound(RunConfig(spec_path=str(spec), out_dir=out_dir,
                             mode="find-bound", max_bound=4))


def test_exhausted_find_bound_writes_the_path_of_its_last_model(data_dir, tmp_path, capsys):
    # the three files come from one run: lamp's lasso history is replaced
    # by the loop-free path the last solve found
    out = str(tmp_path / "out")
    assert main(["check", "--bound", "5", "--out", out, str(data_dir / "lamp.zot")]) == 0
    counter = tmp_path / "counter.zot"
    counter.write_text("(define-item c (range 0 40))\n(init (c= 0))\n")
    assert main(["find-bound", "--max-bound", "4", "--out", out, str(counter)]) == 2
    assert "still satisfiable at the maximum bound 4" in capsys.readouterr().err
    history = parse_history((Path(out) / "output.hist.txt").read_text())
    assert history.loop_at is None and history.pool_at is None
    values = [atom.args[0] for _, atom, _ in sorted(history.facts, key=lambda f: f[0])]
    assert values[0] == 0 and len(set(values)) == len(values) == 5
    _, verdict, _, states = _written(out)
    assert verdict == "SAT" and sorted(states) == list(range(5))


def test_find_bound_rejects_a_maximum_bound_below_one(data_dir, out_dir):
    for bad in (0, -3):
        with pytest.raises(BoundSearchError, match=f"at least 1, got {bad}"):
            find_bound(_cfg(data_dir, out_dir, "cycle3.zot", max_bound=bad))
    assert not Path(out_dir).exists()


def _written(out_dir):
    """The CNF of output.cnf.txt, the verdict and model of output.sat.txt,
    and the atom state of each instant that model gives."""
    text = (Path(out_dir) / "output.cnf.txt").read_text()
    inst = parse_dimacs(text)
    verdict, *rest = (Path(out_dir) / "output.sat.txt").read_text().splitlines()
    model = states = None
    if verdict == "SAT":
        lits = [int(tok) for tok in rest[0].split()]
        assert lits[-1] == 0 and [abs(lit) for lit in lits[:-1]] == list(
            range(1, inst.num_vars + 1)
        )
        model = [None] + [lit > 0 for lit in lits[:-1]]
        states = {}
        for line in text.splitlines():
            if line.startswith("c "):  # c <atom> <literal> <instant>
                _, lit, t = line.rsplit(" ", 2)
                states.setdefault(int(t), []).append(model[int(lit)])
    return inst, verdict, model, states


def test_find_bound_writes_the_files_of_the_last_k_once(
    data_dir, tmp_path, monkeypatch
):
    """The embedded path leaves one CNF write, for the clauses and the
    answer of the last k solved: the bound found, or max_bound when none
    is.  A loop-free run at that k adds its own distinctness pairs, so its
    files differ, but not its verdict."""
    emitted = []
    real_emit = pipeline.emit_dimacs
    monkeypatch.setattr(
        pipeline, "emit_dimacs", lambda *a, **kw: emitted.append(1) or real_emit(*a, **kw)
    )
    counter = tmp_path / "counter.zot"
    counter.write_text("(define-item c (range 0 40))\n(init (c= 0))\n")
    for spec, max_bound, last_k in ((data_dir / "cycle3.zot", 50, 3), (counter, 4, 4)):
        searched, single = tmp_path / f"fb-{last_k}", tmp_path / f"lf-{last_k}"
        emitted.clear()
        cfg = RunConfig(spec_path=str(spec), out_dir=str(searched), max_bound=max_bound)
        if last_k < max_bound:
            assert find_bound(cfg) == last_k
        else:
            with pytest.raises(BoundSearchError):
                find_bound(cfg)
        assert len(emitted) == 1
        inst, verdict, model, states = _written(searched)
        assert verdict == ("UNSAT" if last_k < max_bound else "SAT")
        # the written clauses alone give the written answer
        assert solve_embedded(inst).verdict == verdict
        if verdict == "SAT":
            # the exhausted search's model: a loop-free path of last_k steps
            assert check_model(inst, model)
            assert sorted(states) == list(range(last_k + 1))
            assert len({tuple(state) for state in states.values()}) == last_k + 1
        report = run(RunConfig(spec_path=str(spec), out_dir=str(single), mode="loop-free",
                               bound=last_k))
        assert report.verdict == verdict


# find_bound on an 8-state counter (the shape of perfbench's cycle16): its
# solver calls, their summed search counters and the sha256 of its files
COUNTER8_CALLS = 26
COUNTER8_STATS = {"conflicts": 2, "decisions": 189, "propagations": 869, "restarts": 0,
                  "learnts": 0, "learnt_lits": 1, "minimized": 0}
COUNTER8_FILES = {
    "output.cnf.txt": "372761d472d0d1152cd745f7fa4d511b098bc2e3b9c43fac9077af45217226ce",
    "output.sat.txt": "8e47e39240b5b347f444074f97e7ab4b4c11d3f534469b5cb23f4b6d2f7390df",
}


def test_find_bound_model_checks_stay_linear_on_the_same_search(tmp_path, monkeypatch):
    """The live solver checks each model against the clauses no level-0
    literal certifies, so over the search the model checks scan at most
    twice the final clause count (every given clause at every call would
    be quadratic in k); the search and the files are as pinned."""
    n = 8
    steps = " ".join(f"(-> (st= {i}) (next (st= {(i + 1) % n})))" for i in range(n))
    spec = tmp_path / "counter8.zot"
    spec.write_text(f"(define-item st ({' '.join(map(str, range(n)))}))\n(declare p)\n"
                    f"(init (st= 0))\n(trans (&& {steps}))\n")
    scanned, calls, stats = [], [], Counter()
    real_check, real_solve = sat_embedded.check_model, pipeline.solve_embedded
    monkeypatch.setattr(sat_embedded, "check_model",
                        lambda inst, model: scanned.append(len(inst.clauses))
                        or real_check(inst, model))

    def solve(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        calls.append(result.verdict)
        stats.update(result.stats)
        return result

    monkeypatch.setattr(pipeline, "solve_embedded", solve)
    out = tmp_path / "out"
    assert find_bound(RunConfig(spec_path=str(spec), out_dir=str(out))) == 2 * n
    assert (len(calls), dict(stats)) == (COUNTER8_CALLS, COUNTER8_STATS)
    for name, digest in COUNTER8_FILES.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    written = parse_dimacs((out / "output.cnf.txt").read_text())
    assert len(scanned) == calls.count("SAT") == len(calls) - 1  # one check per model
    assert sum(scanned) <= 2 * len(written.clauses)


def test_written_headers_count_the_distinctness_gates(data_dir, tmp_path):
    """The distinctness pairs take gate ids after encode returns: the
    headers of a loop-free run's CNF and of find_bound's count them."""
    for spec, k, mode in (("cycle3.zot", 3, "loop-free"), ("lamp.zot", 3, "loop-free"),
                          ("cycle3.zot", 3, "find-bound")):
        out = tmp_path / f"{spec}-{mode}"
        config = RunConfig(spec_path=str(data_dir / spec), out_dir=str(out), mode=mode,
                           bound=k, engine="mono")
        report = run(config)
        assert report.k == k
        inst = _written(out)[0]
        bare = encode(build_problem(load_spec(data_dir / spec), k, "mono", mode)).cnf
        assert inst.num_vars > bare.num_vars, spec  # some pair took an iff gate
        assert max(abs(lit) for clause in inst.clauses for lit in clause) <= inst.num_vars
        assert (report.num_vars, report.num_clauses) == (inst.num_vars, len(inst.clauses))


def test_solve_window_calls_share_one_time_limit(data_dir):
    # cycle3 at k = 3: the first model repeats a state, the second solve is
    # UNSAT, and it gets what the first left of the limit
    encoded = encode(build_problem(load_spec(data_dir / "cycle3.zot"), 3, "mono", "loop-free"))
    inner, limits = window_solver(), []

    def solve(enc, timeout_s):
        limits.append(timeout_s)
        time.sleep(0.05)
        return inner(enc, timeout_s)

    assert solve_window(encoded, solve, timeout_s=30).verdict == "UNSAT"
    assert len(limits) == 2 and 30 >= limits[0] > limits[1] + 0.04


def test_loop_free_mode_verdict_texts(data_dir, out_dir, tmp_path):
    # the mode comes from the run's config, or from a (loop-free) section
    # that turns the default bsc mode into loop-free
    section = tmp_path / "cycle3_loop_free.zot"
    section.write_text((data_dir / "cycle3.zot").read_text() + "(loop-free)\n")
    for spec, mode in ((data_dir / "cycle3.zot", "loop-free"), (section, "bsc")):
        cfg = RunConfig(spec_path=str(spec), out_dir=out_dir, mode=mode, bound=2)
        report = run(cfg)
        assert report.mode == "loop-free"
        assert report.verdict == "SAT" and "not reached" in report.message
        report = run(replace(cfg, bound=3))
        assert report.verdict == "UNSAT" and "reached" in report.message


# bytes of output.hist.txt for cycle3.zot --loop-free --bound 2
CYCLE3_LOOP_FREE_K2 = (
    "------ time 0 ------\n  ST = 0\n\n"
    "------ time 1 ------\n  ST = 1\n\n"
    "------ time 2 ------\n  ST = 2\n\n"
    "------ end ------\n"
)


def test_cli_loop_free_sat_history_is_pinned(data_dir, out_dir, capsys):
    code = main([
        "check", "--loop-free", "--bound", "2", "--out", out_dir,
        str(data_dir / "cycle3.zot"),
    ])
    assert code == 0
    assert (Path(out_dir) / "output.hist.txt").read_bytes() == CYCLE3_LOOP_FREE_K2.encode()
    assert capsys.readouterr().out.endswith(CYCLE3_LOOP_FREE_K2)


def test_loop_free_model_decodes_to_a_trace_without_loop(data_dir, out_dir):
    report = run(_cfg(data_dir, out_dir, "cycle3.zot", mode="loop-free", bound=2))
    trace = report.trace
    assert trace.loop_start is None and trace.pool_start is None
    assert render_history(trace) == report.history_text == CYCLE3_LOOP_FREE_K2
    assert trace.holds(Atom("ST", (2,), "item"), 2)
    # the oracle evaluates lassos only
    with pytest.raises(EncodingError, match="loop-free"):
        LassoWord.from_trace(trace)


def test_cli_deep_next_nesting_is_satisfiable(tmp_path, out_dir, capsys):
    n = 3000
    spec = tmp_path / "deep.zot"
    spec.write_text(f"(declare a)\n(property {'(next ' * n}(-P- a){')' * n})\n")
    code = main(["check", "--bound", "5", "--out", out_dir, str(spec)])
    assert code == 0
    assert capsys.readouterr().out.startswith("SAT (k=5, engine=mono)")


def test_missing_bound_is_an_error(data_dir, out_dir):
    with pytest.raises(SpecFormatError, match="bound"):
        run(_cfg(data_dir, out_dir, "cycle3.zot"))


def test_unknown_solver_rejected(data_dir, out_dir):
    with pytest.raises(SpecFormatError, match="unknown solver"):
        run(_cfg(data_dir, out_dir, "lamp.zot", solver="brzozowski"))


def test_decoded_items_have_exactly_one_value_everywhere(data_dir, out_dir):
    report = run(_cfg(data_dir, out_dir, "mutex3_broken.zot",
                      mode="bmc", bound=12, engine="mono"))
    assert report.verdict == "SAT"
    trace = report.trace
    for t in range(13):
        turn_values = [v for v in (1, 2, 3)
                       if trace.holds(Atom("TURN", (v,), "item"), t)]
        assert len(turn_values) == 1, t
        for idx in (1, 2, 3):
            cell = [v for v in ("N", "T", "C")
                    if trace.holds(Atom("STATE", (idx, v), "array"), t)]
            assert len(cell) == 1, (idx, t)


def test_lamp_instance_size_regression(data_dir, out_dir):
    # frozen after the first verified build; guarded by the soundness suite
    report = run(_cfg(data_dir, out_dir, "lamp.zot"))
    assert (report.num_vars, report.num_clauses) == (422, 1696)


def test_mutex3_bmc_instance_size_regression(data_dir, out_dir):
    # one successor literal per (operand, copy) read at k, not one
    # selector-guarded row per loop position; aliases own no variable
    report = run(_cfg(data_dir, out_dir, "mutex3.zot", bound=10, engine="mono", mode="bmc"))
    assert report.verdict == "UNSAT"
    assert (report.num_vars, report.num_clauses) == (1167, 4421)


def test_lamp_is_satisfiable_on_mono_engine_too(data_dir, out_dir):
    report = run(_cfg(data_dir, out_dir, "lamp.zot", engine="mono"))
    assert report.verdict == "SAT"
    assert 1 <= report.trace.loop_start <= 10
    assert report.trace.pool_start is None
    assert "**LOOP**" in report.history_text


def test_determinism_of_reruns(data_dir, out_dir):
    first = run(_cfg(data_dir, out_dir, "lamp.zot"))
    second = run(_cfg(data_dir, out_dir, "lamp.zot"))
    assert first.verdict == second.verdict
    assert first.history_text == second.history_text


def test_cli_check_exit_codes(data_dir, out_dir, capsys):
    code = main(["check", "--out", out_dir, str(data_dir / "lamp.zot")])
    assert code == 0
    assert "SAT" in capsys.readouterr().out
    code = main([
        "check", "--bound", "3", "--mode", "bmc", "--engine", "mono",
        "--out", out_dir, str(data_dir / "mutex3.zot"),
    ])
    assert code == 1  # UNSAT: property holds


def test_cli_error_exit_code(tmp_path, capsys):
    code = main(["check", "--bound", "3", str(tmp_path / "missing.zot")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("(define-item c (1 2))\n(property (c= 5))(bound 3)\n",
     "(c= 5): value not in domain [1, 2] (line 2, column 11)"),
    ("(declare a)\n(property (-P- a))(bound 3)\n(trans (-P- a)\n  (futr (-P- a) x))\n",
     "futr: offset must be an integer literal, got 'X' (line 4, column 3)"),
])
def test_desugar_errors_are_located_at_their_section_formula(tmp_path, capsys, text, message):
    # desugaring runs after parsing, on formulas that keep no position: the
    # document keeps where each section's formula was read
    spec = tmp_path / "spec.zot"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main(["check", "--out", str(out), str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exc", [RuntimeError("boom"), RecursionError("deep")])
def test_cli_internal_failure_exits_2_not_1(monkeypatch, data_dir, out_dir, capsys, exc):
    def crash(config):
        raise exc

    monkeypatch.setattr("lassosat.cli.run", crash)
    code = main(["check", "--out", out_dir, str(data_dir / "lamp.zot")])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_cli_timeout_exits_2_not_1(data_dir, out_dir, capsys):
    # mutex3 BMC at k = 30 is UNSAT after hundreds of conflicts; the limit
    # runs out at the first check, so the run must not report UNSAT (1)
    code = main([
        "check", "--bound", "30", "--mode", "bmc", "--engine", "mono",
        "--timeout", "0.001", "--out", out_dir, str(data_dir / "mutex3.zot"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check timed out"), err


def test_cli_timeout_leaves_the_previous_runs_files(data_dir, out_dir, capsys):
    # the files are written after the last solve, so a run that times out
    # leaves all three as the run before it wrote them, none of its own
    assert main(["check", "--bound", "5", "--out", out_dir, str(data_dir / "lamp.zot")]) == 0
    names = ("output.cnf.txt", "output.sat.txt", "output.hist.txt")
    before = {name: (Path(out_dir) / name).read_bytes() for name in names}
    code = main([
        "check", "--bound", "30", "--mode", "bmc", "--engine", "mono",
        "--timeout", "0.001", "--out", out_dir, str(data_dir / "mutex3.zot"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: check timed out")
    assert {name: (Path(out_dir) / name).read_bytes() for name in names} == before


def test_cli_timeout_binds_on_a_short_search(data_dir, out_dir, capsys):
    # lamp bi at k = 40 is SAT after a few dozen conflicts, fewer than the
    # 256 between clock reads in the search; the limit runs from the solver
    # call, loading included, and is checked before the search starts
    code = main([
        "check", "--bound", "40", "--engine", "bi", "--timeout", "0.001",
        "--out", out_dir, str(data_dir / "lamp.zot"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: check timed out")


def test_cli_timeout_reaches_find_bound_and_must_be_positive(monkeypatch, data_dir, out_dir):
    limits = []

    def timed_out(config):
        limits.append(config.timeout_s)
        raise SolverTimeout("embedded solver exceeded 2.5 s")

    monkeypatch.setattr("lassosat.cli.run", timed_out)
    spec = str(data_dir / "cycle3.zot")
    assert main(["find-bound", "--timeout", "2.5", "--out", out_dir, spec]) == 2
    assert limits == [2.5]
    for bad in ("0", "-1", "soon"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--timeout", bad, "--out", out_dir, spec])
        assert exc.value.code == 2


def test_cli_max_bound_must_be_a_positive_int(data_dir, out_dir, capsys):
    spec = str(data_dir / "cycle3.zot")
    for bad in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["find-bound", "--max-bound", bad, "--out", out_dir, spec])
        assert exc.value.code == 2
        assert "--max-bound" in capsys.readouterr().err
    assert not Path(out_dir).exists()
    assert main(["find-bound", "--max-bound", "3", "--out", out_dir, spec]) == 0
    assert "completeness bound: 3" in capsys.readouterr().out


def test_cli_find_bound(data_dir, out_dir, capsys):
    code = main(["find-bound", "--out", out_dir, str(data_dir / "cycle3.zot")])
    assert code == 0
    assert "completeness bound: 3" in capsys.readouterr().out


def test_cli_loop_free_flag(data_dir, out_dir, capsys):
    code = main([
        "check", "--loop-free", "--bound", "3", "--out", out_dir,
        str(data_dir / "cycle3.zot"),
    ])
    assert code == 1


@pytest.mark.parametrize("mode", ["bmc", "hcc"])
def test_cli_loop_free_flag_rejects_another_mode(data_dir, out_dir, capsys, mode):
    # a loop-free bsc check would run in place of the mode asked for: bmc
    # would never negate the property, and UNSAT would read as "it holds"
    with pytest.raises(SystemExit) as exc:
        main([
            "check", "--mode", mode, "--loop-free", "--bound", "3", "--out", out_dir,
            str(data_dir / "mutex3.zot"),
        ])
    assert exc.value.code == 2
    assert "--loop-free: not allowed with argument --mode" in capsys.readouterr().err
    assert not Path(out_dir).exists()


@pytest.mark.parametrize("mode", ["bmc", "hcc"])
def test_loop_free_section_rejects_another_mode(data_dir, tmp_path, capsys, mode):
    # the spec-level twin of the flag: a (loop-free) section is never
    # dropped in silence, nor does a loop-free check replace the mode
    spec = tmp_path / "mutex3_loop_free.zot"
    spec.write_text((data_dir / "mutex3.zot").read_text() + "(loop-free)\n")
    out = tmp_path / "out"
    code = main([
        "check", "--mode", mode, "--bound", "3", "--engine", "mono", "--out", str(out),
        str(spec),
    ])
    assert code == 2
    assert f"(loop-free) section is not allowed in {mode} mode" in capsys.readouterr().err
    assert not out.exists()


def test_loop_free_runs_ignore_a_spec_engine_section_with_a_warning(data_dir, tmp_path, capsys):
    # lamp.zot has an (engine bi) section, and the loop-free encoding has
    # a mono form only: find-bound and --loop-free warn and run on mono
    lamp = str(data_dir / "lamp.zot")
    with pytest.warns(UserWarning, match=r"\(engine bi\) section is ignored: find-bound mode"):
        assert main(["find-bound", "--out", str(tmp_path / "fb"), lamp]) == 0
    assert "completeness bound: 6" in capsys.readouterr().out
    with pytest.warns(UserWarning, match=r"\(engine bi\) section is ignored: loop-free mode"):
        code = main(["check", "--loop-free", "--bound", "3", "--out", str(tmp_path / "lf"), lamp])
    assert code == 0
    assert capsys.readouterr().out.startswith("SAT (k=3, engine=mono)")


def test_loop_free_runs_reject_an_explicit_bi_engine(data_dir, tmp_path, capsys):
    lamp = str(data_dir / "lamp.zot")
    out = tmp_path / "out"
    code = main(["check", "--loop-free", "--engine", "bi", "--bound", "3", "--out", str(out), lamp])
    assert code == 2
    assert "loop-free mode is defined for the mono engine only" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SpecFormatError, match="find-bound mode is defined for the mono engine"):
        find_bound(RunConfig(spec_path=lamp, engine="bi", out_dir=str(out)))


def test_console_entry_point_runs(data_dir, out_dir):
    src = Path(pipeline.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "lassosat.cli", "check", "--out", out_dir,
         str(data_dir / "lamp.zot")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    seen = f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, seen
    assert "SAT" in proc.stdout, seen


def test_import_and_check_load_no_numpy(data_dir, out_dir):
    """lassosat has no runtime dependency: neither the import nor a check
    run loads numpy (every module loaded is named by -X importtime).  Nor do
    they load the modules a run with the embedded solver never uses: the
    oracle, the printer, the external-solver adapters and subprocess."""
    src = Path(pipeline.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    off_path = {"lassosat.oracle", "lassosat.sat_external", "lassosat.pretty", "subprocess"}
    for args in (["-c", "import lassosat"],
                 ["-m", "lassosat.cli", "check", "--out", out_dir, str(data_dir / "lamp.zot")],
                 ["-c", "import lassosat, lassosat.oracle"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]
        assert not [m for m in loaded if m.split(".")[0] == "numpy"], args
        if "lassosat.oracle" in args[-1]:
            # the scan sees the module numpy used to come from
            assert "lassosat.oracle" in loaded, args
        else:
            assert not off_path & set(loaded), args
