"""One pass over a workload's jobs, in a fresh interpreter.

perfbench/run.py starts this from the root of a checkout, one process per
pass, and reads the JSON object it prints as its last line of output:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        [--setup-only] [--seed-check] [--slopes]

The checkout's own `src/lassosat` is imported.  Each job is one call of
`lassosat.run` or `lassosat.find_bound`, timed from the spec file to the
verdict; the correctness gate runs after it, outside that time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibrate import kernel_seconds
from spans import Recorder, self_times
from workloads import (
    LAMP_HISTORY,
    SEED_CHECK,
    SLOPE_K,
    SLOPE_T,
    WORKLOADS,
    jobs_in_order,
    other_seed,
    spec_text,
)

CNF_FILE = "output.cnf.txt"  # the DIMACS file every run writes to its out dir


def _config(lassosat, job, spec_path, out_dir):
    return lassosat.RunConfig(
        spec_path=str(spec_path),
        bound=job.k,
        engine=job.engine,
        mode=job.mode,
        history_path=str(LAMP_HISTORY) if job.history else None,
        out_dir=str(out_dir),
    )


def _check(lassosat, job, spec_path, outcome):
    """None when the job's answer is right, else what is wrong with it."""
    if job.mode == "find-bound":
        return None if outcome == job.expect else f"bound {outcome}, expected {job.expect}"
    if outcome.verdict != job.expect:
        return f"verdict {outcome.verdict}, expected {job.expect}"
    if outcome.verdict != "SAT" or job.mode == "loop-free":
        return None
    trace = outcome.trace
    if trace is None:
        return "SAT without a trace"
    facts = lassosat.load_history(LAMP_HISTORY) if job.history else None
    problem = lassosat.pipeline.build_problem(
        lassosat.load_spec(spec_path), job.k, job.engine, job.mode, facts
    )
    if not lassosat.pipeline.check_trace_against_root(problem, trace):
        return "trace falsifies the root formula"
    for tr in problem.transitions:
        for t in range(trace.k + 1):
            if not lassosat.eval_lasso(trace, tr, t):
                return f"trace breaks a transition constraint at instant {t}"
    if facts is not None:
        for instant, atom, polarity in facts.facts:
            if trace.holds(atom, instant) != polarity:
                return f"trace contradicts the history fact {atom.display} at {instant}"
        if facts.loop_at is not None and trace.loop_start != facts.loop_at:
            return f"loop at {trace.loop_start}, the history pins {facts.loop_at}"
        if facts.pool_at is not None and trace.pool_start != facts.pool_at:
            return f"pool at {trace.pool_start}, the history pins {facts.pool_at}"
    return None


def run_job(lassosat, rec, job, job_id, spec_path, out_dir):
    config = _config(lassosat, job, spec_path, out_dir)
    outcome = error = None
    with rec.job(job_id) as counts:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if job.mode == "find-bound":
                outcome = lassosat.find_bound(config)
            else:
                outcome = lassosat.run(config)
        except Exception:
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    t0 = time.perf_counter()
    if error is None and not (counts["encode_calls"] and counts["solve_calls"]):
        error = (
            "no encode or solve call reached the layer wrappers; "
            "the pipeline no longer calls its layers through module globals"
        )
    if error is None:
        try:
            error = _check(lassosat, job, spec_path, outcome)
        except Exception:
            error = traceback.format_exc()
    oracle_s = time.perf_counter() - t0
    if error is not None:
        print(f"job {job.name} failed: {error}", file=sys.stderr)

    found = outcome if job.mode == "find-bound" else None
    return {
        "job": job.name,
        "k": found if found is not None else job.k,
        "t": job.t,
        "engine": job.engine,
        "mode": job.mode,
        "verdict": "UNSAT" if found is not None else getattr(outcome, "verdict", None),
        "bound": found,
        "ok": error is None,
        "wall_s": wall,
        "cpu_s": cpu,
        "oracle_s": oracle_s,
        **counts,
    }


def _attach_self_times(rows, spans):
    for row in rows:
        row["self_s"] = {}
        row["max_solve_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, job_id = span
        row = rows[job_id]
        row["self_s"][name] = row["self_s"].get(name, 0.0) + own
        if name == "sat_embedded.solve":
            row["max_solve_s"] = max(row["max_solve_s"], end - start)


def seed_check(lassosat, job, seed, tmp):
    """Run `job` under `seed` and under the next seed that reorders its spec."""
    seeds = (seed, other_seed(job.spec, seed))
    seen = []
    for s in seeds:
        out = tmp / f"seed-check-{s}"
        out.mkdir()
        spec = out / "spec.zot"
        spec.write_text(spec_text(job.spec, s), encoding="utf-8")
        report = lassosat.run(_config(lassosat, job, spec, out))
        lines = (out / CNF_FILE).read_text(encoding="utf-8").splitlines()
        clauses = [line for line in lines if not line.startswith("c")]
        seen.append((report.verdict, report.num_clauses, report.num_vars, clauses))
    (v1, c1, n1, body1), (v2, c2, n2, body2) = seen
    problems = []
    if not v1 == v2 == job.expect:
        problems.append(f"verdicts {v1}/{v2}, expected {job.expect}")
    if (c1, n1) != (c2, n2):
        problems.append(f"sizes {c1}/{n1} and {c2}/{n2} clauses/vars differ")
    if body1 == body2:
        problems.append("the DIMACS clauses are identical")
    return {"job": job.name, "seeds": list(seeds), "ok": not problems, "detail": "; ".join(problems)}


def slope_clauses(lassosat, seed, tmp, skip):
    """Clause counts of the slope probes this workload does not run itself."""
    out = {}
    for job in SLOPE_K + SLOPE_T:
        if job.name in skip:
            continue
        spec = tmp / f"slope-{job.name}.zot"
        spec.write_text(spec_text(job.spec, seed), encoding="utf-8")
        doc = lassosat.load_spec(spec)
        problem = lassosat.build_problem(doc, job.k, job.engine, job.mode)
        out[job.name] = len(lassosat.to_cnf(lassosat.encode(problem)).clauses)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed-check", action="store_true")
    ap.add_argument("--slopes", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lassosat

    if src not in Path(lassosat.__file__).resolve().parents:
        print(f"imported {lassosat.__file__}, not the checkout's src/lassosat", file=sys.stderr)
        return 2

    tmp_base = root / ".bench_runs" / "tmp"
    tmp_base.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_base))
    try:
        jobs = jobs_in_order(args.workload, args.seed)
        spec_paths = {}
        for key in sorted({job.spec for job in jobs}):
            spec_paths[key] = tmp / f"{key}.zot"
            spec_paths[key].write_text(spec_text(key, args.seed), encoding="utf-8")
        result = {"ready": time.monotonic(), "kernel_s": [kernel_seconds()]}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        rec = Recorder(lassosat.pipeline, timed=bool(args.trace))
        kernels = result["kernel_s"]
        rows = []
        for i, job in enumerate(jobs):
            row = run_job(lassosat, rec, job, i, spec_paths[job.spec], tmp / job.name)
            kernels.append(kernel_seconds())
            row["kernel_s"] = (kernels[-2] + kernels[-1]) / 2  # machine speed around the job
            rows.append(row)
        if args.trace:
            _attach_self_times(rows, rec.spans)
        result["rows"] = rows
        result["spans"] = rec.spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra_start = time.perf_counter()
        if args.seed_check:
            job = SEED_CHECK[args.workload]
            try:
                result["seed_check"] = seed_check(lassosat, job, args.seed, tmp)
            except Exception:
                detail = traceback.format_exc()
                result["seed_check"] = {"job": job.name, "ok": False, "detail": detail}
            if not result["seed_check"]["ok"]:
                print(f"seed check failed: {result['seed_check']['detail']}", file=sys.stderr)
        if args.slopes:
            result["slope_clauses"] = slope_clauses(
                lassosat, args.seed, tmp, {job.name for job in jobs}
            )
        result["extra_s"] = time.perf_counter() - extra_start
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:  # another pass's directory, or already gone
            pass


if __name__ == "__main__":
    sys.exit(main())
