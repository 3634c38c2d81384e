"""lassosat benchmark: verdict workloads timed end to end, with a traced mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bmc-mutex|metric-lasso|bound-search
        [--seed N] [--seconds S] [--trace 0|1]

Each pass over the workload's jobs runs in a fresh, single-threaded
interpreter (perfbench/worker.py); passes run one after another until the
next one would overrun --seconds, and at least two run.  Passes alternate
between two PYTHONHASHSEED values, so the determinism check compares the
count metrics of every job across passes and across hash seeds.

Times are reported in reference seconds (see calibrate.py): each job's
measured time times REF_S over the time of a fixed kernel run just before
and after it, so a machine that runs slower for minutes does not move the
figures.

--trace 0 prints the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes, prints the per-layer metrics of the
traced ones and writes their spans and per-job rows to
.bench_runs/trace-WORKLOAD-seedN.json.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S
from spans import JOB_SPAN, LAYERS
from workloads import SEED_CHECK, SLOPE_K, SLOPE_T, WORKLOADS

DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
MIN_PASSES = 2
MIN_SETUPS = 5  # set-up samples per run; setup-only processes fill up to it
CHILD_LIMIT_S = 150  # every pass process of a run ends within this in total
WORKER = Path(__file__).resolve().parent / "worker.py"

# span name -> per-layer self-time metric; a job span's self time is the
# pipeline's own work between the layers
LAYER_METRICS = {span: f"{span}_s" for span in LAYERS.values()}
LAYER_METRICS[JOB_SPAN] = "pipeline.other_s"
COUNT_METRICS = {  # per-job count -> (per-layer metric summed over jobs, unit)
    "closure_size": ("encoder.closure_size", "count"),
    "copy_blocks": ("encoder.copy_blocks", "count"),
    "vars": ("encoder.vars", "count"),
    "tseitin_vars": ("cnf.tseitin_vars", "count"),
    "dimacs_bytes": ("cnf.dimacs_bytes", "bytes"),
    "solve_calls": ("sat_embedded.calls", "count"),
    "unsat_calls": ("sat_embedded.unsat_calls", "count"),
}
# what must repeat exactly for a job across passes and hash seeds
DETERMINISTIC = ("verdict", "bound", "clauses", "vars", "closure_size", "copy_blocks",
                 "tseitin_vars", "dimacs_bytes", "solve_calls", "unsat_calls")


class BenchError(Exception):
    pass


def spawn(args, hash_seed, deadline, extra=()):
    """Run one worker process; returns (its JSON result, set-up seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for another pass within {CHILD_LIMIT_S} s")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {args.workload} did not end within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration"] = time.monotonic() - started
    return result, ref_seconds(result["ready"] - started, result["kernel_s"][0])


def run_passes(args):
    """Pass processes until --seconds is used up; returns (passes, setups)."""
    rng = random.Random(f"{args.seed}:hash")
    hash_seeds = rng.sample(range(1, 2**32), 2)
    deadline = time.monotonic() + CHILD_LIMIT_S
    passes, setups = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 4 in (1, 2)  # U T T U U T T ...
        extra = ["--trace", str(int(traced))]
        if i == 0 and args.workload in SEED_CHECK:
            extra.append("--seed-check")
        if i == 0 and args.trace:
            extra.append("--slopes")
        result, setup = spawn(args, hash_seeds[i % 2], deadline, extra)
        result["traced"] = traced
        result["hash_seed"] = hash_seeds[i % 2]
        passes.append(result)
        setups.append(setup)
        longest = max(longest, result["duration"] - result["extra_s"])
        if len(passes) >= MIN_PASSES and time.monotonic() - start + longest > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, hash_seeds[0], deadline, ["--setup-only"])[1])
    return passes, setups


def ref_seconds(seconds, kernel_s):
    """Measured seconds in reference seconds, given the kernel time alongside."""
    return seconds * REF_S / kernel_s


def per_job_median(passes, key, scaled=True):
    """Sum over jobs of each job's median `key` across passes."""
    by_job = {}
    for p in passes:
        for row in p["rows"]:
            value = ref_seconds(row[key], row["kernel_s"]) if scaled else row[key]
            by_job.setdefault(row["job"], []).append(value)
    return sum(statistics.median(v) for v in by_job.values())


def check_determinism(passes):
    """Failure messages for jobs whose counts differ between passes."""
    first = {}
    problems = []
    for p in passes:
        for row in p["rows"]:
            counts = tuple(row[key] for key in DETERMINISTIC)
            seen = first.setdefault(row["job"], (counts, p["hash_seed"]))
            if seen[0] != counts:
                problems.append(
                    f"{row['job']}: counts {dict(zip(DETERMINISTIC, seen[0]))} under "
                    f"PYTHONHASHSEED={seen[1]}, {dict(zip(DETERMINISTIC, counts))} under "
                    f"PYTHONHASHSEED={p['hash_seed']}"
                )
    return problems


def slope(c1, c2, x1, x2):
    """Log-log slope; 0.0 when a probe job failed before emitting clauses."""
    if c1 <= 0 or c2 <= 0:
        return 0.0
    return math.log(c2 / c1) / math.log(x2 / x1)


def layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    med = statistics.median

    def pass_total(p, seconds):  # reference seconds summed over a pass's jobs
        return sum(ref_seconds(seconds(r), r["kernel_s"]) for r in p["rows"])

    out = {}
    for span, metric in LAYER_METRICS.items():
        out[metric] = (med(pass_total(p, lambda r: r["self_s"].get(span, 0.0))
                           for p in traced), "s")
    first_rows = passes[0]["rows"]
    for key, (metric, unit) in COUNT_METRICS.items():
        out[metric] = (sum(r[key] for r in first_rows), unit)
    out["sat_embedded.max_call_s"] = (
        med(max(ref_seconds(r["max_solve_s"], r["kernel_s"]) for r in p["rows"])
            for p in traced), "s")
    out["oracle.check_s"] = (med(pass_total(p, lambda r: r["oracle_s"]) for p in traced), "s")

    clauses = {r["job"]: r["clauses"] for r in first_rows}
    clauses.update(passes[0].get("slope_clauses", {}))
    (k1, k2), (t1, t2) = SLOPE_K, SLOPE_T
    out["cnf.clause_slope_k"] = (slope(clauses[k1.name], clauses[k2.name], k1.k, k2.k), "ratio")
    out["cnf.clause_slope_t"] = (slope(clauses[t1.name], clauses[t2.name], t1.t, t2.t), "ratio")

    def pass_wall(ps):
        return med(pass_total(p, lambda r: r["wall_s"]) for p in ps)

    out["bench.trace_overhead_s"] = (pass_wall(traced) - pass_wall(untraced), "s")
    return out


def write_trace(passes, metrics, args):
    path = Path.cwd() / ".bench_runs" / f"trace-{args.workload}-seed{args.seed}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "passes": [
            {
                "pass": i,
                "traced": p["traced"],
                "hash_seed": p["hash_seed"],
                "kernel_s": p["kernel_s"],
                "rows": p["rows"],
                "spans": [dict(zip(("name", "start", "end", "parent", "job"), s))
                          for s in p["spans"]],
            }
            for i, p in enumerate(passes)
        ],
    }
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "lassosat" / "__init__.py").is_file():
        print("run from the root of a lassosat checkout: src/lassosat is missing",
              file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rows = [r for p in passes for r in p["rows"]]
    checks = [p["seed_check"] for p in passes if "seed_check" in p]
    determinism = check_determinism(passes)
    for problem in determinism:
        print(f"determinism check failed: {problem}", file=sys.stderr)
    attempted = len(rows) + len(checks) + 1
    failed = sum(not r["ok"] for r in rows) + sum(not c["ok"] for c in checks) + bool(determinism)

    if args.trace:
        metrics = layer_metrics(passes)
        write_trace(passes, metrics, args)
    else:
        med = statistics.median
        print(
            f"{args.workload}: {len(passes)} passes; measured wall "
            f"{per_job_median(passes, 'wall_s', scaled=False):.3f} s with the kernel at "
            f"{med(k for p in passes for k in p['kernel_s']):.4f} s (reference {REF_S} s)",
            file=sys.stderr,
        )
        metrics = {
            "wall_s": (per_job_median(passes, "wall_s"), "s"),
            "cpu_s": (per_job_median(passes, "cpu_s"), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
            "cnf_clauses": (sum(r["clauses"] for r in passes[0]["rows"]), "count"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
