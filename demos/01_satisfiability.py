#!/usr/bin/env python3
"""Bounded satisfiability checking: the timed lamp.

A lamp with a 5-instant timeout: pressing `on` lights it from the next
instant; it stays lit for up to five instants unless `off` intervenes.
We ask for any ultimately periodic trace of length 10 that satisfies the
axiom on the bi-infinite time domain, then print the witness history.
The demo exits non-zero if the verdict, the loop markers or the oracle's
reading of the witness are not what it prints.

Run from the repository root:  python demos/01_satisfiability.py
"""

import sys
import tempfile
from pathlib import Path

from lassosat import RunConfig, build_problem, load_spec, parse_history, run
from lassosat.pipeline import check_trace_against_root

SPEC = """
(declare on off l)

(init (!! (|| (-P- on) (-P- off) (-P- l))))

(property
  (alw (&& (<-> (-P- l)
                (|| (yesterday (-P- on))
                    (-E- x (range 2 5)
                         (&& (past (-P- on) x)
                             (!! (withinp_ee (-P- off) x))))))
           (!! (&& (-P- on) (-P- off))))))

(bound 10)
(engine bi)
"""


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"demo check failed: {what}")


def main(workdir):
    spec_path = workdir / "lamp.zot"
    spec_path.write_text(SPEC)

    report = run(RunConfig(spec_path=str(spec_path), out_dir=str(workdir)))
    print(f"verdict: {report.verdict}  ({report.num_vars} variables, "
          f"{report.num_clauses} clauses)")
    print(f"artifacts (removed on exit): {workdir}/output.cnf.txt, output.sat.txt, "
          "output.hist.txt")
    print()
    print(report.history_text)

    # the decoded trace is an honest witness: the loop selector marks where
    # the periodic part begins, towards the future and towards the past
    trace = report.trace
    print(f"future loop starts at instant {trace.loop_start}, "
          f"past loop at instant {trace.pool_start}")

    expect(report.verdict == "SAT", f"verdict {report.verdict}, expected SAT")
    expect((workdir / "output.hist.txt").read_text() == report.history_text,
           "output.hist.txt differs from the printed history")
    marks = parse_history(report.history_text)
    expect((marks.loop_at, marks.pool_at) == (trace.loop_start, trace.pool_start),
           "the **LOOP**/**POOL** markers are not at the decoded loop starts")
    problem = build_problem(load_spec(spec_path), 10, "bi", "bsc")
    expect(check_trace_against_root(problem, trace),
           "the oracle says the witness falsifies init or the property")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="lamp-") as tmp:
        main(Path(tmp))
