#!/usr/bin/env python3
"""Completeness: find the recurrence diameter with loop-free encodings.

The loop-free mode drops the loop machinery and instead demands that all
k+1 state vectors differ pairwise (each pair is added when a model repeats
a state, and the bound solved again).  UNSAT therefore means no loop-free
path of that length exists: the completeness bound is reached.  find_bound
iterates k = 1, 2, 3, ... until the first UNSAT.  The demo exits non-zero if
a bound or a verdict is not the expected one.

Run from the repository root:  python demos/04_completeness_bound.py
"""

import sys
import tempfile
from pathlib import Path

from lassosat import RunConfig, find_bound, run

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "tests" / "data"


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"demo check failed: {what}")


def main(workdir):
    for name, blurb, expected in (
        ("cycle3", "deterministic 3-state cycle", 3),
        ("stutter", "single stuttering state", 1),
        ("free1", "one unconstrained atom", 2),
    ):
        spec = DATA / f"{name}.zot"
        bound = find_bound(RunConfig(spec_path=str(spec), mode="find-bound",
                                     out_dir=workdir, max_bound=10))
        print(f"{blurb:32s} completeness bound = {bound}")
        expect(bound == expected, f"{name}: bound {bound}, expected {expected}")

    # a single loop-free query, by hand: SAT at k=2 (three distinct states
    # exist), UNSAT at k=3
    for k, expected in ((2, "SAT"), (3, "UNSAT")):
        report = run(RunConfig(spec_path=str(DATA / "cycle3.zot"),
                               mode="loop-free", bound=k, out_dir=workdir))
        print(f"cycle3 loop-free at k={k}: {report.verdict} -> {report.message}")
        expect(report.verdict == expected,
               f"cycle3 loop-free k={k}: {report.verdict}, expected {expected}")
        if report.trace is not None:
            states = {tuple(report.trace.true_atoms(t)) for t in range(k + 1)}
            expect(report.trace.loop_start is None and len(states) == k + 1,
                   "the loop-free witness repeats a state or has a loop")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="bounds-") as tmp:
        main(tmp)
