#!/usr/bin/env python3
"""Bounded model checking: three-process mutual exclusion.

The model is operational: an array `state` of three process states over
{N, T, C} plus a `turn` variable, constrained by or-case transitions that
must hold at every instant.  The property is a liveness condition (whoever
holds the turn eventually loses it).  BMC conjoins the initialization
through the yesterday idiom with the negated property, so UNSAT means the
property holds over every periodic behavior within the bound.  The demo
exits non-zero if a verdict or the counterexample is not what it prints.

Run from the repository root:  python demos/02_model_checking.py
"""

import sys
import tempfile
from pathlib import Path

from lassosat import RunConfig, eval_lasso, parse_history, run
from lassosat.desugar import desugar
from lassosat.specfile import load_spec

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "tests" / "data" / "mutex3.zot"
BROKEN = HERE.parent / "tests" / "data" / "mutex3_broken.zot"


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"demo check failed: {what}")


def main(workdir):
    report = run(RunConfig(spec_path=str(SPEC), mode="bmc", bound=30,
                           engine="mono", out_dir=workdir))
    print(f"mutex3, k=30: {report.verdict} -> {report.message}")
    expect(report.verdict == "UNSAT", f"mutex3 verdict {report.verdict}, expected UNSAT")

    # deleting the turn check from the T -> C transition breaks mutual
    # exclusion; BMC then produces a counterexample trace
    report = run(RunConfig(spec_path=str(BROKEN), mode="bmc", bound=30,
                           engine="mono", out_dir=workdir))
    print(f"broken variant:  {report.verdict} -> {report.message}")
    expect(report.verdict == "SAT", f"broken verdict {report.verdict}, expected SAT")
    trace = report.trace

    doc = load_spec(BROKEN)
    prop = desugar(doc.property, doc.declarations)
    falsified = not eval_lasso(trace, prop, 1)
    print(f"counterexample falsifies the property: {falsified}")
    expect(falsified, "the oracle says the counterexample satisfies the property")
    expect(1 <= trace.loop_start <= 30
           and parse_history(report.history_text).loop_at == trace.loop_start,
           "the **LOOP** marker is not at the decoded loop start")
    for tr in doc.transitions:
        step = desugar(tr, doc.declarations)
        expect(all(eval_lasso(trace, step, t) for t in range(31)),
               "the counterexample breaks a transition")
    print()
    print("first instants of the counterexample:")
    for line in report.history_text.splitlines():
        print(line)
        if line.startswith("------ time 6"):
            print("  ...")
            break


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="mutex3-") as tmp:
        main(tmp)
