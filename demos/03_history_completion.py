#!/usr/bin/env python3
"""History checking and completion.

A partial history pins a few facts at a few instants; the checker either
completes it into a full trace that satisfies the specification or reports
UNSAT (the output history is then empty).  Facts are written in the same
format the tool prints, with a `!` prefix for negative facts; atoms that
are not mentioned stay unconstrained.  The demo exits non-zero if a
verdict or the completed trace is not what it prints.

Run from the repository root:  python demos/03_history_completion.py
"""

import sys
import tempfile
from pathlib import Path

from lassosat import RunConfig, parse_history, run
from lassosat.formula import Atom

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "tests" / "data" / "lamp.zot"

PARTIAL = """\
------ time 1 ------
  ON

------ time 4 ------
  OFF
  !ON
"""

CONTRADICTORY = """\
------ time 2 ------
  ON

------ time 3 ------
  !L
"""


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"demo check failed: {what}")


def main(workdir):

    partial = workdir / "partial.txt"
    partial.write_text(PARTIAL)
    report = run(RunConfig(spec_path=str(SPEC), mode="hcc",
                           history_path=str(partial), out_dir=str(workdir)))
    print(f"partial history: {report.verdict}")
    print("completed trace (light must burn at 2 because ON was pressed at 1):")
    print(report.history_text)
    expect(report.verdict == "SAT", f"partial history verdict {report.verdict}, expected SAT")
    trace = report.trace
    for instant, atom, positive in parse_history(PARTIAL).facts:
        expect(trace.holds(atom, instant) == positive,
               f"the completion contradicts the fact {atom.display} at {instant}")
    expect(trace.holds(Atom("L"), 2), "the light is off at instant 2")

    # pressing ON at 2 forces the light at 3; pinning !L at 3 contradicts it
    bad = workdir / "contradictory.txt"
    bad.write_text(CONTRADICTORY)
    report = run(RunConfig(spec_path=str(SPEC), mode="hcc",
                           history_path=str(bad), out_dir=str(workdir)))
    print(f"contradictory history: {report.verdict} -> {report.message}")
    hist = (workdir / "output.hist.txt").read_text()
    print(f"output.hist.txt is empty: {hist == ''}")
    expect(report.verdict == "UNSAT" and hist == "",
           "the contradictory history is not UNSAT with an empty output.hist.txt")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="hcc-") as tmp:
        main(Path(tmp))
