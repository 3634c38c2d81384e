#!/usr/bin/env python3
"""In-process timings of the encoder and the DIMACS writer.

For each problem of the digest's probe group (`encoding_digest.py`),
the metric probe at t = 30 on mono and bi at k = 20, mutex3 BMC on mono at k = 10,
20 and 30, a 16-valued cycle counter (`CYCLE16`, the shape of perfbench's
bound-search) in a loop-free window grown one bound at a time from 1 to
32, as find-bound grows it (without the distinctness pairs), and in mono
BMC at k = 32, and two deep shift nests at the root at k = 5 (`next`^3000
on bi, `yesterday`^1000 on mono), prints the best of N runs of `encode` (a
fresh encoding, or the whole growth) and of `emit_dimacs` (into memory),
in seconds, with the
problem's variables, clauses, copy rows (the rows above the primary row,
loop and pool passes), look-back T (the instants the word runs beyond
the bound) and look-ahead T' (the instants it runs before instant 0),
then the totals of each column but T and T'.
Best-of-N times of one process leave out the start-up and solver time that
an end-to-end run adds, and most of the noise of a shared machine.

Usage: PYTHONPATH=src python scripts/encode_timing.py [N]   (default N = 9)
"""

import io
import sys
import time
from dataclasses import replace

from encoding_digest import METRIC_PROBE, ROOT, P, nest, probe_cases

from lassosat.cnf import emit_dimacs, to_cnf
from lassosat.encoder import CheckProblem, encode
from lassosat.formula import Next, Yesterday
from lassosat.pipeline import build_problem
from lassosat.specfile import load_spec, parse_spec_text

# a counter over 16 values in a fixed cycle and one free atom p: its longest
# loop-free path has 32 states; BMC checks it against a property that p
# breaks at the last value
CYCLE16 = (
    f"(define-item st ({' '.join(map(str, range(16)))}))\n(declare p)\n(init (st= 0))\n"
    f"(trans (&& {' '.join(f'(-> (st= {i}) (next (st= {(i + 1) % 16})))' for i in range(16))}))\n"
)
CYCLE16_PROPERTY = "(property (alw (!! (&& (st= 15) (-P- p)))))\n"


def encoding(problem):
    """A fresh encoding of `problem`; a loop-free window is grown one bound
    at a time from 1, as find-bound grows it."""
    if not problem.loop_free:
        return encode(problem)
    encoded = None
    for k in range(1, problem.k + 1):
        encoded = encode(replace(problem, k=k), encoded)
    return encoded


def cases():
    mutex3 = load_spec(str(ROOT / "tests" / "data" / "mutex3.zot"))
    metric30 = parse_spec_text(METRIC_PROBE.format(t=30))
    cycle16 = parse_spec_text(CYCLE16)
    cycle16_property = parse_spec_text(CYCLE16 + CYCLE16_PROPERTY)
    return [
        *probe_cases(),
        *((f"metric-t30 {engine} bsc 20", lambda engine=engine: build_problem(
            metric30, 20, engine, "bsc")) for engine in ("mono", "bi")),
        *((f"mutex3 mono bmc {k}", lambda k=k: build_problem(mutex3, k, "mono", "bmc"))
          for k in (10, 20, 30)),
        ("cycle16 loop-free grown 1..32", lambda: build_problem(cycle16, 32, "mono", "loop-free")),
        ("cycle16 mono bmc 32", lambda: build_problem(cycle16_property, 32, "mono", "bmc")),
        ("next3000 bi root 5", lambda: CheckProblem(k=5, engine="bi", root=nest(Next, 3000, P))),
        ("yesterday1000 mono root 5",
         lambda: CheckProblem(k=5, engine="mono", root=nest(Yesterday, 1000, P))),
    ]


def best(n: int, run) -> float:
    times = []
    for _ in range(n):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return min(times)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    if n < 1:
        print(f"error: N must be at least 1, got {n}", file=sys.stderr)
        return 2
    print(f"{'problem':40s} {'vars':>7s} {'clauses':>8s} {'copies':>6s} {'T':>3s}  T' "
          f"{'encode_s':>9s} {'emit_s':>8s}")
    sums = [0, 0, 0, 0.0, 0.0]
    for name, make in cases():
        problem = make()
        encoded = encoding(problem)
        inst, vm = to_cnf(encoded), encoded.varmap
        copies = sum(len(vm.rrows[f]) + len(vm.lrows[f]) - 2 for f in vm.closure)
        row = [inst.num_vars, len(inst.clauses), copies,
               best(n, lambda: encoding(problem)),
               best(n, lambda: emit_dimacs(inst, io.StringIO()))]
        sums = [a + b for a, b in zip(sums, row)]
        print(f"{name:40s} {row[0]:7d} {row[1]:8d} {row[2]:6d} {vm.lookback:3d} {vm.lookahead:3d} "
              f"{row[3]:9.4f} {row[4]:8.4f}")
    print(f"{'total':40s} {sums[0]:7d} {sums[1]:8d} {sums[2]:6d} {'':7s} "
          f"{sums[3]:9.4f} {sums[4]:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
