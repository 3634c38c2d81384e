#!/usr/bin/env python3
"""In-process timings of the encoder and the DIMACS writer.

For each problem of the digest's probe group (`encoding_digest.py`) and
mutex3 BMC on mono at k = 10, 20 and 30, prints the best of N runs of
`encode` (a fresh encoding) and of `emit_dimacs` (into memory), in seconds,
with the problem's variables and clauses, then the totals of each column.
Best-of-N times of one process leave out the start-up and solver time that
an end-to-end run adds, and most of the noise of a shared machine.

Usage: PYTHONPATH=src python scripts/encode_timing.py [N]   (default N = 9)
"""

import io
import sys
import time

from encoding_digest import ROOT, probe_cases

from lassosat.cnf import emit_dimacs, to_cnf
from lassosat.encoder import encode
from lassosat.pipeline import build_problem
from lassosat.specfile import load_spec


def cases():
    mutex3 = load_spec(str(ROOT / "tests" / "data" / "mutex3.zot"))
    return [*probe_cases(), *(
        (f"mutex3 mono bmc {k}", lambda k=k: build_problem(mutex3, k, "mono", "bmc"))
        for k in (10, 20, 30)
    )]


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
    print(f"{'problem':24s} {'vars':>7s} {'clauses':>8s} {'encode_s':>9s} {'emit_s':>8s}")
    sums = [0, 0, 0.0, 0.0]
    for name, make in cases():
        problem = make()
        inst = to_cnf(encode(problem))
        row = [inst.num_vars, len(inst.clauses),
               best(n, lambda: encode(problem)),
               best(n, lambda: emit_dimacs(inst, io.StringIO()))]
        sums = [a + b for a, b in zip(sums, row)]
        print(f"{name:24s} {row[0]:7d} {row[1]:8d} {row[2]:9.4f} {row[3]:8.4f}")
    print(f"{'total':24s} {sums[0]:7d} {sums[1]:8d} {sums[2]:9.4f} {sums[3]:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
