#!/usr/bin/env python3
"""mutex3 BMC solve time over six value orders of the state and turn lists.

The order of an item's or array's values numbers its atoms, so it steers
the embedded solver's search.  One order can hide a slower search, which
is why a change to the encoding or to the solver is judged on all six.
For each order this rewrites the value lists of `tests/data/mutex3.zot`,
and then encodes and solves mutex3 BMC (mono) at k = 10, 20 and 30.  All
of them are UNSAT.  It prints the conflicts, the propagations, the literals
kept in learnt clauses and the solve seconds (process time, one solve each)
per order and k, and the totals.

Usage: python scripts/mutex3_orders.py [K ...]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lassosat.cnf import to_cnf  # noqa: E402
from lassosat.encoder import encode  # noqa: E402
from lassosat.pipeline import build_problem  # noqa: E402
from lassosat.sat_embedded import solve_embedded  # noqa: E402
from lassosat.specfile import parse_spec_text  # noqa: E402

SPEC = ROOT / "tests" / "data" / "mutex3.zot"
# (state values, turn values); the first is the order of the spec file
ORDERS = (
    ("n t c", "1 2 3"),
    ("n c t", "2 3 1"),
    ("t n c", "3 1 2"),
    ("t c n", "1 3 2"),
    ("c n t", "2 1 3"),
    ("c t n", "3 2 1"),
)


def spec_text(states: str, turns: str) -> str:
    text = SPEC.read_text(encoding="utf-8")
    for old, new in (
        ("(define-array state (1 2 3) (n t c))", f"(define-array state (1 2 3) ({states}))"),
        ("(define-item turn (1 2 3))", f"(define-item turn ({turns}))"),
    ):
        if old not in text:
            raise SystemExit(f"{SPEC} no longer declares {old}")
        text = text.replace(old, new)
    return text


def main():
    ks = [int(a) for a in sys.argv[1:]] or [10, 20, 30]
    total_s = total_conflicts = total_propagations = total_learnt_lits = 0
    print("state | turn  "
          + "".join(f"  k={k}: conflicts  propagations  learnt_lits     s" for k in ks)
          + "  total s")
    for states, turns in ORDERS:
        doc = parse_spec_text(spec_text(states, turns))
        cells, order_s = [], 0.0
        for k in ks:
            inst = to_cnf(encode(build_problem(doc, k, "mono", "bmc")))
            started = time.process_time()
            result = solve_embedded(inst)
            seconds = time.process_time() - started
            if result.verdict != "UNSAT":
                raise SystemExit(f"mutex3 BMC k={k} ({states} | {turns}) is {result.verdict}")
            stats = result.stats
            cells.append(f"{stats['conflicts']:>19} {stats['propagations']:>13} "
                         f"{stats['learnt_lits']:>12} {seconds:5.2f}")
            order_s += seconds
            total_conflicts += stats["conflicts"]
            total_propagations += stats["propagations"]
            total_learnt_lits += stats["learnt_lits"]
        total_s += order_s
        print(f"{states} | {turns}" + "".join(cells) + f"  {order_s:7.2f}", flush=True)
    print(f"total: {total_conflicts} conflicts, {total_propagations} propagations, "
          f"{total_learnt_lits} learnt literals, {total_s:.2f} s")


if __name__ == "__main__":
    main()
