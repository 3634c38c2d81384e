#!/usr/bin/env python3
"""Randomized exactness hunt: encoder verdict vs brute-force enumeration.

Draws random sugared formulas (every metric-operator variant family in the pool),
desugars them, and compares the encoder+embedded-solver verdict against
exhaustive (valuation x loop, x pool on the bi engine) enumeration decided by
the trace oracle.  Each formula draws its engine: mono, asserted at instant 1,
bi, asserted at instant 0, or loop-free: mono with a random core transition,
decided by enumerating the finite words of pairwise distinct states.
Any mismatch is printed with a replay recipe, and the exit status is 1 when
there is any mismatch or unsound verdict.

Usage: python scripts/exactness_hunt.py [COUNT] [SEED]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from gen import random_core, random_sugared_capped  # noqa: E402
from brute import (  # noqa: E402
    accepts_loop_free,
    brute_force_loop_free,
    brute_force_sat,
    trace_from_index,
)

from lassosat.cnf import to_cnf  # noqa: E402
from lassosat.encoder import CheckProblem, encode  # noqa: E402
from lassosat.oracle import eval_lasso  # noqa: E402
from lassosat.pretty import formula_text  # noqa: E402
from lassosat.sat_embedded import solve_embedded  # noqa: E402
from lassosat.trace import decode  # noqa: E402


def _loop_free_mismatch(prob):
    """None, or how the loop-free verdict disagrees with the enumeration."""
    enc = encode(prob)
    res = solve_embedded(to_cnf(enc))
    if res.verdict == "SAT":
        tr = decode(res, enc.varmap)
        word = [{a: tr.holds(a, t) for a in tr.atoms} for t in range(prob.k + 1)]
        return None if accepts_loop_free(prob, word) else "UNSOUND"
    return "INCOMPLETE" if brute_force_loop_free(prob)[0] else None


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    rng = random.Random(seed)
    mism = 0
    unsound = 0
    t0 = time.time()
    for n in range(count):
        f, core = random_sugared_capped(rng, rng.randint(1, 4), ("P", "Q", "R"))
        k = rng.choice((3, 4))
        engine = rng.choice(("mono", "bi", "loop-free"))
        if engine == "loop-free":
            trans = random_core(rng, rng.randint(1, 2), ("P", "Q", "R"))
            k = rng.choice((2, 3))
            found = _loop_free_mismatch(CheckProblem(
                k=k, engine="mono", root=core, transitions=(trans,), loop_free=True
            ))
            if found:
                mism += found == "INCOMPLETE"
                unsound += found == "UNSOUND"
                print(f"[{n}] {found} k={k} loop-free {formula_text(f)} "
                      f"trans={formula_text(trans)}")
            continue
        pos = 1 if engine == "mono" else 0
        prob = CheckProblem(k=k, engine=engine, root=core)
        enc = encode(prob)
        res = solve_embedded(to_cnf(enc))
        if res.verdict == "SAT":
            tr = decode(res, enc.varmap)
            if not eval_lasso(tr, core, pos):
                unsound += 1
                print(f"[{n}] UNSOUND k={k} {engine} {formula_text(f)}")
                continue
            # a verified witness exists, so brute force would find one too
            continue
        bf, wit = brute_force_sat(core, k, engine, pos)
        if bf:
            mism += 1
            print(f"[{n}] INCOMPLETE k={k} {engine} sugared={formula_text(f)}")
            print(f"     witness={wit} trace={trace_from_index(core, k, engine, wit)}")
        if n % 200 == 199:
            dt = time.time() - t0
            print(f"... {n + 1}/{count} checked, {mism} mismatches, "
                  f"{unsound} unsound, {dt:.0f}s", flush=True)
    print(f"DONE {count} formulas, {mism} exactness mismatches, {unsound} unsound")
    return 1 if mism or unsound else 0


if __name__ == "__main__":
    sys.exit(main())
