#!/usr/bin/env python3
"""Randomized exactness hunt: encoder verdict vs brute-force enumeration.

Draws random sugared formulas (every metric-operator variant family in the pool),
desugars them, and compares the encoder+embedded-solver verdict against
exhaustive (valuation x loop, x pool on the bi engine) enumeration decided by
the trace oracle.  Each formula draws a random core transition and its
engine: mono, asserted at instant 1, bi, asserted at instant 0, both
decided against the root and the transition at every instant of the word,
or loop-free: mono, decided by enumerating the finite words of pairwise
distinct states.  Every
draw at bound K is solved as one encoding at K, and as one encoding grown
over k = 2..K (loop-free: 1..K) on one live solver, each k under the
assumption E_k; a loop-free window adds the distinctness of two instants
only when a model repeats a state (`pipeline.solve_window`).
Any mismatch is printed with a replay recipe, and the exit status is 1 when
there is any mismatch or unsound verdict.

Usage: python scripts/exactness_hunt.py [COUNT] [SEED]
"""

import random
import sys
import time
from dataclasses import replace
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
from lassosat.formula import And, FalseF, Release, Trigger, Yesterday  # noqa: E402
from lassosat.oracle import eval_lasso  # noqa: E402
from lassosat.pipeline import solve_window, window_solver  # noqa: E402
from lassosat.pretty import formula_text  # noqa: E402
from lassosat.sat_embedded import solve_embedded  # noqa: E402
from lassosat.trace import decode  # noqa: E402


def _window_mismatch(prob, enc, res):
    """None, or how the verdict `res` on the loop-free window `enc` of
    `prob` disagrees with the enumeration."""
    if res.verdict == "SAT":
        tr = decode(res, enc.varmap)
        word = [{a: tr.holds(a, t) for a in tr.atoms} for t in range(prob.k + 1)]
        return None if accepts_loop_free(prob, word) else "UNSOUND"
    return "INCOMPLETE" if brute_force_loop_free(prob)[0] else None


def _loop_free_mismatch(prob):
    """None, or (how, k, grown) for the first loop-free verdict that
    disagrees with the enumeration: of the window at prob.k solved on its
    own, then of each k = 1..prob.k of one window grown on one live solver,
    which keeps the distinctness pairs every earlier k added."""
    enc = encode(prob)
    found = _window_mismatch(prob, enc, solve_window(enc))
    if found:
        return found, prob.k, False
    solve, enc = window_solver(), None
    for k in range(1, prob.k + 1):
        at_k = replace(prob, k=k)
        enc = encode(at_k, enc)
        found = _window_mismatch(at_k, enc, solve_window(enc, solve))
        if found:
            return found, k, True
    return None


def _reference(prob):
    """The formula that a lasso problem's models satisfy at its assertion
    instant: the root, and each transition at every instant of the word (G
    from instant 0 on mono, G and H on the bi engine)."""
    every = []
    for tr in prob.transitions:
        if prob.engine == "mono":
            every.append(Yesterday(Release(FalseF(), tr)))
        else:
            every += [Release(FalseF(), tr), Trigger(FalseF(), tr)]
    return And((prob.root, *every)) if every else prob.root


def _lasso_verdict(core, engine, pos, enc, res):
    """None, or how the verdict `res` on the lasso encoding `enc` of `core`
    disagrees with the oracle (a SAT model) or the enumeration (UNSAT)."""
    k = enc.varmap.k
    if res.verdict == "SAT":
        return None if eval_lasso(decode(res, enc.varmap), core, pos) else "UNSOUND"
    # a verified witness would exist, so only UNSAT needs the enumeration
    return "INCOMPLETE" if brute_force_sat(core, k, engine, pos)[0] else None


def _lasso_mismatch(prob, pos):
    """None, or (how, k, grown) for the first lasso verdict that disagrees:
    of the encoding at prob.k solved on its own, then of each k = 2..prob.k
    of one encoding grown on one live solver."""
    ref = _reference(prob)
    enc = encode(prob)
    found = _lasso_verdict(ref, prob.engine, pos, enc, solve_embedded(to_cnf(enc)))
    if found:
        return found, prob.k, False
    solve, enc = window_solver(), None
    for k in range(2, prob.k + 1):
        enc = encode(replace(prob, k=k), enc)
        found = _lasso_verdict(ref, prob.engine, pos, enc, solve(enc, None))
        if found:
            return found, k, True
    return None


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
        trans = random_core(rng, rng.randint(1, 2), ("P", "Q", "R"))
        if engine == "loop-free":
            k = rng.choice((2, 3))
            found = _loop_free_mismatch(CheckProblem(
                k=k, engine="mono", root=core, transitions=(trans,), loop_free=True
            ))
            if found:
                how, at, grown = found
                mism += how == "INCOMPLETE"
                unsound += how == "UNSOUND"
                print(f"[{n}] {how} k={at}{' grown' if grown else ''} loop-free "
                      f"{formula_text(f)} trans={formula_text(trans)}")
            continue
        pos = 1 if engine == "mono" else 0
        prob = CheckProblem(k=k, engine=engine, root=core, transitions=(trans,))
        found = _lasso_mismatch(prob, pos)
        if found:
            how, at, grown = found
            mism += how == "INCOMPLETE"
            unsound += how == "UNSOUND"
            print(f"[{n}] {how} k={at}{' grown' if grown else ''} {engine} "
                  f"sugared={formula_text(f)} trans={formula_text(trans)}")
            if how == "INCOMPLETE":
                ref = _reference(prob)
                wit = brute_force_sat(ref, at, engine, pos)[1]
                print(f"     witness={wit} trace={trace_from_index(ref, at, engine, wit)}")
        if n % 200 == 199:
            dt = time.time() - t0
            print(f"... {n + 1}/{count} checked, {mism} mismatches, "
                  f"{unsound} unsound, {dt:.0f}s", flush=True)
    print(f"DONE {count} formulas, {mism} exactness mismatches, {unsound} unsound")
    return 1 if mism or unsound else 0


if __name__ == "__main__":
    sys.exit(main())
