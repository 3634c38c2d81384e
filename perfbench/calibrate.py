"""A fixed pure-Python kernel that measures how fast the machine runs now.

The benchmark is meant for shared machines, where the same job can run at
speeds up to 1.7 times apart in phases that last minutes and slow CPU time
as much as wall time.  The kernel runs after set-up and after every job,
and each job's time is scaled by REF_S over the mean kernel time just
before and after it: reference seconds, the seconds on a machine where the
kernel takes REF_S.  A phase slows the job and the kernel alike, and
cancels out of the ratio.

The kernel does what the pipeline spends its time on: watch-list walks over
integer clauses, as in the solver, and building and hashing shared tuple
trees, as in the encoder and the CNF builder.  Garbage collection is off
while it runs, so the objects the jobs left on the heap cannot change its
time.
"""

from __future__ import annotations

import gc
import random
import time

REF_S = 0.1  # kernel seconds at the reference speed


def _clauses(rng, n_vars, n_clauses):
    return [
        [rng.choice((-1, 1)) * rng.randint(1, n_vars) for _ in range(3)]
        for _ in range(n_clauses)
    ]


def _propagate(rng, clauses, n_vars, rounds):
    watch = {}
    for ci, clause in enumerate(clauses):
        for lit in clause[:2]:
            watch.setdefault(lit, []).append(ci)
    open_lits = 0
    for _ in range(rounds):
        assign = {}
        order = list(range(1, n_vars + 1))
        rng.shuffle(order)
        for v in order[: n_vars // 2]:
            lit = v if rng.random() < 0.5 else -v
            assign[v] = lit > 0
            for ci in watch.get(-lit, ()):
                clause = clauses[ci]
                if not any(assign.get(abs(x)) == (x > 0) for x in clause):
                    open_lits += sum(1 for x in clause if abs(x) not in assign)
    return open_lits


def _trees(count, depth):
    memo = {}

    def build(d, i):
        if d == 0:
            return ("v", i % 17)
        key = (d, i % 50)
        got = memo.get(key)
        if got is None:
            got = ("and", (build(d - 1, i * 3 + 1), build(d - 1, i * 7 + 2)))
            memo[key] = got
        return got

    return sum(hash(build(depth, i)) & 1 for i in range(count))


def kernel_seconds() -> float:
    """Wall seconds of one run of the kernel (deterministic work)."""
    rng = random.Random(7)
    clauses = _clauses(rng, 300, 1200)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            _propagate(rng, clauses, 300, 12)
            _trees(4000, 6)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
