"""Embedded CDCL SAT solver.

A complete decision procedure: two-watched-literal propagation, first-UIP
conflict learning, VSIDS-style activities with decay, phase saving and Luby
restarts.  Completeness, not speed, is the contract; every SAT model is
checked against the full clause set before it is returned.

Representation (after MiniSat; Een & Sorensson, SAT 2003):

- Values and watch lists are indexed by the literal itself.  `lv` has
  2n + 1 slots, and Python's negative indexing gives `l` and `-l` distinct
  ones: assigning `l` sets `lv[l] = 1` and `lv[-l] = -1`, so reading a
  literal's value is one list access.  Level, reason and saved phase are
  indexed by variable.
- Each decision takes the unassigned variable with the highest activity,
  the lowest index on ties.  The activity heap holds at most one live entry
  per variable, `(-activity, var)`; `inheap[var]` says whether it has one.
  A bump makes the entry stale, and backtracking pushes a fresh one for
  every unassigned variable without one, so every unassigned variable is in
  the heap when a decision is made.  An activity rescale invalidates every
  entry and rebuilds the heap from the unassigned variables.

The result's `stats` count conflicts (the final level-0 conflict of an
UNSAT answer included), decisions, propagations (literals taken off the
trail by unit propagation), restarts and learnts (learnt clauses of two or
more literals added to the clause set).
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import List, Optional

from .cnf import CnfInstance, SatResult, check_model
from .errors import LassosatError, SolverTimeout

_LUBY_BASE = 128
_VAR_DECAY = 0.95


def _luby(i: int) -> int:
    # sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    k = 1
    while (1 << (k + 1)) <= i + 1:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
    return 1 << (k - 1)


def solve_embedded(
    inst: CnfInstance, timeout_s: Optional[float] = None, verify: bool = True
) -> SatResult:
    """Decide the instance; raises SolverTimeout when a limit is given and hit."""
    n = inst.num_vars
    conflicts = decisions = propagations = restarts = learnts = 0

    def result(verdict: str, model=None) -> SatResult:
        stats = {
            "conflicts": conflicts,
            "decisions": decisions,
            "propagations": propagations,
            "restarts": restarts,
            "learnts": learnts,
        }
        return SatResult(verdict, model, stats)

    clauses: List[List[int]] = []
    units: List[int] = []
    for clause in inst.clauses:
        if not clause:
            return result("UNSAT")
        if len(clause) == 1:
            units.append(clause[0])
        else:
            clauses.append(list(clause))

    lv = [0] * (2 * n + 1)  # by literal: 0 unknown, 1 true, -1 false
    level = [0] * (n + 1)
    reason = [-1] * (n + 1)
    saved = [False] * (n + 1)
    activity = [0.0] * (n + 1)
    seen = [False] * (n + 1)
    trail: List[int] = []
    trail_lim: List[int] = []
    qhead = 0
    var_inc = 1.0
    heap: List[tuple] = [(0.0, v) for v in range(1, n + 1)]
    inheap = [True] * (n + 1)

    watches: List[List[int]] = [[] for _ in range(2 * n + 1)]
    for ci, cl in enumerate(clauses):
        watches[cl[0]].append(ci)
        watches[cl[1]].append(ci)

    def enqueue(lit: int, cref: int) -> bool:
        v = lv[lit]
        if v:
            return v == 1
        lv[lit] = 1
        lv[-lit] = -1
        var = lit if lit > 0 else -lit
        level[var] = len(trail_lim)
        reason[var] = cref
        trail.append(lit)
        return True

    def propagate() -> int:
        nonlocal qhead, propagations
        lv_, level_, reason_, clauses_, watches_ = lv, level, reason, clauses, watches
        push = trail.append
        dl = len(trail_lim)
        q = start = qhead
        while q < len(trail):
            neg = -trail[q]
            q += 1
            ws = watches_[neg]
            j = moved = 0
            # compact ws in place: entries [0, j) stay, a moved watch leaves a gap
            for ci in ws:
                cl = clauses_[ci]
                first = cl[0]
                if first == neg:  # keep the false literal at position 1
                    first = cl[1]
                    cl[0] = first
                    cl[1] = neg
                fv = lv_[first]
                if fv == 1:
                    ws[j] = ci
                    j += 1
                    continue
                for idx in range(2, len(cl)):
                    other = cl[idx]
                    if lv_[other] != -1:
                        cl[1] = other
                        cl[idx] = neg
                        watches_[other].append(ci)
                        moved += 1
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if fv:  # first is false: conflict; keep the unvisited rest
                        del ws[j:j + moved]
                        qhead = q
                        propagations += q - start
                        return ci
                    lv_[first] = 1
                    lv_[-first] = -1
                    var = first if first > 0 else -first
                    level_[var] = dl
                    reason_[var] = ci
                    push(first)
            del ws[j:]
        qhead = q
        propagations += q - start
        return -1

    def rescale():
        nonlocal var_inc
        for v in range(1, n + 1):
            activity[v] *= 1e-100
        var_inc *= 1e-100
        # every heap entry now holds an old activity
        heap[:] = [(-activity[v], v) for v in range(1, n + 1) if not lv[v]]
        heapify(heap)
        for v in range(1, n + 1):
            inheap[v] = not lv[v]

    def analyze(confl: int):
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        p = 0
        idx = len(trail) - 1
        cur_level = len(trail_lim)
        cl = clauses[confl]
        while True:
            start = 1 if p else 0
            for q in cl[start:]:
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # bump; v is assigned, so backtracking re-enters it
                    activity[v] += var_inc
                    inheap[v] = False
                    if activity[v] > 1e100:
                        rescale()
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = abs(p)
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            cl = clauses[reason[v]]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        # watch a literal from the backtrack level at position 1
        max_i = 1
        for i in range(2, len(learnt)):
            if level[abs(learnt[i])] > level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[abs(learnt[1])]

    def backtrack(blevel: int):
        nonlocal qhead
        if len(trail_lim) <= blevel:
            return
        limit = trail_lim[blevel]
        for lit in trail[limit:]:
            lv[lit] = lv[-lit] = 0
            var = lit if lit > 0 else -lit
            saved[var] = lit > 0
            if not inheap[var]:
                heappush(heap, (-activity[var], var))
                inheap[var] = True
        del trail[limit:]
        del trail_lim[blevel:]
        qhead = len(trail)

    def pick_var() -> int:
        # every unassigned variable has a live entry, so the heap cannot run dry
        while True:
            act, var = heappop(heap)
            if -act != activity[var]:
                continue  # stale: the variable's live entry, if any, is another
            inheap[var] = False
            if not lv[var]:
                return var

    for u in units:
        if not enqueue(u, -1):
            return result("UNSAT")
    if propagate() >= 0:
        return result("UNSAT")

    restart_budget = _LUBY_BASE * _luby(0)
    started = time.monotonic()

    while True:
        confl = propagate()
        if confl >= 0:
            conflicts += 1
            if not trail_lim:
                return result("UNSAT")
            learnt, blevel = analyze(confl)
            backtrack(blevel)
            if len(learnt) == 1:
                if not enqueue(learnt[0], -1):
                    return result("UNSAT")
            else:
                clauses.append(learnt)
                ci = len(clauses) - 1
                watches[learnt[0]].append(ci)
                watches[learnt[1]].append(ci)
                enqueue(learnt[0], ci)
                learnts += 1
            var_inc /= _VAR_DECAY
            if conflicts % 256 == 0 and timeout_s is not None:
                if time.monotonic() - started > timeout_s:
                    raise SolverTimeout(
                        f"embedded solver exceeded {timeout_s} s "
                        f"after {conflicts} conflicts"
                    )
            if conflicts >= restart_budget:
                restarts += 1
                restart_budget = conflicts + _LUBY_BASE * _luby(restarts)
                backtrack(0)
        else:
            if len(trail) == n:
                model = [False] * (n + 1)
                for var in range(1, n + 1):
                    model[var] = lv[var] == 1
                if verify and not check_model(inst, model):
                    raise LassosatError("internal error: model fails clause check")
                return result("SAT", model)
            var = pick_var()
            decisions += 1
            trail_lim.append(len(trail))
            enqueue(var if saved[var] else -var, -1)
