"""Embedded CDCL SAT solver, one-shot or live.

A complete decision procedure: two-watched-literal propagation, first-UIP
conflict learning with recursive clause minimization, VSIDS-style
activities with decay, phase saving and Luby restarts.  Completeness, not
speed, is the contract; every SAT model is checked against every given
clause before it is returned (see the model check below).

Representation (after MiniSat; Een & Sorensson, SAT 2003):

- Values, implication lists and watch lists are indexed by the literal
  itself.  `lv` has 2n + 1 slots, and Python's negative indexing gives `l`
  and `-l` distinct ones: assigning `l` sets `lv[l] = 1` and `lv[-l] = -1`,
  so reading a literal's value is one list access.  Level, reason and saved
  phase are indexed by variable.  New variables are spliced in between the
  positive and the negative halves, so every existing literal keeps its
  slot.
- Binary clauses, most of them Tseitin definitions, are kept out of the
  watch lists.  `bins[l]` is a plain list holding the other literal of
  every binary clause over `l`, given or learnt, so `l` turning false
  implies each of them; `propagate` walks a literal's implication list
  before its watches.  A binary reason or conflict is the tuple
  `(implied, false literal)`.
- Longer clauses are watched on their first two literals.  Watch lists and
  `reason` hold the clause lists themselves, and `reason` is None for
  decisions, assumptions and units.  Every reason, tuple or list, keeps its
  implied literal at position 0, so `analyze` resolves on the rest.
- There are no blocking literals (Chu, Harwood & Stuckey, JSAT 2009).  In
  CPython a blocker check costs as much as the `cl[0]` read it saves: in a
  prototype, (clause, blocker) watch entries made the six mutex3 value
  orders of `scripts/mutex3_orders.py` 3% slower in total.
- Each learnt clause is minimized recursively (Sorensson & Biere, SAT 2009;
  MiniSat's ccmin mode 2).  A literal is dropped when the reasons behind it
  end in literals of the clause or at level 0; the search for such an end
  gives up at a decision, an assumption or a level none of the clause's
  literals has (one bit per level modulo 32, the abstract levels).
  Decisions and assumptions are never dropped.  The clause that remains is
  still derived by unit propagation from the given clauses and the clauses
  learnt before it (RUP).
- Each decision takes the unassigned variable with the highest activity,
  the lowest index on ties.  The activity heap holds at most one live entry
  per variable, `(-activity, var)`; `inheap[var]` says whether it has one.
  A bump makes the entry stale, and backtracking pushes a fresh one for
  every unassigned variable without one, so every unassigned variable is in
  the heap when a decision is made.  An activity rescale invalidates every
  entry and rebuilds the heap from the unassigned variables.

The live solver (`Solver`) follows MiniSat's incremental interface.  Clauses
are appended between searches, and each search runs under assumption
literals, which are decided first, one decision level each; an assumption
found false ends the search UNSAT for those assumptions only.  Every append
and every search starts from decision level 0, and the solver keeps its
level-0 trail, learnt clauses (they follow from the clauses alone, never
from the assumptions), activities and saved phases from call to call.  A
clause appended once level-0 assignments exist is simplified against them
first; a clause that is contradictory at level 0 makes every later search
UNSAT, and one shrunk to two literals joins the implication lists.
`Solver.clauses` lists the learnt clauses in the order they were learnt,
units included.  The one-shot `solve_embedded(inst)` is a fresh solver
given every clause at once, so it searches exactly as a solver without the
live interface would.  Cyclic garbage collection is paused while the solver
runs: its clause lists are many small containers, and a collection would
walk them all.

The model check of a live solver does not rescan, at every search, the
clauses that level-0 assignments already satisfy (MiniSat likewise sets
such clauses aside).  It keeps the given clauses in two parts.  When an
append finds a level-0 trail, each given clause, new or still pending,
that a true level-0 literal satisfies is certified by that literal: the
literal joins the certificates (`cert_pos` or `cert_neg`, once each), and
the clause leaves `pending`.  Every model must make every certificate
true, and it must satisfy every pending clause.  A certified clause
contains its certificate, and given clauses never change, so every model
returned satisfies every given clause, as with a check of all of them.  A
fresh one-shot solver has no trail when its clauses arrive, so its check
is one pass over the whole CNF.

The result's `stats` count, per search, conflicts (the final level-0
conflict of an UNSAT answer included), decisions (assumptions excluded),
propagations (literals taken off the trail by unit propagation), restarts,
learnts (learnt clauses of two or more literals added to the clause set),
learnt_lits (literals kept in learnt clauses, units included) and minimized
(literals that minimization removed from them).
"""

from __future__ import annotations

import gc
import time
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import neg
from typing import List, Optional, Sequence

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
    inst: CnfInstance,
    timeout_s: Optional[float] = None,
    assumptions: Sequence[int] = (),
    live: Optional["Solver"] = None,
) -> SatResult:
    """Decide the instance under the assumption literals.

    With `live`, the clauses of `inst` beyond those `live` already holds are
    appended to it first, so `inst.clauses` must extend the clauses it was
    given before.  Raises SolverTimeout when a limit is given and hit; the
    limit runs from this call, so loading the clauses counts toward it.
    """
    started = time.monotonic()
    if live is None:
        solver, clauses = Solver(), inst.clauses
    else:
        solver, clauses = live, inst.clauses[live.num_given:]
    collecting = gc.isenabled()
    gc.disable()
    try:
        solver.add_clauses(clauses, inst.num_vars)
        return solver.solve(assumptions, timeout_s, started)
    finally:
        if collecting:
            gc.enable()


class Solver:
    """A live CDCL solver: append clauses, then search under assumptions."""

    def __init__(self):
        self.n = 0
        self.ok = True  # False once the clauses alone are contradictory
        self.num_given = 0
        # the model check: the given clauses it scans, and the level-0
        # literals that satisfy the other given clauses (certificates),
        # positive and negative apart; `certified` marks their variables
        self.pending: Sequence[Sequence[int]] = []
        self.cert_pos: List[int] = []
        self.cert_neg: List[int] = []
        self.certified = bytearray(1)
        self.clauses: List[List[int]] = []  # learnt clauses, in the order learnt
        self.units: List[int] = []  # unit clauses not yet on the trail
        self.lv = [0]  # by literal: 0 unknown, 1 true, -1 false
        self.bins: List[List[int]] = [[]]  # by literal: the other literals of binaries
        self.watches: List[List[List[int]]] = [[]]  # by literal: longer clauses
        self.level = [0]
        self.reason: List[Optional[Sequence[int]]] = [None]
        self.saved = [False]
        self.activity = [0.0]
        self.seen = [False]
        self.inheap = [False]
        self.heap: List[tuple] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0

    def _grow(self, num_vars: int) -> None:
        n, new = self.n, num_vars - self.n
        if new <= 0:
            return
        if n:
            self.lv[n + 1:n + 1] = [0] * (2 * new)
            self.bins[n + 1:n + 1] = [[] for _ in range(2 * new)]
            self.watches[n + 1:n + 1] = [[] for _ in range(2 * new)]
        else:  # a fresh solver: no slot to keep, and no splice to pay for
            self.lv = [0] * (2 * new + 1)
            self.bins = [[] for _ in range(2 * new + 1)]
            self.watches = [[] for _ in range(2 * new + 1)]
        self.level.extend([0] * new)
        self.reason.extend([None] * new)
        self.saved.extend([False] * new)
        self.activity.extend([0.0] * new)
        self.seen.extend([False] * new)
        self.inheap.extend([True] * new)
        self.certified.extend(bytes(new))
        # every entry is (-activity <= 0, var < n + 1): the heap stays a heap
        self.heap.extend((0.0, v) for v in range(n + 1, num_vars + 1))
        self.n = num_vars

    def _backtrack(self, blevel: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) <= blevel:
            return
        lv, saved, heap, inheap, activity = (
            self.lv, self.saved, self.heap, self.inheap, self.activity
        )
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
        self.qhead = len(trail)

    def _sieve(self, clauses: Sequence[Sequence[int]]) -> List[Sequence[int]]:
        """Certify each clause that a level-0 literal satisfies by that
        literal; returns the others."""
        lv, certified, pos, negs = self.lv, self.certified, self.cert_pos, self.cert_neg
        rest = []
        for clause in clauses:
            for lit in clause:
                if lv[lit] == 1:
                    var = lit if lit > 0 else -lit
                    if not certified[var]:
                        certified[var] = 1
                        (pos if lit > 0 else negs).append(lit)
                    break
            else:
                rest.append(clause)
        return rest

    def add_clauses(self, clauses: Sequence[List[int]], num_vars: int) -> None:
        """Append clauses over variables 1..num_vars.

        The list itself may be kept for the model check, so neither it nor
        its clauses may change.
        """
        self._backtrack(0)
        self._grow(num_vars)
        self.num_given += len(clauses)
        if not self.ok:
            return  # every later search is UNSAT: no model left to check
        lv, bins, watches, units = self.lv, self.bins, self.watches, self.units
        simplify = bool(self.trail)  # level-0 assignments of earlier searches
        # pending is replaced, never changed in place: it may be a given list
        if simplify:  # certify what level 0 satisfies; watch only the rest
            clauses = self._sieve(clauses)
            self.pending = self._sieve(self.pending) + clauses
        else:
            self.pending = [*self.pending, *clauses] if self.pending else clauses
        for given in clauses:
            clause = [lit for lit in given if not lv[lit]] if simplify else given
            size = len(clause)
            if size > 2:
                if clause is given:  # propagation reorders it; the given list stays
                    clause = list(clause)
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            elif size == 2:
                a, b = clause
                bins[a].append(b)
                bins[b].append(a)
            elif size:
                units.append(clause[0])
            else:
                self.ok = False
                return

    def solve(
        self,
        assumptions: Sequence[int],
        timeout_s: Optional[float],
        started: float,
    ) -> SatResult:
        """Search under the assumptions.

        The time limit runs from `started`, a time.monotonic() reading,
        and is checked before the search and then every 256 conflicts and
        every 256 decisions.  The trail of the answer stays until the next
        append or search, which first returns to level 0; a one-shot solver
        never pays for that.
        """
        n = self.n
        conflicts = decisions = propagations = restarts = learnts = 0
        learnt_lits = minimized = 0

        def result(verdict: str, model=None) -> SatResult:
            stats = {
                "conflicts": conflicts,
                "decisions": decisions,
                "propagations": propagations,
                "restarts": restarts,
                "learnts": learnts,
                "learnt_lits": learnt_lits,
                "minimized": minimized,
            }
            return SatResult(verdict, model, stats)

        for lit in assumptions:
            if not 0 < abs(lit) <= n:
                raise LassosatError(f"assumption {lit} names no variable of 1..{n}")
        if not self.ok:
            return result("UNSAT")
        self._backtrack(0)
        backtrack = self._backtrack

        lv, level, reason, saved = self.lv, self.level, self.reason, self.saved
        activity, seen, heap, inheap = self.activity, self.seen, self.heap, self.inheap
        learnt_log, bins, watches = self.clauses, self.bins, self.watches
        trail, trail_lim = self.trail, self.trail_lim
        var_inc = self.var_inc
        nassume = len(assumptions)

        def enqueue(lit: int, why: Optional[Sequence[int]]) -> bool:
            v = lv[lit]
            if v:
                return v == 1
            lv[lit] = 1
            lv[-lit] = -1
            var = lit if lit > 0 else -lit
            level[var] = len(trail_lim)
            reason[var] = why
            trail.append(lit)
            return True

        def propagate() -> Optional[Sequence[int]]:
            """Run the queue; returns the conflicting clause, or None."""
            nonlocal propagations
            lv_, level_, reason_, bins_, watches_ = lv, level, reason, bins, watches
            push = trail.append
            dl = len(trail_lim)
            q = start = self.qhead
            while q < len(trail):
                neg = -trail[q]
                q += 1
                for other in bins_[neg]:
                    ov = lv_[other]
                    if ov == 1:
                        continue
                    if ov:  # both literals false: conflict
                        self.qhead = q
                        propagations += q - start
                        return (other, neg)
                    lv_[other] = 1
                    lv_[-other] = -1
                    var = other if other > 0 else -other
                    level_[var] = dl
                    reason_[var] = (other, neg)
                    push(other)
                ws = watches_[neg]
                j = moved = 0
                # compact ws in place: entries [0, j) stay, a moved watch leaves a gap
                for cl in ws:
                    first = cl[0]
                    if first == neg:  # keep the false literal at position 1
                        first = cl[1]
                        cl[0] = first
                        cl[1] = neg
                    fv = lv_[first]
                    if fv == 1:
                        ws[j] = cl
                        j += 1
                        continue
                    for idx in range(2, len(cl)):
                        other = cl[idx]
                        if lv_[other] != -1:
                            cl[1] = other
                            cl[idx] = neg
                            watches_[other].append(cl)
                            moved += 1
                            break
                    else:
                        ws[j] = cl
                        j += 1
                        if fv:  # first is false: conflict; keep the unvisited rest
                            del ws[j:j + moved]
                            self.qhead = q
                            propagations += q - start
                            return cl
                        lv_[first] = 1
                        lv_[-first] = -1
                        var = first if first > 0 else -first
                        level_[var] = dl
                        reason_[var] = cl
                        push(first)
                del ws[j:]
            self.qhead = q
            propagations += q - start
            return None

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

        def redundant(p: int, abstract: int, marked: List[int]) -> bool:
            """True when the reasons behind the false literal p end in marked
            literals or at level 0; what it marks on the way stays marked."""
            stack = [p]
            top = len(marked)
            while stack:
                q = stack.pop()
                for r in reason[q if q > 0 else -q][1:]:
                    v = r if r > 0 else -r
                    if not seen[v] and level[v]:
                        if reason[v] is not None and abstract >> (level[v] & 31) & 1:
                            seen[v] = True
                            stack.append(r)
                            marked.append(r)
                        else:  # a decision, or a level the clause lacks
                            for m in marked[top:]:
                                seen[abs(m)] = False
                            del marked[top:]
                            return False
            return True

        def analyze(confl: Sequence[int]):
            nonlocal learnt_lits, minimized
            learnt = [0]  # placeholder for the asserting literal
            counter = 0
            p = 0
            idx = len(trail) - 1
            cur_level = len(trail_lim)
            cl = confl
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
                cl = reason[v]
            learnt[0] = -p
            # minimize: seen marks the literals of learnt[1:] and, once
            # redundant() has run, the literals it found implied by them
            marked = learnt[1:]
            abstract = 0
            for q in marked:
                abstract |= 1 << (level[abs(q)] & 31)
            j = 1
            for i in range(1, len(learnt)):
                q = learnt[i]
                if reason[abs(q)] is None or not redundant(q, abstract, marked):
                    learnt[j] = q
                    j += 1
            minimized += len(learnt) - j
            learnt_lits += j
            del learnt[j:]
            for q in marked:
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

        def check_time():
            if time.monotonic() - started > timeout_s:
                raise SolverTimeout(
                    f"embedded solver exceeded {timeout_s} s after {conflicts} "
                    f"conflicts and {decisions} decisions"
                )

        def pick_var() -> int:
            # every unassigned variable has a live entry, so the heap cannot run dry
            while True:
                act, var = heappop(heap)
                if -act != activity[var]:
                    continue  # stale: the variable's live entry, if any, is another
                inheap[var] = False
                if not lv[var]:
                    return var

        try:
            units, self.units = self.units, []
            for u in units:
                if not enqueue(u, None):
                    self.ok = False
                    return result("UNSAT")
            if propagate() is not None:
                self.ok = False
                return result("UNSAT")

            restart_budget = _LUBY_BASE * _luby(0)
            if timeout_s is not None:
                check_time()

            while True:
                confl = propagate()
                if confl is not None:
                    conflicts += 1
                    if not trail_lim:
                        self.ok = False
                        return result("UNSAT")
                    learnt, blevel = analyze(confl)
                    backtrack(blevel)
                    learnt_log.append(learnt)
                    if len(learnt) == 1:
                        if not enqueue(learnt[0], None):
                            self.ok = False
                            return result("UNSAT")
                    else:
                        a, b = learnt[0], learnt[1]
                        if len(learnt) == 2:
                            bins[a].append(b)
                            bins[b].append(a)
                        else:
                            watches[a].append(learnt)
                            watches[b].append(learnt)
                        enqueue(a, learnt)
                        learnts += 1
                    var_inc /= _VAR_DECAY
                    if conflicts % 256 == 0 and timeout_s is not None:
                        check_time()
                    if conflicts >= restart_budget:
                        restarts += 1
                        restart_budget = conflicts + _LUBY_BASE * _luby(restarts)
                        backtrack(0)
                elif len(trail_lim) < nassume:
                    # the next assumption opens its own level, even when it holds
                    lit = assumptions[len(trail_lim)]
                    if lv[lit] == -1:
                        return result("UNSAT")
                    trail_lim.append(len(trail))
                    enqueue(lit, None)
                elif len(trail) == n:
                    model = list(map((1).__eq__, islice(lv, n + 1)))
                    if not (
                        all(map(model.__getitem__, self.cert_pos))
                        and not any(map(model.__getitem__, map(neg, self.cert_neg)))
                        and check_model(CnfInstance(n, self.pending), model)
                        and all(model[abs(a)] == (a > 0) for a in assumptions)
                    ):
                        raise LassosatError("internal error: model fails clause check")
                    return result("SAT", model)
                else:
                    var = pick_var()
                    decisions += 1
                    if decisions % 256 == 0 and timeout_s is not None:
                        check_time()
                    trail_lim.append(len(trail))
                    enqueue(var if saved[var] else -var, None)
        finally:
            self.var_inc = var_inc
