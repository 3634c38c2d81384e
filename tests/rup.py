"""Naive unit propagation, independent of the embedded solver.

A clause C is RUP (reverse unit propagation) with respect to a clause set
when assigning every literal of C false and propagating unit clauses over
the set reaches a conflict; a clause learnt by a CDCL solver is RUP with
respect to the given clauses and the clauses learnt before it.  This
checker keeps no watches and reorders no clause: it rescans, in full,
every clause that holds a literal just made false.
"""

from collections import defaultdict


class RupChecker:
    def __init__(self, clauses=()):
        self.clauses = []
        self.units = []  # clauses of at most one distinct literal
        self.occurs = defaultdict(list)  # literal -> indices of clauses holding it
        for clause in clauses:
            self.add(clause)

    def add(self, clause):
        ci = len(self.clauses)
        self.clauses.append(list(clause))
        lits = set(clause)
        if len(lits) <= 1:
            self.units.append(clause)
        for lit in lits:
            self.occurs[lit].append(ci)

    def implies(self, clause):
        """True when unit propagation from the negation of `clause` conflicts."""
        value = {}  # variable -> bool
        queue = []

        def assign(lit):
            """Make lit true; False when it is already false."""
            var, want = abs(lit), lit > 0
            if var in value:
                return value[var] == want
            value[var] = want
            queue.append(lit)
            return True

        for lit in clause:
            if not assign(-lit):
                return True  # a tautology
        for c in self.units:
            if not c or not assign(c[0]):
                return True
        while queue:
            false_lit = -queue.pop()
            for ci in self.occurs[false_lit]:
                free = []
                for lit in self.clauses[ci]:
                    v = value.get(abs(lit))
                    if v is None:
                        free.append(lit)
                    elif v == (lit > 0):
                        break  # satisfied
                else:
                    free = set(free)
                    if not free:
                        return True
                    if len(free) == 1:
                        assign(free.pop())
        return False


def learnts_are_rup(solver, given):
    """Check every clause the live solver learnt, in order, against the
    clauses it was given (`given`) and the clauses it learnt before; returns
    how many it checked."""
    checker = RupChecker(given)
    for learnt in solver.clauses:
        assert checker.implies(learnt), f"learnt clause {learnt} is not RUP"
        checker.add(learnt)
    return len(solver.clauses)
