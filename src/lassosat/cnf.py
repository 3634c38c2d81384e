"""Clauses: the encoder's clause sink, and the DIMACS writer.

The encoder writes its clauses straight into a ClauseSink.  Subformula
variables already name most gate outputs, so their `var <-> gate`
definitions become clauses directly; fresh Tseitin variables are taken only
for unnamed inner gates, one per distinct gate.  The sink's counter is the
only allocator of ids: the encoder takes its literal table's ids from it
too (`fresh`), in the order the encoder's module docstring gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .errors import LassosatError


@dataclass
class CnfInstance:
    num_vars: int
    clauses: List[List[int]]


@dataclass
class SatResult:
    verdict: str  # "SAT" or "UNSAT"
    model: Optional[List[bool]] = None  # index 0 unused; length num_vars + 1
    # solver counters; the embedded solver fills them, external ones leave it empty
    stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == "SAT" and self.model is None:
            raise LassosatError("SAT result must carry a model")
        if self.verdict == "UNSAT" and self.model is not None:
            raise LassosatError("UNSAT result cannot carry a model")


def _sanitize(lits: List[int]) -> Optional[List[int]]:
    """Dedupe literals, keeping first occurrences; None means a tautology."""
    seen = set()
    out = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


class ClauseSink:
    """Clauses written straight from the encoder, Tseitin gates on demand.

    Unnamed inner gates get fresh variables, one per distinct (op, operand
    literals), each issued after its operands' gates.  A gate is "and" or
    "or" over any number of operands, two-operand "iff", or "ite" over
    [s, a, b]: a where s holds, b elsewhere.

    A clause whose literals are over pairwise distinct variables (no
    literal repeated, none with its complement) is appended as it is, the
    list itself; any other goes through `_sanitize`, which drops repeats
    and the whole clause if it is a tautology.  `define` and the iff and
    ite gates write such clean clauses straight into the list, and only a
    clause that repeats a variable takes the `_sanitize` route.
    """

    def __init__(self, max_var: int):
        self.next_var = max_var + 1
        self.clauses: List[List[int]] = []
        self.memo: Dict[tuple, int] = {}

    def fresh(self) -> int:
        """A new variable: the next id."""
        v = self.next_var
        self.next_var += 1
        return v

    def fresh_ids(self, n: int) -> range:
        """n new variables: the next n ids."""
        ids = range(self.next_var, self.next_var + n)
        self.next_var = ids.stop
        return ids

    def clause(self, lits: List[int]) -> None:
        """Add a clause; repeated literals go, tautologies are dropped."""
        n = len(lits)
        if n == 3:
            a, b, c = lits
            a, b, c = abs(a), abs(b), abs(c)
            clean = a != b != c != a
        elif n == 2:
            clean = lits[0] != lits[1] and lits[0] != -lits[1]
        else:
            clean = len(set(map(abs, lits))) == n
        if clean:
            self.clauses.append(lits)
            return
        lits = _sanitize(lits)
        if lits is not None:
            self.clauses.append(lits)

    def define(self, v: int, op: str, lits: List[int], sides: int = 3) -> None:
        """Clauses for v <-> op(lits), op being "and" or "or"; a single
        operand makes v <-> lits[0].  `sides` picks the directions as bits:
        1 is v -> op(lits), all that a reader of v as it is needs, 2 is
        op(lits) -> v, all that a reader of -v needs, and 3 is both."""
        if op == "or" and len(lits) != 1:
            # v <-> or(ls)  is  -v <-> and(-ls), its sides swapped
            v, lits, sides = -v, [-l for l in lits], (sides >> 1) | (sides & 1) << 1
        if len(lits) == 2:  # most definitions; clean where no variable repeats
            a, b = lits
            x, y, z = abs(v), abs(a), abs(b)
            if x != y != z != x:
                if sides & 1:
                    self.clauses += ([-v, a], [-v, b])
                if sides & 2:
                    self.clauses.append([v, -a, -b])
                return
        if sides & 1:
            append = self.clauses.append
            for l in lits:  # -v | l
                if l != v and l != -v:
                    append([-v, l])
                elif l != v:  # l is -v: the unit -v; l = v makes a tautology
                    append([l])
        if sides & 2:
            self.clause([v, *(-l for l in lits)])

    def gate(self, op: str, lits: List[int]) -> int:
        """A literal equivalent to op(lits); one operand, or an ite whose
        branches agree, is its own gate, and ite(s, -a, -b) is -ite(s, a, b)."""
        if len(lits) == 1:
            return lits[0]
        if op == "ite" and lits[1] < 0 and lits[2] < 0:
            return -self.gate("ite", [lits[0], -lits[1], -lits[2]])
        key = (op, tuple(lits))
        g = self.memo.get(key)
        if g is None:
            if op == "ite" and lits[1] == lits[2]:
                return lits[1]
            g = self.memo[key] = self.fresh()
            if op == "iff":
                a, b = lits
                clean = a != b and a != -b
                clauses = ([-g, -a, b], [-g, a, -b], [g, a, b], [g, -a, -b])
            elif op == "ite":
                s, a, b = lits
                clean = s != a and s != -a and s != b and s != -b and a != -b
                # the last two are implied; they let agreeing branches set g
                # before s is known
                clauses = ([-g, -s, a], [-g, s, b], [g, -s, -a], [g, s, -b],
                           [-g, a, b], [g, -a, -b])
            else:
                self.define(g, op, lits)
                return g
            # g is fresh, so operands that are distinct variables make
            # every clause clean
            if clean:
                self.clauses.extend(clauses)
            else:
                for clause in clauses:
                    self.clause(clause)
        return g

    def instance(self) -> CnfInstance:
        return CnfInstance(num_vars=self.next_var - 1, clauses=self.clauses)


def to_cnf(problem) -> CnfInstance:
    """The CNF of an EncodedProblem at its bound: the clauses the encoder
    wrote, plus the unit of its activation literal E_k."""
    return CnfInstance(problem.cnf.num_vars, problem.cnf.clauses + [[problem.activation]])


_EMIT_CHUNK = 4096  # clauses per write


class _ClauseFormats(dict):
    """Clause length -> the %-format of one DIMACS clause line, made on
    first use; the empty clause is the line " 0"."""

    def __init__(self):
        super().__init__({0: " 0\n"})

    def __missing__(self, n: int) -> str:
        fmt = self[n] = "%d " * n + "0\n"
        return fmt


def emit_dimacs(inst: CnfInstance, sink, comments: Iterable[str] = ()) -> None:
    """Write optional `c` lines, `p cnf V C`, then 0-terminated clauses.

    The clauses go out in bounded chunks, so writing never holds more than
    one chunk's text on top of the clauses themselves.
    """
    head = [f"c {c}\n" for c in comments]
    head.append(f"p cnf {inst.num_vars} {len(inst.clauses)}\n")
    sink.write("".join(head))
    clauses, formats = inst.clauses, _ClauseFormats()
    for lo in range(0, len(clauses), _EMIT_CHUNK):
        sink.write("".join([
            formats[len(clause)] % tuple(clause) for clause in clauses[lo:lo + _EMIT_CHUNK]
        ]))


def dimacs_text(inst: CnfInstance, comments: Iterable[str] = ()) -> str:
    import io

    buf = io.StringIO()
    emit_dimacs(inst, buf, comments)
    return buf.getvalue()


def check_model(inst: CnfInstance, model: List[bool]) -> bool:
    """True when the assignment satisfies every clause."""
    for clause in inst.clauses:
        for lit in clause:
            v = model[abs(lit)]
            if v if lit > 0 else not v:
                break
        else:
            return False
    return True
