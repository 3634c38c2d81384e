"""CNF conversion and the DIMACS reader/writer.

to_cnf is a structural (Tseitin-style) transformation.  Subformula variables
already name most gate outputs (the encoder emits var <-> gate definitions),
so those become clauses directly; fresh definition variables are introduced
only for gates without a name, one per gate, above VarMap's last id.  Models
therefore decode positionally: variables 1..max_var keep their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .errors import LassosatError, SolverError


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
    """Dedupe literals, keeping first occurrences; None means a tautology.

    A two-literal clause with distinct literals comes back as the same list.
    """
    if len(lits) == 2:  # most Tseitin clauses
        a, b = lits
        if a == b:
            return [a]
        return None if a == -b else lits
    seen = set()
    out = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


class _Builder:
    def __init__(self, first_free: int):
        self.next_var = first_free
        self.clauses: List[List[int]] = []
        self.memo = {}

    def add(self, lits) -> None:
        clause = _sanitize(lits)
        if clause is not None:
            self.clauses.append(clause)

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def lit(self, c) -> int:
        """Literal equisatisfiably equivalent to circuit c (gates memoized)."""
        if c is True or c is False:
            # a constant literal: one fresh var pinned by a unit clause
            key = c
            got = self.memo.get(key)
            if got is None:
                got = self.fresh()
                self.add([got] if c is True else [-got])
                self.memo[key] = got
            return got
        op = c[0]
        if op == "v":
            return c[1]
        if op == "not":
            return -self.lit(c[1])
        got = self.memo.get(c)
        if got is not None:
            return got
        if op == "and":
            lits = [self.lit(x) for x in c[1]]
            g = self.fresh()
            for l in lits:
                self.add([-g, l])
            self.add([g] + [-l for l in lits])
        elif op == "or":
            lits = [self.lit(x) for x in c[1]]
            g = self.fresh()
            for l in lits:
                self.add([g, -l])
            self.add([-g] + lits)
        elif op == "iff":
            a, b = self.lit(c[1]), self.lit(c[2])
            g = self.fresh()
            self.add([-g, -a, b])
            self.add([-g, a, -b])
            self.add([g, a, b])
            self.add([g, -a, -b])
        else:
            raise LassosatError(f"unknown circuit op {op}")
        self.memo[c] = g
        return g

    # -- polarity-aware assertion of top-level constraints ------------------

    def assert_true(self, c) -> None:
        if c is True:
            return
        if c is False:
            self.clauses.append([])
            return
        op = c[0]
        if op == "v":
            self.add([c[1]])
        elif op == "not":
            self.assert_false(c[1])
        elif op == "and":
            for x in c[1]:
                self.assert_true(x)
        elif op == "or":
            self.add(self._clause_of_or(c))
        elif op == "iff":
            self._assert_iff(c[1], c[2])
        else:
            raise LassosatError(f"unknown circuit op {op}")

    def assert_false(self, c) -> None:
        if c is True:
            self.clauses.append([])
            return
        if c is False:
            return
        op = c[0]
        if op == "v":
            self.add([-c[1]])
        elif op == "not":
            self.assert_true(c[1])
        elif op == "or":
            for x in c[1]:
                self.assert_false(x)
        elif op == "and":
            self.add([-self.lit(x) for x in c[1]])
        elif op == "iff":
            self._assert_iff(c[1], ("not", c[2]))
        else:
            raise LassosatError(f"unknown circuit op {op}")

    def _clause_of_or(self, c) -> List[int]:
        lits = []
        for x in c[1]:
            if isinstance(x, tuple) and x[0] == "or":
                lits.extend(self._clause_of_or(x))
            else:
                lits.append(self.lit(x))
        return lits

    def _is_literal(self, c) -> bool:
        return isinstance(c, tuple) and (
            c[0] == "v" or (c[0] == "not" and self._is_literal(c[1]))
        )

    def _assert_iff(self, a, b) -> None:
        # encoder definitions have a literal on the left; expand the right
        # side in place so subformula variables act as the gate outputs
        if not self._is_literal(a):
            a, b = b, a
        if not self._is_literal(a):
            g1, g2 = self.lit(a), self.lit(b)
            self.add([-g1, g2])
            self.add([g1, -g2])
            return
        la = self.lit(a)
        if isinstance(b, tuple) and b[0] == "and":
            lits = [self.lit(x) for x in b[1]]
            for l in lits:
                self.add([-la, l])
            self.add([la] + [-l for l in lits])
        elif isinstance(b, tuple) and b[0] == "or":
            lits = [self.lit(x) for x in b[1]]
            for l in lits:
                self.add([la, -l])
            self.add([-la] + lits)
        elif b is True:
            self.add([la])
        elif b is False:
            self.add([-la])
        else:
            lb = self.lit(b)
            self.add([-la, lb])
            self.add([la, -lb])


def to_cnf(problem) -> CnfInstance:
    """Equisatisfiable clauses for an EncodedProblem's circuit."""
    builder = _Builder(problem.varmap.max_var + 1)
    builder.assert_true(problem.formula)
    return CnfInstance(num_vars=builder.next_var - 1, clauses=builder.clauses)


def emit_dimacs(inst: CnfInstance, sink, comments: Iterable[str] = ()) -> None:
    """Write `p cnf V C`, optional `c` lines, then 0-terminated clauses."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {inst.num_vars} {len(inst.clauses)}")
    for clause in inst.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    sink.write("\n".join(lines) + "\n")


def dimacs_text(inst: CnfInstance, comments: Iterable[str] = ()) -> str:
    import io

    buf = io.StringIO()
    emit_dimacs(inst, buf, comments)
    return buf.getvalue()


def parse_dimacs(text: str) -> CnfInstance:
    num_vars = None
    num_clauses = None
    clauses: List[List[int]] = []
    pending: List[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SolverError(f"bad DIMACS header: {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if line.startswith("%"):
            break
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise SolverError("last clause is not 0-terminated")
    if num_vars is None:
        raise SolverError("missing DIMACS header")
    if num_clauses is not None and num_clauses != len(clauses):
        raise SolverError(
            f"header announces {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance(num_vars=num_vars, clauses=clauses)


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
