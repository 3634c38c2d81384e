"""Clauses: the encoder's clause sink, and the DIMACS reader/writer.

The encoder writes its clauses straight into a ClauseSink.  Subformula
variables already name most gate outputs, so their `var <-> gate`
definitions become clauses directly; fresh Tseitin variables are taken only
for unnamed inner gates, one per distinct gate, above VarMap's last id.
Models therefore decode positionally: variables 1..max_var keep their
meaning.
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


class ClauseSink:
    """Clauses written straight from the encoder, Tseitin gates on demand.

    Unnamed inner gates get fresh variables above VarMap's last id, one per
    distinct (op, operand literals), each issued after its operands' gates.
    """

    def __init__(self, max_var: int):
        self.next_var = max_var + 1
        self.clauses: List[List[int]] = []
        self.memo: Dict[tuple, int] = {}

    def clause(self, lits: List[int]) -> None:
        """Add a clause; repeated literals go, tautologies are dropped."""
        lits = _sanitize(lits)
        if lits is not None:
            self.clauses.append(lits)

    def define(self, v: int, op: str, lits: List[int]) -> None:
        """Clauses for v <-> op(lits), op being "and", "or" or two-operand
        "iff" (through a gate); a single operand makes v <-> lits[0]."""
        if op == "iff":
            lits = [self.gate("iff", lits)]
        elif op == "or" and len(lits) != 1:
            v, lits = -v, [-l for l in lits]  # v <-> or(ls)  is  -v <-> and(-ls)
        add = self.clause
        for l in lits:
            add([-v, l])
        add([v] + [-l for l in lits])

    def gate(self, op: str, lits: List[int]) -> int:
        """A literal equivalent to op(lits); one operand is its own gate."""
        if len(lits) == 1:
            return lits[0]
        key = (op, tuple(lits))
        g = self.memo.get(key)
        if g is None:
            g = self.next_var
            self.next_var += 1
            if op == "iff":
                a, b = lits
                for clause in ([-g, -a, b], [-g, a, -b], [g, a, b], [g, -a, -b]):
                    self.clause(clause)
            else:
                self.define(g, op, lits)
            self.memo[key] = g
        return g

    def instance(self) -> CnfInstance:
        return CnfInstance(num_vars=self.next_var - 1, clauses=self.clauses)


def to_cnf(problem) -> CnfInstance:
    """The clauses of an EncodedProblem, which the encoder wrote.

    Kept as the pipeline's CNF step: the benchmark's span recorder wraps
    `pipeline.to_cnf` and fails when it is missing.
    """
    return problem.cnf


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
