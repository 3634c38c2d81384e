"""A DIMACS CNF reader, for the tests that read back what lassosat writes.

lassosat only writes DIMACS (`lassosat.cnf.emit_dimacs`); the tests and
the fake external solvers read it with `parse_dimacs`.
"""

from typing import List

from lassosat.cnf import CnfInstance
from lassosat.errors import SolverError


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
