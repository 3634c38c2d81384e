"""External SAT solver subprocess adapters.

Two output dialects are supported:

  minisat dialect   argv = [exe, cnf_path, result_path]; the result file's
                    first line is SAT or UNSAT, then model literals ending 0.
  picosat dialect   argv = [exe, cnf_path]; stdout carries "s SATISFIABLE" /
                    "s UNSATISFIABLE" lines and "v" literal lines ending 0.

The DIMACS problem is always written to <workdir>/output.cnf.txt and the raw
solver output to <workdir>/output.sat.txt.  A missing executable, unparsable
output, or a verdict-free nonzero exit each raise a distinct SolverError,
and a solver killed at its time limit raises SolverTimeout; UNSAT is never
inferred from silence.
"""

from __future__ import annotations

import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .cnf import CnfInstance, SatResult, check_model, emit_dimacs
from .errors import SolverError, SolverTimeout
from .pipeline import CNF_FILENAME, SAT_FILENAME


@dataclass(frozen=True)
class SolverConfig:
    name: str
    dialect: str  # "minisat" or "picosat"
    executable: Optional[str] = None

    @property
    def exe(self) -> str:
        return self.executable or self.name


DEFAULT_SOLVERS = {
    "minisat": SolverConfig("minisat", "minisat"),
    "picosat": SolverConfig("picosat", "picosat"),
}


def solver_available(config: SolverConfig) -> bool:
    return shutil.which(config.exe) is not None


def _parse_minisat(text: str, num_vars: int) -> SatResult:
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines:
        raise SolverError("minisat result file is empty")
    verdict = lines[0].upper()
    if verdict.startswith("UNSAT"):
        return SatResult("UNSAT")
    if not verdict.startswith("SAT"):
        raise SolverError(f"unrecognized minisat verdict line: {lines[0]!r}")
    model = [False] * (num_vars + 1)
    for line in lines[1:]:
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                continue
            var = abs(lit)
            if var <= num_vars:
                model[var] = lit > 0
    return SatResult("SAT", model)


def _parse_picosat(text: str, num_vars: int) -> SatResult:
    verdict = None
    model = [False] * (num_vars + 1)
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            tag = line[2:].strip().upper()
            if tag == "SATISFIABLE":
                verdict = "SAT"
            elif tag == "UNSATISFIABLE":
                verdict = "UNSAT"
        elif line.startswith("v "):
            for tok in line[2:].split():
                lit = int(tok)
                if lit == 0:
                    continue
                var = abs(lit)
                if var <= num_vars:
                    model[var] = lit > 0
    if verdict is None:
        raise SolverError("no 's SATISFIABLE'/'s UNSATISFIABLE' line in solver output")
    if verdict == "UNSAT":
        return SatResult("UNSAT")
    return SatResult("SAT", model)


def solve_external(
    inst: CnfInstance,
    config: SolverConfig,
    workdir=".",
    comments=(),
    timeout_s: Optional[float] = None,
) -> SatResult:
    """Run the configured solver on the instance inside `workdir`.

    With `timeout_s` the solver process is killed after that many seconds
    and SolverTimeout is raised.
    """
    if not solver_available(config):
        raise SolverError(f"solver executable {config.exe!r} not found on PATH")
    wd = Path(workdir)
    wd.mkdir(parents=True, exist_ok=True)
    cnf_path = wd / CNF_FILENAME
    sat_path = wd / SAT_FILENAME
    with open(cnf_path, "w", encoding="utf-8") as fh:
        emit_dimacs(inst, fh, comments)

    if config.dialect == "minisat":
        argv = [config.exe, str(cnf_path), str(sat_path)]
    elif config.dialect == "picosat":
        argv = [config.exe, str(cnf_path)]
    else:
        raise SolverError(f"unknown solver dialect {config.dialect!r}")

    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout_s)
    except FileNotFoundError as exc:
        raise SolverError(f"cannot execute {config.exe!r}: {exc}") from exc
    except subprocess.TimeoutExpired:
        raise SolverTimeout(f"{config.name} exceeded {timeout_s} s") from None

    if config.dialect == "minisat":
        try:
            raw = sat_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise SolverError(
                f"{config.name} wrote no result file "
                f"(exit {proc.returncode}): {proc.stderr.strip()[:200]}"
            ) from None
        result = _parse_minisat(raw, inst.num_vars)
    else:
        raw = proc.stdout
        sat_path.write_text(raw, encoding="utf-8")
        result = _parse_picosat(raw, inst.num_vars)

    if result.verdict == "SAT" and not check_model(inst, result.model):
        raise SolverError(f"{config.name} returned a model that fails clause check")
    return result
