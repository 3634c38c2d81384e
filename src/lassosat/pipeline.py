"""End-to-end driver: spec file -> desugar -> encode -> CNF -> solve -> trace.

Modes:

  bsc         bounded satisfiability of init/property over lasso traces
  bmc         model checking: transitions + init against a negated property;
              UNSAT means the property holds over every periodic behavior
  hcc         history checking/completion: bsc plus the facts of a partial
              (or total) history; UNSAT leaves the history file empty
  loop-free   completeness check: UNSAT means the bound is reached
  find-bound  loop-free at k = 1, 2, ... until the first UNSAT, growing
              one encoding into one live embedded solver

`run` handles every mode on one path: it builds one problem, and `_solve`
loops over its bounds (one bound, or 1..max_bound for find-bound) and then
writes the files of the last solve.  A loop-free window is solved by
`solve_window`, which adds the distinctness of two instants only when a
model repeats a state.

For the mono engine init is asserted through the yesterday idiom (the root
formula lives at instant 1, so init is pinned at instant 0); the bi engine
asserts the root at instant 0 directly.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional

from .cnf import CnfInstance, SatResult, emit_dimacs, to_cnf
from .declarations import domain_constraints
from .desugar import desugar
from .encoder import CheckProblem, EncodedProblem, encode
from .errors import BoundSearchError, DomainError, FormulaError, SpecFormatError
from .formula import Atom, Not, Yesterday, conj
from .sat_embedded import Solver, solve_embedded
from .specfile import SpecDocument, load_spec
from .trace import LassoTrace, PartialHistory, decode, load_history, render_history

CNF_FILENAME = "output.cnf.txt"
SAT_FILENAME = "output.sat.txt"
HIST_FILENAME = "output.hist.txt"

MODES = ("bsc", "bmc", "hcc", "loop-free", "find-bound")


@dataclass
class RunConfig:
    spec_path: str
    bound: Optional[int] = None
    engine: Optional[str] = None  # mono | bi
    mode: str = "bsc"
    solver: Optional[str] = None  # embedded | minisat | picosat
    history_path: Optional[str] = None
    out_dir: str = "."
    max_bound: int = 50
    timeout_s: Optional[float] = None


@dataclass
class RunReport:
    mode: str
    verdict: str  # SAT | UNSAT
    exit_code: int
    k: int
    engine: str
    message: str = ""
    trace: Optional[LassoTrace] = None
    history_text: str = ""
    num_vars: int = 0
    num_clauses: int = 0


def _effective(config: RunConfig, doc: SpecDocument):
    mode = config.mode
    if mode not in MODES:
        raise SpecFormatError(f"unknown mode {mode}")
    if doc.loop_free:
        if mode in ("bmc", "hcc"):
            # a loop-free bsc check would run in place of the mode asked for
            raise SpecFormatError(f"the spec's (loop-free) section is not allowed in {mode} mode")
        if mode == "bsc":
            mode = "loop-free"
    engine = config.engine or doc.engine or "mono"
    if mode in ("loop-free", "find-bound") and engine != "mono":
        # the loop-free encoding has a mono form only
        if config.engine:
            raise SpecFormatError(f"{mode} mode is defined for the mono engine only")
        warnings.warn(f"the spec's (engine {engine}) section is ignored: {mode} mode "
                      "uses the mono engine", stacklevel=3)
        engine = "mono"
    solver = config.solver or doc.solver or "embedded"
    if mode == "find-bound":
        if config.max_bound < 1:
            raise BoundSearchError(
                f"the maximum bound must be at least 1, got {config.max_bound}")
        return mode, engine, solver, range(1, config.max_bound + 1)
    k = config.bound if config.bound is not None else doc.bound
    if k is None:
        raise SpecFormatError("no bound given (use --bound or a (bound N) form)")
    return mode, engine, solver, (k,)


def build_problem(
    doc: SpecDocument,
    k: int,
    engine: str,
    mode: str,
    facts: Optional[PartialHistory] = None,
) -> CheckProblem:
    """Desugar and lower a document into an encodable problem.  An error
    that desugaring a section's formula raises is located at its form."""
    decls = doc.declarations

    def ds(f):
        try:
            return desugar(f, decls)
        except (DomainError, FormulaError) as exc:
            if exc.line or f not in doc.origins:
                raise
            raise type(exc)(str(exc), *doc.origins[f]) from None

    parts = []
    if doc.init is not None:
        init = ds(doc.init)
        parts.append(Yesterday(init) if engine == "mono" else init)
    if mode == "bmc":
        if doc.property is None:
            raise SpecFormatError("bmc mode needs a (property F) section")
        if not doc.transitions:
            raise SpecFormatError("bmc mode needs at least one (trans F) section")
        parts.append(Not(ds(doc.property)))
    elif doc.property is not None:
        parts.append(ds(doc.property))
    root = conj(parts) if parts else None
    if mode in ("bsc", "hcc") and root is None:
        raise SpecFormatError(f"{mode} mode needs an (init F) or (property F) section")

    registry_atoms: List[Atom] = [
        Atom(name) for name, arity in decls.atom_arity.items() if arity == 0
    ]
    registry_atoms.extend(decls.state_atoms())

    return CheckProblem(
        k=k,
        engine=engine,
        root=root,
        # a domain constraint holds at every instant: a transition of depth (0, 0)
        transitions=(*(ds(tr) for tr in doc.transitions), *domain_constraints(decls)),
        atoms=tuple(registry_atoms),
        facts=facts,
        loop_free=mode in ("loop-free", "find-bound"),
    )


def _gather_facts(config: RunConfig, doc: SpecDocument, mode: str):
    facts = None
    if mode == "hcc":
        if doc.history is not None:
            facts = doc.history
        if config.history_path:
            file_facts = load_history(config.history_path)
            facts = file_facts if facts is None else facts.merged_with(file_facts)
        if facts is None:
            raise SpecFormatError(
                "hcc mode needs a (history ...) section or --history FILE"
            )
    elif doc.history is not None or config.history_path:
        warnings.warn("history input is ignored outside hcc mode", stacklevel=2)
    return facts


def _dimacs_comments(vm) -> List[str]:
    out = []
    for atom in vm.atoms:
        for t in range(vm.k + 1):
            out.append(f"{atom.key} {vm.lit(atom, t)} {t}")
    return out


def _write(inst: CnfInstance, result: SatResult, out_dir: str, vm) -> None:
    """The embedded solver's files: the CNF solved last and its answer."""
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    with open(outp / CNF_FILENAME, "w", encoding="utf-8") as fh:
        emit_dimacs(inst, fh, _dimacs_comments(vm))
    with open(outp / SAT_FILENAME, "w", encoding="utf-8") as fh:
        if result.verdict == "SAT":
            lits = " ".join(
                str(v if result.model[v] else -v) for v in range(1, inst.num_vars + 1)
            )
            fh.write(f"SAT\n{lits} 0\n")
        else:
            fh.write("UNSAT\n")


def _solve_external(inst: CnfInstance, solver: str, out_dir: str, vm, timeout_s):
    """One external solve; the adapter writes the CNF and the answer."""
    from .sat_external import DEFAULT_SOLVERS, solve_external

    cfg = DEFAULT_SOLVERS.get(solver)
    if cfg is None:
        raise SpecFormatError(f"unknown solver {solver!r}")
    return solve_external(inst, cfg, out_dir, _dimacs_comments(vm), timeout_s)


def _solve(problem: CheckProblem, ks, solver: str, out_dir: str, timeout_s):
    """Encode and solve `problem` at each bound of `ks`, up to the first UNSAT.

    One encoding grows from bound to bound.  A loop-free window is decided
    by `solve_window` on one `window_solver`; a lasso is solved from
    scratch, its CNF carrying E_k as a unit.  The embedded solver's files
    are written after the last solve, so a solve that fails or times out
    leaves those of the run before.  Returns the last encoding, its CNF and
    the answer.
    """
    solve = window_solver(solver, out_dir) if problem.loop_free else None
    encoded = inst = None
    for k in ks:
        encoded = encode(replace(problem, k=k), encoded)
        if solve is None:
            inst = to_cnf(encoded)
            result = (solve_embedded(inst, timeout_s=timeout_s) if solver == "embedded"
                      else _solve_external(inst, solver, out_dir, encoded.varmap, timeout_s))
        else:
            result = solve_window(encoded, solve, timeout_s)
        if result.verdict == "UNSAT":
            break
    solve = None  # drop the live solver and its clause copies before to_cnf copies them
    if inst is None:
        inst = to_cnf(encoded)
    if solver == "embedded":
        _write(inst, result, out_dir, encoded.varmap)
    return encoded, inst, result


# mode -> verdict -> the report's message
_BSC_MESSAGES = {
    "SAT": "satisfiable: history written",
    "UNSAT": "unsatisfiable: the empty history means no trace complies",
}
_MESSAGES = {
    "bsc": _BSC_MESSAGES,
    "hcc": _BSC_MESSAGES,
    "bmc": {
        "SAT": "property violated: counterexample trace written",
        "UNSAT": "property holds over every periodic behavior within the bound",
    },
    "loop-free": {
        "SAT": "bound not reached: a loop-free path of this length exists",
        "UNSAT": "completeness bound reached",
    },
    "find-bound": {"UNSAT": "completeness bound found: {k}"},
}


def run(config: RunConfig) -> RunReport:
    """Execute one verification job, any mode; after the last solve it
    writes the three output files."""
    doc = load_spec(config.spec_path)
    mode, engine, solver, ks = _effective(config, doc)
    facts = _gather_facts(config, doc, mode)
    problem = build_problem(doc, ks[0], engine, mode, facts)
    encoded, inst, result = _solve(problem, ks, solver, config.out_dir, config.timeout_s)
    k, trace, history_text = encoded.varmap.k, None, ""
    if result.verdict == "SAT":
        trace = decode(result, encoded.varmap)
        history_text = render_history(trace)
    (Path(config.out_dir) / HIST_FILENAME).write_text(history_text, encoding="utf-8")
    if mode == "find-bound" and result.verdict == "SAT":
        # the files above hold the last solve: a loop-free path of max_bound steps
        raise BoundSearchError(f"still satisfiable at the maximum bound {config.max_bound}")
    return RunReport(
        mode=mode,
        verdict=result.verdict,
        exit_code=0 if result.verdict == "SAT" or mode == "find-bound" else 1,
        k=k,
        engine=engine,
        message=_MESSAGES[mode][result.verdict].format(k=k),
        trace=trace,
        history_text=history_text,
        num_vars=inst.num_vars,
        num_clauses=len(inst.clauses),
    )


def find_bound(config: RunConfig) -> int:
    """Smallest k whose loop-free encoding is UNSAT (completeness bound):
    `run` in find-bound mode, whatever mode `config` names."""
    return run(replace(config, mode="find-bound")).k


# one SAT call on an encoding at its bound, within a time limit
WindowSolve = Callable[[EncodedProblem, Optional[float]], SatResult]


def window_solver(solver: str = "embedded", out_dir: str = ".") -> WindowSolve:
    """The SAT call `solve_window` makes, for a solver backend; it decides
    any growing encoding, lasso ones too.

    The embedded solver is one live solver for every call: it is handed
    only the clauses appended since its last call and solves under the
    assumption E_k.  An external solver reads its CNF from a file, so each
    call writes the clauses plus the unit E_k to `out_dir`, and the solver
    writes its answer there.
    """
    if solver == "embedded":
        live = Solver()

        def solve(encoded: EncodedProblem, timeout_s: Optional[float]) -> SatResult:
            return solve_embedded(
                encoded.cnf, timeout_s=timeout_s, assumptions=[encoded.activation], live=live,
            )
        return solve

    def solve(encoded: EncodedProblem, timeout_s: Optional[float]) -> SatResult:
        return _solve_external(to_cnf(encoded), solver, out_dir, encoded.varmap, timeout_s)
    return solve


def solve_window(
    encoded: EncodedProblem,
    solve: Optional[WindowSolve] = None,
    timeout_s: Optional[float] = None,
) -> SatResult:
    """Decide a loop-free window at its bound, its states pairwise distinct.

    The encoding holds only the distinctness pairs added so far.  After
    each SAT answer, every pair of instants s < t whose atom vectors agree
    in the model is added (in the order of t, then s) and the window is
    solved again with `solve` (default: a new embedded solver).  The
    answer is the first UNSAT, or the first model whose states are
    pairwise distinct; both are the answer under every pair.  `timeout_s`
    limits all the calls together.
    """
    if solve is None:
        solve = window_solver()
    vm, encoder = encoded.varmap, encoded.encoder
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        result = solve(encoded, left)
        if result.verdict == "UNSAT":
            return result
        model, seen, pairs = result.model, {}, []
        for t in range(vm.k + 1):
            earlier = seen.setdefault(tuple(model[vm.lit(a, t)] for a in vm.atoms), [])
            pairs.extend((s, t) for s in earlier)
            earlier.append(t)
        if not pairs:
            return result
        for s, t in pairs:
            encoder.distinct(s, t)
        encoded.cnf = encoder.sink.instance()


def check_trace_against_root(problem: CheckProblem, trace: LassoTrace) -> bool:
    """Oracle check: the decoded trace satisfies the asserted root formula."""
    from .oracle import eval_lasso

    if problem.root is None:
        return True
    pos = 1 if problem.engine == "mono" else 0
    return eval_lasso(trace, problem.root, pos)
