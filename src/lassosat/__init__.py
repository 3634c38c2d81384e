"""Bounded satisfiability and model checking for PLTL with past and metric
operators, compiled to SAT over lasso-shaped (ultimately periodic) traces.

The trace oracle, the printer and the external-solver adapters are off the
path of a run with the embedded solver: their exports load on first use.
"""

from .cnf import CnfInstance, SatResult, emit_dimacs, to_cnf
from .declarations import ArrayDecl, Declarations, ItemDecl, domain_constraints
from .desugar import desugar
from .encoder import CheckProblem, EncodedProblem, encode
from .errors import (
    BoundSearchError,
    DomainError,
    EncodingError,
    FormulaError,
    HistoryError,
    LassosatError,
    SexprSyntaxError,
    SolverError,
    SolverTimeout,
    SpecFormatError,
)
from .pipeline import RunConfig, RunReport, build_problem, find_bound, run
from .sat_embedded import solve_embedded
from .sexpr import SAtom, SList, read_sexprs, to_text
from .specfile import SpecDocument, load_spec, parse_spec, parse_spec_text
from .trace import (
    LassoTrace,
    PartialHistory,
    decode,
    load_history,
    parse_history,
    render_history,
)
from .varmap import VarMap

__version__ = "0.1.0"

# export -> the module that defines it, imported on first access (PEP 562)
_LAZY = {
    "eval_lasso": "oracle",
    "formula_text": "pretty",
    "to_sexpr": "pretty",
    "DEFAULT_SOLVERS": "sat_external",
    "SolverConfig": "sat_external",
    "solve_external": "sat_external",
    "solver_available": "sat_external",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
