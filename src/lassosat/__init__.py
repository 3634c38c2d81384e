"""Bounded satisfiability and model checking for PLTL with past and metric
operators, compiled to SAT over lasso-shaped (ultimately periodic) traces."""

from .cnf import CnfInstance, SatResult, emit_dimacs, parse_dimacs, to_cnf
from .declarations import ArrayDecl, Declarations, ItemDecl, domain_constraints
from .desugar import desugar, expand_case
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
from .oracle import eval_lasso
from .pipeline import RunConfig, RunReport, build_problem, find_bound, run
from .pretty import formula_text, to_sexpr
from .sat_embedded import solve_embedded
from .sat_external import DEFAULT_SOLVERS, SolverConfig, solve_external, solver_available
from .sexpr import SAtom, SList, read_sexprs, to_text
from .specfile import SpecDocument, load_spec, parse_formula, parse_spec, parse_spec_text
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
