"""Exception hierarchy. Every user-facing failure carries enough context to locate it."""

from __future__ import annotations


class LassosatError(Exception):
    """Base class for all errors raised by this package."""


class _LocatedError(LassosatError):
    """An error at a source position; line 0 means no position is known."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})" if line else message)


class SexprSyntaxError(_LocatedError):
    """Malformed s-expression input (unbalanced parens, stray tokens)."""


class SpecFormatError(_LocatedError):
    """A spec file violates the section grammar or its validation rules."""


class FormulaError(_LocatedError):
    """A formula cannot be lowered to the core fragment (bad offset, unbound variable, ...)."""


class DomainError(_LocatedError):
    """A finite-domain variable is used with a value outside its declared domain."""


class HistoryError(LassosatError):
    """A history file or section is malformed or self-contradictory."""


class EncodingError(LassosatError):
    """The encoder was driven outside its contract (bad bound, instant out of range, ...)."""


class SolverError(LassosatError):
    """An external solver could not be run or produced unusable output."""


class SolverTimeout(SolverError):
    """A solver exceeded its time limit."""


class BoundSearchError(LassosatError):
    """Completeness-bound search exhausted its maximum bound while still
    satisfiable, or was given a maximum bound below 1."""
