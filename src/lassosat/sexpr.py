"""S-expression reader/printer for the spec file syntax.

Grammar:

    sexpr   = atom | "'" sexpr | "(" sexpr* ")"
    atom    = integer | symbol
    integer = /[+-]?[0-9]+/
    symbol  = any run of characters not in "()' \t\r\n;"
    comment = ";" ... end of line

Symbols are case-insensitive and canonicalized to upper case.  A quote mark is
transparent: 'X reads as X and '(A B) reads as the literal list (A B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import SexprSyntaxError
from .formula import fold

_DELIMS = set("()' \t\r\n;")


@dataclass(frozen=True)
class SAtom:
    """Symbol (upper-cased string) or integer literal."""

    value: Union[str, int]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @property
    def is_symbol(self) -> bool:
        return isinstance(self.value, str)

    @property
    def is_int(self) -> bool:
        return isinstance(self.value, int)


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


SExpr = Union[SAtom, SList]


def _tokenize(text: str):
    """Yield (kind, value, line, col) with kind in {'(', ')', 'atom'}."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()'":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            start, scol = i, col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            yield ("atom", text[start:i], line, scol)


def _make_atom(tok: str, line: int, col: int) -> SAtom:
    body = tok[1:] if tok[0] in "+-" else tok
    if body and body.isdigit():
        return SAtom(int(tok), line, col)
    return SAtom(tok.upper(), line, col)


def read_sexprs(text: str) -> list:
    """Parse text into a list of top-level SExpr forms.

    Raises SexprSyntaxError with line/column on unbalanced parentheses.
    Empty input yields an empty list.
    """
    top: list = []
    # Stack of (open_line, open_col, items) for unclosed lists.
    stack: list = []
    # Pending quote marks are transparent, but a quote must precede a form.
    quote_pending = False

    def emit(node: SExpr):
        nonlocal quote_pending
        quote_pending = False
        if stack:
            stack[-1][2].append(node)
        else:
            top.append(node)

    for kind, value, line, col in _tokenize(text):
        if kind == "(":
            stack.append((line, col, []))
            quote_pending = False
        elif kind == ")":
            if not stack:
                raise SexprSyntaxError("unbalanced ')'", line, col)
            oline, ocol, items = stack.pop()
            emit(SList(tuple(items), oline, ocol))
        elif kind == "'":
            quote_pending = True
        else:
            emit(_make_atom(value, line, col))
    if stack:
        oline, ocol, _ = stack[-1]
        raise SexprSyntaxError("unbalanced '(' is never closed", oline, ocol)
    if quote_pending:
        raise SexprSyntaxError("dangling quote at end of input")
    return top


def _text(node: SExpr):
    if isinstance(node, SAtom):
        return (), lambda _: str(node.value)
    return node.items, lambda parts: "(" + " ".join(parts) + ")"


def to_text(node: SExpr) -> str:
    """Print a canonical form: parse(to_text(x)) == x."""
    return fold(node, _text)
