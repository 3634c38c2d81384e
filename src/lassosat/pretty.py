"""Render formulas back to s-expression text (diagnostics, round-trips).

The spellings come from inverting lassosat.specfile.OPERATORS, the table the
parser reads, so the two cannot disagree.
"""

from __future__ import annotations

from .errors import FormulaError
from .formula import (
    AndCase,
    ArrayRef,
    Atom,
    Cond,
    Exists,
    Forall,
    Formula,
    ItemRef,
    OrCase,
    fold,
)
from .sexpr import SAtom, SList, to_text
from .specfile import OPERATORS

# node class -> [(fixed field values, spelling, layout)]: a later spelling
# with the same fixed values replaces an earlier one (LASTS_EE over LASTS),
# and entries with more fixed fields come first (UNTIL_EE_>= fixes hi=None)
_by_class: dict = {}
for _name, (_cls, _layout, _fixed) in OPERATORS.items():
    _by_class.setdefault(_cls, {})[tuple(_fixed.items())] = (_name, _layout)
_SPELLINGS = {
    cls: sorted([(fixed, name, layout) for fixed, (name, layout) in entries.items()],
                key=lambda entry: -len(entry[0]))
    for cls, entries in _by_class.items()
}


def _spelling(f: Formula):
    for fixed, name, layout in _SPELLINGS.get(type(f), ()):
        if all(getattr(f, k) == v for k, v in fixed):
            return SAtom(name), layout
    raise FormulaError(f"cannot print {type(f).__name__}")


def _form(*parts) -> SList:
    return SList(tuple(p if isinstance(p, (SAtom, SList)) else SAtom(p) for p in parts))


def _expand(f: Formula):
    """Fold step: the subformulas of f, then f's SExpr built from theirs."""
    if isinstance(f, Atom) and f.kind == "prop":
        form = _form(_spelling(f)[0], f.name, *f.args)
    elif isinstance(f, Atom):  # a lowered item/array cell prints as its reference
        form = _form(f.name + "=", *f.args)
    elif isinstance(f, ItemRef):
        form = _form(f.name + "=", f.value)
    elif isinstance(f, ArrayRef):
        form = _form(f.name + "=", f.index, f.value)
    elif isinstance(f, Cond):
        return _parts(f.op, f.args)
    else:
        return _expand_operator(f)
    return (), lambda _: form


def _parts(head, parts):
    """Fold step of (head part...): the fold prints the formula parts."""

    def build(vals):
        vals = iter(vals)
        return _form(head, *(next(vals) if isinstance(p, Formula) else p for p in parts))

    return [p for p in parts if isinstance(p, Formula)], build


def _expand_operator(f: Formula):
    head, layout = _spelling(f)
    if isinstance(f, (Forall, Exists)):
        cond = () if f.cond is None else (f.cond,)
        return _parts(head, (f.var, _form(*f.domain), *cond, f.body))
    if isinstance(f, (AndCase, OrCase)):
        subs = [x for branch in f.branches for x in branch]
        if f.else_body is not None:
            subs.append(f.else_body)

        def build(vals):
            bindings = _form(*(p for var, dom in f.bindings for p in (var, _form(*dom))))
            parts = [_form(*vals[i:i + 2]) for i in range(0, 2 * len(f.branches), 2)]
            if f.else_body is not None:
                parts.append(_form("ELSE", vals[-1]))
            return _form(head, bindings, *parts)

        return subs, build
    if not layout:
        return (), lambda _: head
    if layout == ("items",):
        return _parts(head, f.items)
    return _parts(head, [getattr(f, field) for field in layout])


def to_sexpr(f: Formula):
    """Formula -> SExpr; parsing the result yields a structurally equal AST."""
    return fold(f, _expand)


def formula_text(f: Formula) -> str:
    return to_text(to_sexpr(f))
