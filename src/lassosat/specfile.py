"""Spec file parser: s-expression forms -> validated SpecDocument.

Top-level sections:

    (define-item NAME DOMAIN)
    (define-array NAME INDEX-DOMAIN VALUE-DOMAIN)
    (declare ENTRY ...)          ; optional usage/arity declarations
    (init FORMULA)               ; holds at instant 0
    (trans FORMULA ...)          ; each holds at every instant
    (property FORMULA)
    (history (at N FACT ...) ... (loop N) (pool N))
    (bound N) (engine mono|bi) (loop-free) (solver NAME)

One table per level (_SECTIONS, _HISTORY_ENTRIES) gives each form's
operand count and whether it may repeat: define-item, define-array,
declare, trans and at may; every other form sets one field and comes once.
The define-item and define-array forms are read before the others, so a
section may name an item or array that a later form defines.

A DOMAIN is a literal list of symbols/integers or (range LO HI), which
expands to the ascending integer list LO..HI.  Formulas use the operator
spellings of OPERATORS below, the one operator table: each spelling maps to
its node class, the node fields its operands fill in source order, and the
fields it fixes (endpoint variant, a missing upper bound).  The parser reads
operands from it and lassosat.pretty prints by inverting it.  Atoms,
quantifiers and cases have their own small handlers; (name= v) references a
declared item and (name= i v) a declared array.  Conditions (eql/equal/</<=/
not/and/or) may appear wherever a formula is expected and are evaluated when
quantifiers expand; symbols not bound by an enclosing quantifier are treated
as constants.  Parsing is one explicit-stack fold (lassosat.formula.fold), as
are desugaring and printing, so nesting depth is not limited by Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from .declarations import ArrayDecl, Declarations, ItemDecl
from .errors import SpecFormatError
from .formula import (
    Alw,
    Alwf,
    Alwp,
    And,
    AndCase,
    ArrayRef,
    Atom,
    BoundedSince,
    BoundedUntil,
    Cond,
    Dist,
    Exists,
    FalseF,
    Forall,
    Formula,
    Futr,
    Iff,
    Implies,
    ItemRef,
    Lasted,
    Lasts,
    LastTime,
    Next,
    NextTime,
    Not,
    Or,
    OrCase,
    Past,
    Release,
    Since,
    SinceVar,
    Som,
    Somf,
    Somp,
    Trigger,
    TrueF,
    Until,
    UntilVar,
    WithinF,
    WithinP,
    Yesterday,
    Zeta,
    fold,
)
from .sexpr import SAtom, SExpr, SList, read_sexprs, to_text
from .trace import PartialHistory

_VARIANTS4 = ("ee", "ie", "ei", "ii")
_COND_OPS = {"EQL", "EQUAL", "<", "<=", "NOT", "AND", "OR"}
_OPERANDS = ("sub", "left", "right")  # formula fields; the other fields are terms

# spelling -> (node class, fields in source order, fixed field values).  The
# layout ("items",) takes any number of operands; None marks the forms with
# their own handlers, which bind variables or declarations.
OPERATORS = {
    "TRUE": (TrueF, (), {}),
    "FALSE": (FalseF, (), {}),
    "&&": (And, ("items",), {}),
    "||": (Or, ("items",), {}),
    "!!": (Not, ("sub",), {}),
    "->": (Implies, ("left", "right"), {}),
    "<->": (Iff, ("left", "right"), {}),
    "NEXT": (Next, ("sub",), {}),
    "YESTERDAY": (Yesterday, ("sub",), {}),
    "ZETA": (Zeta, ("sub",), {}),
    "UNTIL": (Until, ("left", "right"), {}),
    "SINCE": (Since, ("left", "right"), {}),
    "RELEASE": (Release, ("left", "right"), {}),
    "TRIGGER": (Trigger, ("left", "right"), {}),
    "FUTR": (Futr, ("sub", "offset"), {}),
    "PAST": (Past, ("sub", "offset"), {}),
    "DIST": (Dist, ("sub", "offset"), {}),
    "SOM": (Som, ("sub",), {}),
    "ALW": (Alw, ("sub",), {}),
    "-P-": (Atom, None, {}),
    "-A-": (Forall, None, {}),
    "-E-": (Exists, None, {}),
    "AND-CASE": (AndCase, None, {}),
    "OR-CASE": (OrCase, None, {}),
}

# the bare family names come first, so printing picks the suffixed spelling
for _fam, _cls in (("LASTS", Lasts), ("LASTED", Lasted), ("WITHINF", WithinF),
                   ("WITHINP", WithinP), ("NEXTTIME", NextTime), ("LASTTIME", LastTime)):
    OPERATORS[_fam] = (_cls, ("sub", "offset"), {"variant": "ee"})
    for _v in _VARIANTS4:
        OPERATORS[f"{_fam}_{_v.upper()}"] = (_cls, ("sub", "offset"), {"variant": _v})

for _fam, _cls in (("SOMF", Somf), ("SOMP", Somp), ("ALWF", Alwf), ("ALWP", Alwp)):
    OPERATORS[_fam] = (_cls, ("sub",), {"variant": "e"})
    for _v in "ei":
        OPERATORS[f"{_fam}_{_v.upper()}"] = (_cls, ("sub",), {"variant": _v})

for _fam, _cls, _bcls in (("UNTIL", UntilVar, BoundedUntil), ("SINCE", SinceVar, BoundedSince)):
    for _v in _VARIANTS4:
        _name = f"{_fam}_{_v.upper()}"
        OPERATORS[_name] = (_cls, ("left", "right"), {"variant": _v})
        OPERATORS[_name + "_<=_<="] = (_bcls, ("lo", "hi", "left", "right"), {"variant": _v})
        OPERATORS[_name + "_>="] = (_bcls, ("lo", "left", "right"), {"variant": _v, "hi": None})


@dataclass
class SpecDocument:
    """A parsed, validated spec file."""

    declarations: Declarations = field(default_factory=Declarations)
    init: Optional[Formula] = None
    transitions: List[Formula] = field(default_factory=list)
    property: Optional[Formula] = None
    # per init, trans or property formula, the (line, column) of its form,
    # where an error that desugaring it raises is located
    origins: Dict[Formula, Tuple[int, int]] = field(
        default_factory=dict, compare=False, repr=False)
    history: Optional[PartialHistory] = None
    bound: Optional[int] = None
    engine: Optional[str] = None
    loop_free: bool = False
    solver: Optional[str] = None


def _err(msg: str, node: SExpr) -> SpecFormatError:
    return SpecFormatError(msg, node.line, node.col)


def _symbol(node: SExpr, what: str) -> str:
    if not (isinstance(node, SAtom) and node.is_symbol):
        raise _err(f"expected a symbol for {what}, got {to_text(node)}", node)
    return node.value


def _term(node: SExpr):
    if isinstance(node, SAtom):
        return node.value
    raise _err(f"expected a constant or variable, got {to_text(node)}", node)


def _int(node: SExpr, what: str, least=None) -> int:
    if not (isinstance(node, SAtom) and node.is_int):
        raise _err(f"expected an integer for {what}, got {to_text(node)}", node)
    if least is not None and node.value < least:
        raise _err(f"{what} must be >= {least}", node)
    return node.value


def _domain(node: SExpr):
    """Literal domain list, with (range lo hi) expanded in place."""
    if not isinstance(node, SList):
        raise _err(f"expected a domain list, got {to_text(node)}", node)
    if (len(node) == 3 and isinstance(node[0], SAtom) and node[0].value == "RANGE"):
        lo, hi = _int(node[1], "range"), _int(node[2], "range")
        return tuple(range(lo, hi + 1))
    return tuple(_term(item) for item in node.items)


def _operator(name, cls, layout, fixed, node):
    """Fold step of a table operator: its operands, then the node."""
    args = node.items[1:]
    if layout == ("items",):
        return [(a, False) for a in args], lambda subs: cls(tuple(subs))
    if len(args) != len(layout):
        raise _err(f"{name} expects {len(layout)} argument(s), got {len(args)}", node)
    given = dict(zip(layout, args))

    def build(subs):
        subs = iter(subs)
        values = {f: next(subs) if f in _OPERANDS else _term(a) for f, a in given.items()}
        values.update(fixed)
        return cls(*(values[f] for f in cls._fields))

    return [(a, False) for f, a in given.items() if f in _OPERANDS], build


class _FormulaParser:
    """Formula parser over OPERATORS with inline declaration checks.

    One `fold` over (form, is-condition) tasks: a form is checked when the
    walk reaches it, depth-first and left to right, and its node is built
    once its operands are.
    """

    def __init__(self, decls: Declarations, register: bool = True):
        self.decls = decls
        # a parser of history facts names atoms without registering them
        self.register = decls.register_atom if register else lambda name, arity: None
        self._special = {Atom: self._atom, Forall: self._quant, Exists: self._quant,
                         AndCase: self._case, OrCase: self._case}

    def parse(self, node: SExpr) -> Formula:
        return fold((node, False), self._expand)

    def _expand(self, task):
        node, is_cond = task
        if is_cond:
            return self._cond(node)
        if isinstance(node, SAtom):
            entry = OPERATORS.get(node.value)
            if entry is not None and entry[1] == ():
                return (), lambda _: entry[0]()
            raise _err(
                f"bare symbol {node.value} is not a formula; write (-P- {node.value})",
                node,
            )
        if len(node) == 0:
            raise _err("empty list is not a formula", node)
        head = node[0]
        if not (isinstance(head, SAtom) and head.is_symbol):
            raise _err(f"formula must start with an operator, got {to_text(head)}", head)
        name = head.value

        entry = OPERATORS.get(name)
        if entry is not None:
            cls, layout, fixed = entry
            if layout is None:
                return self._special[cls](cls, node)
            return _operator(name, cls, layout, fixed, node)
        if name in _COND_OPS:
            return self._cond(node)
        if name.endswith("=") and len(name) > 1:
            ref = self._reference(name[:-1], node)
            return (), lambda _: ref
        raise _err(f"unknown operator {name}", head)

    def _atom(self, cls, node):
        if len(node) < 2:
            raise _err("(-P- ...) needs a proposition name", node)
        pname = _symbol(node[1], "proposition name")
        args = tuple(_term(x) for x in node.items[2:])
        self.register(pname, len(args))
        atom = cls(pname, args)
        return (), lambda _: atom

    def _quant(self, cls, node):
        if len(node) not in (4, 5):
            raise _err("quantifier expects (var domain [condition] body)", node)
        var = _symbol(node[1], "quantifier variable")
        domain = _domain(node[2])
        if not domain:
            raise _err("quantifier domain is empty", node[2])
        if len(node) == 5:
            return [(node[3], True), (node[4], False)], lambda v: cls(var, domain, v[1], v[0])
        return [(node[3], False)], lambda v: cls(var, domain, v[0], None)

    def _cond(self, node: SExpr):
        if not isinstance(node, SList) or len(node) == 0:
            raise _err(f"expected a condition, got {to_text(node)}", node)
        op = _symbol(node[0], "condition operator")
        if op not in _COND_OPS:
            raise _err(f"unknown condition operator {op}", node[0])
        if op in ("EQL", "EQUAL", "<", "<="):
            if len(node) != 3:
                raise _err(f"({op} ...) expects 2 terms", node)
            cond = Cond(op, (_term(node[1]), _term(node[2])))
            return (), lambda _: cond
        if op == "NOT" and len(node) != 2:
            raise _err("(not ...) expects 1 condition", node)
        return [(x, True) for x in node.items[1:]], lambda args: Cond(op, tuple(args))

    def _reference(self, name, node) -> Formula:
        if name in self.decls.items:
            if len(node) != 2:
                raise _err(f"({name.lower()}= ...) expects one value", node)
            return ItemRef(name, _term(node[1]))
        if name in self.decls.arrays:
            if len(node) != 3:
                raise _err(f"({name.lower()}= ...) expects index and value", node)
            return ArrayRef(name, _term(node[1]), _term(node[2]))
        raise _err(f"reference to undeclared item/array {name}", node)

    def _case(self, cls, node):
        if len(node) < 2 or not isinstance(node[1], SList):
            raise _err("case construct expects a bindings list first", node)
        raw = node[1].items
        if len(raw) % 2 != 0:
            raise _err("case bindings must alternate variable and domain", node[1])
        bindings = []
        for i in range(0, len(raw), 2):
            var = _symbol(raw[i], "case variable")
            dom = _domain(raw[i + 1])
            if not dom:
                raise _err("case binding domain is empty", raw[i + 1])
            bindings.append((var, dom))

        def parts():
            has_else = False
            for br in node.items[2:]:
                if not isinstance(br, SList) or len(br) != 2:
                    raise _err("case branch must be (guard body) or (else body)", br)
                if isinstance(br[0], SAtom) and br[0].value == "ELSE":
                    if has_else:
                        raise _err("multiple else branches", br)
                    has_else = True
                    yield br[1], False
                else:
                    if has_else:
                        raise _err("else branch must come last", br)
                    yield br[0], False
                    yield br[1], False

        def build(subs):
            # each branch gives a guard and a body, an else branch one body
            else_body = subs.pop() if len(subs) % 2 else None
            return cls(tuple(bindings), tuple(zip(subs[::2], subs[1::2])), else_body)

        return parts(), build


def parse_formula(node: SExpr, decls: Optional[Declarations] = None) -> Formula:
    """Parse one formula form (standalone use and tests)."""
    return _FormulaParser(decls if decls is not None else Declarations()).parse(node)


def _entry_atom(form: SExpr, parser: _FormulaParser, what: str) -> Atom:
    """The atom a declare entry or history fact names: a symbol (a plain
    atom), an atom, or an item or array reference."""
    if isinstance(form, SAtom) and form.is_symbol:
        parser.register(form.value, 0)
        return Atom(form.value)
    parsed = parser.parse(form)
    if isinstance(parsed, Atom):
        return parsed
    if isinstance(parsed, ItemRef):
        return parser.decls.lower_item(parsed.name, parsed.value)
    if isinstance(parsed, ArrayRef):
        return parser.decls.lower_array(parsed.name, parsed.index, parsed.value)
    raise _err(f"{what} must be atoms or item/array references", form)


def _facts(hist, parser: _FormulaParser, args) -> None:
    """Add the facts of (at N FACT ...): each an atom or its (!! ...)."""
    instant = _int(args[0], "history instant", 0)
    for form in args[1:]:
        negated = (isinstance(form, SList) and len(form) == 2
                   and isinstance(form[0], SAtom) and form[0].value == "!!")
        atom = _entry_atom(form[1] if negated else form, parser, "history facts")
        hist.facts.append((instant, atom, not negated))


def _history(doc, parser: _FormulaParser, args) -> PartialHistory:
    """Facts name atoms without registering them: the encoder rejects one
    that no other section declares or uses, as it does a history file's."""
    hist = SimpleNamespace(facts=[], loop_at=None, pool_at=None)
    lookup = _FormulaParser(parser.decls, register=False)
    _read(args, _HISTORY_ENTRIES, hist, lookup, "history entry")
    return PartialHistory(tuple(hist.facts), hist.loop_at, hist.pool_at)


def _formula(doc, parser: _FormulaParser, node: SExpr) -> Formula:
    """A section's formula, its form's position kept in `doc.origins`."""
    f = parser.parse(node)
    doc.origins.setdefault(f, (node.line, node.col))
    return f


def _engine(doc, parser: _FormulaParser, args) -> str:
    engine = _symbol(args[0], "engine").lower()
    if engine not in ("mono", "bi"):
        raise _err(f"unknown engine {engine}", args[0])
    return engine


# keyword -> (usage, fewest and most operands, field, reader).  A reader
# gets the target, the formula parser and the operands.  A form with a
# field may come once, and its reader returns the field's value; a form
# without one may repeat, and its reader adds to the target itself.
_MANY = float("inf")
_SECTIONS = {
    "DEFINE-ITEM": ("(define-item NAME DOMAIN)", 2, 2, None, lambda d, p, a: p.decls.add_item(
        ItemDecl(_symbol(a[0], "item name"), _domain(a[1])))),
    "DEFINE-ARRAY": ("(define-array NAME INDEX-DOMAIN VALUE-DOMAIN)", 3, 3, None,
                     lambda d, p, a: p.decls.add_array(ArrayDecl(
                         _symbol(a[0], "array name"), _domain(a[1]), _domain(a[2])))),
    "DECLARE": ("(declare ENTRY ...)", 0, _MANY, None,
                lambda d, p, a: [_entry_atom(x, p, "declare entries") for x in a]),
    "INIT": ("(init FORMULA)", 1, 1, "init", lambda d, p, a: _formula(d, p, a[0])),
    "TRANS": ("(trans FORMULA ...)", 1, _MANY, None,
              lambda d, p, a: d.transitions.extend(_formula(d, p, x) for x in a)),
    "PROPERTY": ("(property FORMULA)", 1, 1, "property",
                 lambda d, p, a: _formula(d, p, a[0])),
    "HISTORY": ("(history ENTRY ...)", 0, _MANY, "history", _history),
    "BOUND": ("(bound N)", 1, 1, "bound", lambda d, p, a: _int(a[0], "bound", 1)),
    "ENGINE": ("(engine mono|bi)", 1, 1, "engine", _engine),
    "LOOP-FREE": ("(loop-free)", 0, 0, "loop_free", lambda d, p, a: True),
    "SOLVER": ("(solver NAME)", 1, 1, "solver", lambda d, p, a: _symbol(a[0], "solver").lower()),
}
_HISTORY_ENTRIES = {
    "AT": ("(at N FACT ...)", 1, _MANY, None, _facts),
    "LOOP": ("(loop N)", 1, 1, "loop_at", lambda h, p, a: _int(a[0], "loop instant")),
    "POOL": ("(pool N)", 1, 1, "pool_at", lambda h, p, a: _int(a[0], "pool instant")),
}


def _read(forms, table, target, parser: _FormulaParser, what: str) -> None:
    """Read `forms` into `target` through `table`, with one shape rule (a
    known keyword, a count of operands in range) and one rule that a form
    with a field comes once.  A SpecFormatError that a reader raises with
    no location (a declaration's own check) is located at its form."""
    seen = set()
    for form in forms:
        if not isinstance(form, SList) or len(form) == 0:
            raise _err(f"{what} expected, got {to_text(form)}", form)
        head = _symbol(form[0], f"{what} keyword")
        if head not in table:
            raise _err(f"unknown {what} {head}", form[0])
        usage, fewest, most, name, reader = table[head]
        args = form.items[1:]
        if not fewest <= len(args) <= most:
            raise _err(f"{usage} expected, got {len(args)} operand(s)", form)
        if name in seen:
            raise _err(f"duplicate {head.lower()} {what}", form)
        try:
            value = reader(target, parser, args)
        except SpecFormatError as exc:
            if exc.line:
                raise
            raise _err(str(exc), form) from None
        if name is not None:
            seen.add(name)
            setattr(target, name, value)


_DEFINITIONS = frozenset(("DEFINE-ITEM", "DEFINE-ARRAY"))


def _defines(form) -> bool:
    """Whether a top-level form defines an item or an array."""
    return (isinstance(form, SList) and len(form) > 0 and isinstance(form[0], SAtom)
            and form[0].value in _DEFINITIONS)


def parse_spec(forms) -> SpecDocument:
    """Assemble and validate a SpecDocument from top-level forms.  The item
    and array definitions are read first, each group in source order, so a
    section may reference an item or array defined after it."""
    doc = SpecDocument()
    ordered = sorted(forms, key=lambda form: not _defines(form))  # a stable sort
    _read(ordered, _SECTIONS, doc, _FormulaParser(doc.declarations), "section")
    return doc


def parse_spec_text(text: str) -> SpecDocument:
    return parse_spec(read_sexprs(text))


def load_spec(path) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())
