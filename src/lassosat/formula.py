"""Formula AST: the core PLTL fragment plus the metric / quantifier / case sugar.

Core nodes survive desugaring and are what the encoder accepts:

    Atom  TrueF  FalseF  Not  And  Or  Implies  Iff
    Next  Yesterday  Zeta  Until  Since  Release  Trigger

Everything else (metric families with endpoint variants, existential and
universal finite quantification, and-case/or-case, finite-domain variable
references) is sugar removed by lassosat.desugar.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML 2006).  A constructor call looks its class and field
values up in one weak table and returns the node already there, so each
structure has exactly one live object: equal subtrees are shared, and
hashing and equality go by identity, O(1) however deep the formula.
Construct nodes only through their constructors (`Next(f)`, `Atom("p")`,
...); copy, pickle and `dataclasses.replace` go through them as well, and
copy and pickle see a formula as a flat postorder list of its nodes, so
they work at any depth.
Nodes are frozen dataclasses, so formulas are immutable; `repr` prints the
s-expression text (lassosat.pretty).  Tree walks that build a value per
node (parsing, desugaring, printing) go through `fold`, which keeps its own
stack; `closure` and `temporal_depth` walk the shared DAG once per node.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Optional, Tuple, Union

Term = Union[int, str]  # atom arguments, domain elements, offsets (str = symbol or bound var)

# (class, field values...) -> the canonical node; an entry goes when its node dies
_NODES: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()


class _Interned(type):
    """Metaclass whose constructor call returns the canonical node."""

    def __call__(cls, *args, **kwargs):
        node = None
        if kwargs or len(args) != len(cls._fields):
            # defaults or keywords: let the dataclass bind and check them
            node = super().__call__(*args, **kwargs)
            args = node._values()
        key = (cls, *args)
        canon = _NODES.get(key)
        if canon is None:
            canon = node if node is not None else super().__call__(*args)
            _NODES[key] = canon
        return canon


class Formula(metaclass=_Interned):
    """Marker base class; all nodes derive from this."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _depth: Optional[Tuple[int, int]] = None  # temporal_depth, once computed

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        # a flat postorder node list, so copy and pickle do not recurse
        # once per nesting level
        nodes = list(_postorder(self, set(), _subnodes))
        index = {node: i for i, node in enumerate(nodes)}
        return _rebuild, ([(type(n), _refs(n._values(), index)) for n in nodes],)

    def __repr__(self):
        from .pretty import formula_text

        return formula_text(self)


def _node(cls):
    """Make a node class: a frozen dataclass with identity hash and equality."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    return cls


# ---------------------------------------------------------------------------
# core fragment
# ---------------------------------------------------------------------------


@_node
class Atom(Formula):
    """Propositional letter, predicate instance, or lowered item/array cell.

    kind is "prop" for (-P- ...) atoms, "item" for NAME=VALUE cells (args =
    (value,)), "array" for NAME[IDX]=VALUE cells (args = (index, value)).
    """

    name: str
    args: Tuple[Term, ...] = ()
    kind: str = "prop"

    @property
    def key(self) -> str:
        """Compact, space-free identity used in DIMACS comments."""
        if self.kind == "item":
            return f"{self.name}={self.args[0]}"
        if self.kind == "array":
            return f"{self.name}[{self.args[0]}]={self.args[1]}"
        if self.args:
            return f"{self.name}({','.join(str(a) for a in self.args)})"
        return self.name

    @property
    def display(self) -> str:
        """History-file rendering (items and arrays get spaced '=' forms)."""
        if self.kind == "item":
            return f"{self.name} = {self.args[0]}"
        if self.kind == "array":
            return f"{self.name}[{self.args[0]}] = {self.args[1]}"
        return self.key


@_node
class TrueF(Formula):
    pass


@_node
class FalseF(Formula):
    pass


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    items: Tuple[Formula, ...]


@_node
class Or(Formula):
    items: Tuple[Formula, ...]


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    sub: Formula


@_node
class Yesterday(Formula):
    sub: Formula


@_node
class Zeta(Formula):
    """Weak yesterday: true at the origin of mono-infinite time."""

    sub: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class Since(Formula):
    left: Formula
    right: Formula


@_node
class Release(Formula):
    left: Formula
    right: Formula


@_node
class Trigger(Formula):
    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# sugar: the metric operator layer
# ---------------------------------------------------------------------------


@_node
class Dist(Formula):
    """Signed distance: positive offsets look forward, negative backward."""

    sub: Formula
    offset: Term


@_node
class Futr(Formula):
    sub: Formula
    offset: Term


@_node
class Past(Formula):
    sub: Formula
    offset: Term


@_node
class Lasts(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"  # ee / ei / ie / ii


@_node
class Lasted(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"


@_node
class WithinF(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"


@_node
class WithinP(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"


@_node
class NextTime(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"


@_node
class LastTime(Formula):
    sub: Formula
    offset: Term
    variant: str = "ee"


@_node
class Somf(Formula):
    sub: Formula
    variant: str = "e"  # e = strict, i = includes now


@_node
class Somp(Formula):
    sub: Formula
    variant: str = "e"


@_node
class Alwf(Formula):
    sub: Formula
    variant: str = "e"


@_node
class Alwp(Formula):
    sub: Formula
    variant: str = "e"


@_node
class Som(Formula):
    """Somewhere in time: past, present or future."""

    sub: Formula


@_node
class Alw(Formula):
    """Always: every instant of the whole time domain."""

    sub: Formula


@_node
class UntilVar(Formula):
    left: Formula
    right: Formula
    variant: str = "ie"  # plain until == until_ie


@_node
class SinceVar(Formula):
    left: Formula
    right: Formula
    variant: str = "ie"


@_node
class BoundedUntil(Formula):
    """until_xy_<=_<= (hi set) or until_xy_>= (hi None)."""

    left: Formula
    right: Formula
    lo: Term
    hi: Optional[Term]
    variant: str = "ie"


@_node
class BoundedSince(Formula):
    left: Formula
    right: Formula
    lo: Term
    hi: Optional[Term]
    variant: str = "ie"


# ---------------------------------------------------------------------------
# sugar: quantifiers, cases, conditions, finite-domain references
# ---------------------------------------------------------------------------


@_node
class Forall(Formula):
    var: str
    domain: Tuple[Term, ...]
    body: Formula
    cond: Optional["Cond"] = None


@_node
class Exists(Formula):
    var: str
    domain: Tuple[Term, ...]
    body: Formula
    cond: Optional["Cond"] = None


@_node
class Cond(Formula):
    """Expansion-time condition over bound variables and literals.

    op in {EQL, EQUAL, <, <=, NOT, AND, OR}; args are terms for the
    comparisons and nested Cond nodes for NOT/AND/OR.
    """

    op: str
    args: tuple


@_node
class AndCase(Formula):
    bindings: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    branches: Tuple[Tuple[Formula, Formula], ...]  # (guard, body) pairs
    else_body: Optional[Formula] = None


@_node
class OrCase(Formula):
    bindings: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    branches: Tuple[Tuple[Formula, Formula], ...]
    else_body: Optional[Formula] = None


@_node
class ItemRef(Formula):
    """(name= value) before lowering to a one-hot Atom."""

    name: str
    value: Term


@_node
class ArrayRef(Formula):
    """(name= index value) before lowering."""

    name: str
    index: Term
    value: Term


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

TRUE = TrueF()
FALSE = FalseF()

_CORE_LEAF = (Atom, TrueF, FalseF)
_CORE_UNARY = (Not, Next, Yesterday, Zeta)
_CORE_BINARY = (Implies, Iff, Until, Since, Release, Trigger)

FUTURE_OPS = (Next, Until, Release)
PAST_OPS = (Yesterday, Zeta, Since, Trigger)


def children(f: Formula) -> Tuple[Formula, ...]:
    """Immediate subformulas of a core node (sugar nodes are not supported)."""
    if isinstance(f, _CORE_LEAF):
        return ()
    if isinstance(f, _CORE_UNARY):
        return (f.sub,)
    if isinstance(f, _CORE_BINARY):
        return (f.left, f.right)
    if isinstance(f, (And, Or)):
        return f.items
    raise TypeError(f"not a core formula node: {type(f).__name__}")


_END = object()


def fold(root, expand):
    """Bottom-up value of `root`, computed with an explicit stack.

    `expand(x)` returns `(children, combine)`: the child tasks of x and a
    function from the list of their values to the value of x.  Children are
    drawn one at a time, depth-first and left to right, and each is finished
    before the next is drawn, so a generator of children can run its checks
    in source order.  Depth is not limited by Python's recursion limit.
    """
    children, combine = expand(root)
    stack = [(iter(children), combine, [])]
    while True:
        pending, combine, values = stack[-1]
        child = next(pending, _END)
        if child is _END:
            stack.pop()
            value = combine(values)
            if not stack:
                return value
            stack[-1][2].append(value)
        else:
            children, combine = expand(child)
            stack.append((iter(children), combine, []))


def _subnodes(f: Formula) -> list:
    """The nodes among f's field values, tuples searched, in field order
    (sugar nodes included)."""
    out = []
    stack = [f._values()]
    while stack:
        value = stack.pop()
        if isinstance(value, Formula):
            out.append(value)
        elif isinstance(value, tuple):
            stack.extend(reversed(value))
    return out


# Field values are hashable, so they hold no lists: in a reduced formula a
# one-element list [i] stands for the i-th node of its postorder list.
def _refs(value, index):
    if isinstance(value, Formula):
        return [index[value]]
    if isinstance(value, tuple):
        return tuple(_refs(v, index) for v in value)
    return value


def _deref(value, built):
    if isinstance(value, list):
        return built[value[0]]
    if isinstance(value, tuple):
        return tuple(_deref(v, built) for v in value)
    return value


def _rebuild(table):
    """The root of a reduced formula, every node built through its
    (interning) constructor."""
    built = []
    for cls, values in table:
        built.append(cls(*_deref(values, built)))
    return built[-1]


def _postorder(root: Formula, seen: set, subs=children):
    """Nodes under root not yet in `seen`, children first and left to right.

    `subs(node)` lists a node's children (by default core nodes only).  Each
    node is added to `seen` as it is yielded.  The walk keeps its own stack,
    so formula depth is not limited by Python's recursion limit.
    """
    if root in seen:
        return
    stack = [(root, iter(subs(root)))]
    while stack:
        node, pending = stack[-1]
        for c in pending:
            if c not in seen:
                stack.append((c, iter(subs(c))))
                break
        else:
            stack.pop()
            seen.add(node)
            yield node


def subformulas(f: Formula):
    """Postorder iteration over distinct subformulas of a core formula."""
    return _postorder(f, set())


def closure(formulas) -> list:
    """Ordered, de-duplicated list of all subformulas, children first."""
    out: list = []
    seen: set = set()
    for f in formulas:
        out.extend(_postorder(f, seen))
    return out


def classify(f: Formula) -> str:
    """Partition tag for the encoder: atom / bool / future / past."""
    if isinstance(f, Atom):
        return "atom"
    if isinstance(f, FUTURE_OPS):
        return "future"
    if isinstance(f, PAST_OPS):
        return "past"
    if isinstance(f, (TrueF, FalseF, Not, And, Or, Implies, Iff)):
        return "bool"
    raise TypeError(f"not a core formula node: {type(f).__name__}")


def temporal_depth(f: Formula) -> Tuple[int, int]:
    """(future nesting, past nesting) of a core formula.

    Computed once per node and kept on it (nodes are immutable and shared),
    with an explicit stack instead of recursion.
    """
    stack = [f]
    while stack:
        g = stack[-1]
        if g._depth is not None:
            stack.pop()
            continue
        subs = children(g)
        todo = [c for c in subs if c._depth is None]
        if todo:
            stack.extend(todo)
            continue
        fut = max((c._depth[0] for c in subs), default=0)
        past = max((c._depth[1] for c in subs), default=0)
        if isinstance(g, FUTURE_OPS):
            fut += 1
        elif isinstance(g, PAST_OPS):
            past += 1
        object.__setattr__(g, "_depth", (fut, past))
        stack.pop()
    return f._depth


def conj(items) -> Formula:
    """n-ary conjunction; empty -> true, singleton -> the formula itself."""
    items = tuple(items)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items) -> Formula:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)
