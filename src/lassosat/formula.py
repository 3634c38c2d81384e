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
...).  A node is its own copy: `copy.copy` and `copy.deepcopy` return it.
Nodes do not pickle, since an unpickled node would not be the interned one.
A node class declares its fields as annotations, which are never evaluated:
`_fields` holds their names in order, and trailing fields may have a
class-level default.  Nodes are immutable (assigning or deleting an
attribute raises AttributeError); `repr` prints the s-expression text
(lassosat.pretty).  Tree walks that build a value per
node (parsing, desugaring, printing) go through `fold`, which keeps its own
stack; `closure` walks the shared DAG of a core formula once per node and
rejects sugar, and the encoder computes what it needs per node (nesting
depths, partitions) in one loop over that list.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple, Union

Term = Union[int, str]  # atom arguments, domain elements, offsets (str = symbol or bound var)

# (class, field values...) -> a weak reference to the canonical node; an
# entry goes when its node dies.  A plain dict: a WeakValueDictionary runs
# Python code in get, in set and in each KeyedRef it makes, which made
# building a fresh node about a third slower.
_NODES: "dict[tuple, _Entry]" = {}


class _Entry(weakref.ref):
    """A weak reference to a node that carries the node's key."""

    __slots__ = ("key",)


def _drop(entry, nodes=_NODES):
    """Weak-reference callback: remove a dead node's entry, unless a new
    node already took its key.  `nodes` is bound here so that the callback
    still works while the interpreter tears modules down."""
    if nodes.get(entry.key) is entry:
        del nodes[entry.key]


_MISSING = object()
_new = object.__new__
_set = object.__setattr__


class _Interned(type):
    """Metaclass whose constructor call returns the canonical node."""

    def __call__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            args = cls._bind(args, kwargs)
        key = (cls, *args)
        entry = _NODES.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        # a miss: fill a bare instance field by field, past the
        # immutability guard of Formula.__setattr__
        node = _new(cls)
        for name, value in zip(fields, args):
            _set(node, name, value)
        entry = _NODES[key] = _Entry(node, _drop)
        entry.key = key
        return node

    def _bind(cls, args, kwargs):
        """The field values of a call with keywords or omitted defaults.

        Raises TypeError on a missing, surplus or unknown argument.
        """
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = cls.__dict__.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(value)
        for name in kwargs:
            if name in fields:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return tuple(values)


class Formula(metaclass=_Interned):
    """Marker base class; all nodes derive from this."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # the default reduce would build a second node outside the intern
        # table, equal in structure but not identical to the first
        raise TypeError(f"{type(self).__name__}: interned formula nodes do not pickle")

    def __repr__(self):
        from .pretty import formula_text

        return formula_text(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"formula nodes are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"formula nodes are immutable: cannot delete {name!r}")


def _node(cls):
    """Make a node class: its fields are its own annotations, in order.

    Only their names are read, so no annotation is evaluated.  Hashing and
    equality stay object identity, which interning makes structural.
    """
    cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
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


def closure(formulas) -> list:
    """Ordered, de-duplicated list of all subformulas, children first.

    Core formulas only: a sugar node raises TypeError (`children`).  The
    walk keeps its own stack, so formula depth is not limited by Python's
    recursion limit.
    """
    out: list = []
    seen: set = set()
    for root in formulas:
        if root in seen:
            continue
        stack = [(root, iter(children(root)))]
        while stack:
            node, pending = stack[-1]
            for c in pending:
                if c not in seen:
                    stack.append((c, iter(children(c))))
                    break
            else:
                stack.pop()
                seen.add(node)
                out.append(node)
    return out


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
