"""Lower the sugared formula language to the core fragment.

The metric families expand into next/yesterday chains; the endpoint variant
picks the closed/open ends of the offset range.  With the first subscript
governing the near endpoint (now) and the second the far endpoint (now +/- t):

    lasts_xy(A, t)      A at every offset d in [x=i ? 0 : 1, y=i ? t : t-1]
    withinf_xy(A, t)    A at some such offset  (== !lasts_xy(!A, t))
    lasted_xy / withinp_xy    the same ranges towards the past
    nexttime_xy(A, t)   A at offset t and at no earlier offset of the range
    until_xy(A, B)      some d >= (x=i ? 0 : 1) with B at d
                        and A on [x=i ? 0 : 1, d - (y=e ? 1 : 0)]

Plain `until` is until_ie (reflexive), plain `lasts` is lasts_ee, and the
som/alw families default to their strict (_e) forms.

Past chains come in two strengths: withinp and past need an actual witness
position, so they use yesterday chains (false beyond the origin); lasted is
the negation-dual of withinp, so it uses weak-yesterday chains (vacuously
true beyond the origin).

`desugar` is one `formula.fold` with one rule per operator family, so
nesting depth is not limited by Python's recursion limit.
"""

from __future__ import annotations

import warnings
from functools import partial

from .errors import FormulaError
from .formula import (
    FALSE,
    TRUE,
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
    conj,
    disj,
    fold,
)


def _fold_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    return Not(f)


def _fold_conj(items) -> Formula:
    kept = []
    for it in items:
        if isinstance(it, FalseF):
            return FALSE
        if not isinstance(it, TrueF):
            kept.append(it)
    return conj(kept)


def _fold_disj(items) -> Formula:
    kept = []
    for it in items:
        if isinstance(it, TrueF):
            return TRUE
        if not isinstance(it, FalseF):
            kept.append(it)
    return disj(kept)


def _fold_implies(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueF):
        return b
    if isinstance(a, FalseF) or isinstance(b, TrueF):
        return TRUE
    if isinstance(b, FalseF):
        return _fold_not(a)
    return Implies(a, b)


def _fold_iff(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueF):
        return b
    if isinstance(b, TrueF):
        return a
    if isinstance(a, FalseF):
        return _fold_not(b)
    if isinstance(b, FalseF):
        return _fold_not(a)
    return Iff(a, b)


def _mk_next(f: Formula) -> Formula:
    return f if isinstance(f, (TrueF, FalseF)) else Next(f)


def _mk_yesterday(f: Formula) -> Formula:
    return FALSE if isinstance(f, FalseF) else Yesterday(f)


def _mk_zeta(f: Formula) -> Formula:
    return TRUE if isinstance(f, TrueF) else Zeta(f)


def _mk_binary(cls, a: Formula, b: Formula) -> Formula:
    # until/since/release/trigger all collapse onto a constant right arm
    if isinstance(b, (TrueF, FalseF)):
        return b
    return cls(a, b)


def _chain(mk, f: Formula, n: int) -> Formula:
    """n links of `mk` (_mk_next, _mk_yesterday or _mk_zeta) around f."""
    for _ in range(n):
        f = mk(f)
    return f


def _resolve(term, env):
    if isinstance(term, str) and term in env:
        return env[term]
    return term


def _offset(term, env, op: str, minimum: int):
    value = _resolve(term, env)
    if not isinstance(value, int):
        raise FormulaError(f"{op}: offset must be an integer literal, got '{value}'")
    if value < minimum:
        raise FormulaError(f"{op}: offset {value} out of range (minimum {minimum})")
    return value


def eval_cond(c: Cond, env=None) -> bool:
    """Evaluate an expansion-time condition; unbound symbols are constants.

    and/or stop at their first deciding argument, so the arguments after it
    raise nothing: each node's value is a bool or the error it would raise.
    """
    env = env or {}

    def expand(c):
        if c.op in ("NOT", "AND", "OR"):
            return c.args, lambda values: _connective(c.op, values)
        value = _compare(c.op, *(_resolve(t, env) for t in c.args))
        return (), lambda _: value

    value = fold(c, expand)
    if isinstance(value, FormulaError):
        raise value
    return value


def _compare(op: str, a, b):
    if op in ("EQL", "EQUAL"):
        return a == b
    if op not in ("<", "<="):
        return FormulaError(f"unknown condition operator {op}")
    if not (isinstance(a, int) and isinstance(b, int)):
        return FormulaError(f"condition ({op} {a} {b}) compares non-integers")
    return a < b if op == "<" else a <= b


def _connective(op: str, values):
    decisive = op == "OR"  # the argument value that decides and/or
    for v in values:
        if isinstance(v, FormulaError):
            return v
        if op == "NOT":
            return not v
        if v == decisive:
            return decisive
    return not decisive


# ---------------------------------------------------------------------------
# metric expansion table
# ---------------------------------------------------------------------------


def _span(variant: str, t: int) -> range:
    near = 0 if variant[0] == "i" else 1
    far = t if variant[1] == "i" else t - 1
    return range(near, far + 1)


def _until_like(cls, mk, a: Formula, b: Formula, variant: str) -> Formula:
    """until_xy (cls Until, mk _mk_next) or since_xy (Since, _mk_yesterday)."""
    right = b if variant[1] == "e" else _fold_conj((a, b))
    body = _mk_binary(cls, a, right)
    return body if variant[0] == "i" else mk(body)


def _bounded(a, b, lo, hi, variant, cls, mk):
    near = 0 if variant[0] == "i" else 1
    strip = 1 if variant[1] == "e" else 0
    if hi is not None:
        clauses = []
        for d in range(max(lo, near), hi + 1):
            parts = [_chain(mk, b, d)] + [_chain(mk, a, dp) for dp in range(near, d - strip + 1)]
            clauses.append(_fold_conj(parts))
        return _fold_disj(clauses)
    if lo <= near:
        return _until_like(cls, mk, a, b, variant)
    prefix = [_chain(mk, a, dp) for dp in range(near, lo)]
    inner = _until_like(cls, mk, a, b, "i" + variant[1])
    return _fold_conj(prefix + [_chain(mk, inner, lo)])


# som/alw family -> (core operator, its constant left operand, strict step)
_SOM = {
    Somf: (Until, TRUE, _mk_next),
    Somp: (Since, TRUE, _mk_yesterday),
    Alwf: (Release, FALSE, _mk_next),
    Alwp: (Trigger, FALSE, _mk_zeta),
}


def _som(family, a: Formula, variant: str) -> Formula:
    cls, left, mk = _SOM[family]
    body = _mk_binary(cls, left, a)
    return body if variant == "i" else mk(body)


# ---------------------------------------------------------------------------
# case expansion (spec-level operation)
# ---------------------------------------------------------------------------


def expand_case(c) -> Formula:
    """Expand and-case/or-case into its quantified implication/disjunction form."""
    if not isinstance(c, (AndCase, OrCase)):
        raise FormulaError("expand_case expects an and-case/or-case node")
    guards = [g for g, _ in c.branches]
    if isinstance(c, AndCase):
        parts = [Implies(g, b) for g, b in c.branches]
        if c.else_body is not None:
            if guards:
                parts.append(Implies(conj([Not(g) for g in guards]), c.else_body))
            else:
                parts.append(c.else_body)
        body = conj(parts)
        wrap = Forall
    else:
        parts = [conj([g, b]) for g, b in c.branches]
        if c.else_body is not None:
            parts.append(conj([Not(g) for g in guards] + [c.else_body]))
        body = disj(parts) if parts else TRUE
        wrap = Exists
    for var, dom in reversed(c.bindings):
        body = wrap(var, dom, body)
    return body


# ---------------------------------------------------------------------------
# the desugarer: one fold, one rule per operator family
# ---------------------------------------------------------------------------


def desugar(f: Formula, declarations=None) -> Formula:
    """Expand every sugar node; the result is a core formula.

    When `declarations` is given, ground item/array references are lowered to
    their one-hot atoms as well; otherwise they pass through untouched.
    Idempotent on core formulas.
    """

    def expand(task):
        g, env = task
        if isinstance(g, _LEAVES):
            value = _leaf(g, env, declarations)
            return (), lambda _: value
        if isinstance(g, (Forall, Exists)):
            return _instances(g, env), _fold_conj if isinstance(g, Forall) else _fold_disj
        build = _rule(g, env)
        return [(x, env) for x in _operands(g)], build

    return fold((f, {}), expand)


_LEAVES = (Atom, TrueF, FalseF, ItemRef, ArrayRef, Cond)


def _leaf(f, env, decls) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.name, tuple(_resolve(t, env) for t in f.args), f.kind) if env else f
    if isinstance(f, ItemRef):
        value = _resolve(f.value, env)
        return decls.lower_item(f.name, value) if decls is not None else ItemRef(f.name, value)
    if isinstance(f, ArrayRef):
        index, value = _resolve(f.index, env), _resolve(f.value, env)
        if decls is not None:
            return decls.lower_array(f.name, index, value)
        return ArrayRef(f.name, index, value)
    if isinstance(f, Cond):
        return TRUE if eval_cond(f, env) else FALSE
    return f


def _instances(f, env):
    """Quantifier body tasks, one per domain element that passes the condition."""
    if not f.domain:
        raise FormulaError(f"quantifier over {f.var}: empty domain")
    if f.var in env:
        # the quantifier without its body: printing the body at every level
        # of a deep shadowing nest would take time quadratic in its depth
        head = repr(type(f)(f.var, f.domain, TRUE, f.cond))[: -len("TRUE)")] + "...)"
        # the frames above are fold (which draws this generator), desugar
        # and desugar's caller: the warning names the caller's line
        warnings.warn(
            f"quantifier variable {f.var} shadows an enclosing binding in {head}",
            stacklevel=4,
        )
    for elem in f.domain:
        inner = {**env, f.var: _resolve(elem, env)}
        if f.cond is None or eval_cond(f.cond, inner):
            yield f.body, inner


def _operands(f: Formula):
    if isinstance(f, (AndCase, OrCase)):
        return (expand_case(f),)
    if isinstance(f, (And, Or)):
        return f.items
    return [v for v in f._values() if isinstance(v, Formula)]


# node class -> its expansion from the desugared operands, for the families
# that check nothing of their own
_LIFTED = {
    Not: _fold_not,
    Implies: _fold_implies,
    Iff: _fold_iff,
    Next: _mk_next,
    Yesterday: _mk_yesterday,
    Zeta: _mk_zeta,
    **{cls: partial(_mk_binary, cls) for cls in (Until, Since, Release, Trigger)},
    Som: lambda a: _fold_disj([_som(Somp, a, "e"), a, _som(Somf, a, "e")]),
    Alw: lambda a: _fold_conj([_som(Alwp, a, "e"), a, _som(Alwf, a, "e")]),
    AndCase: lambda expanded: expanded,
    OrCase: lambda expanded: expanded,
}

# lasts/withinf/lasted/withinp -> (one-step builder, how the offsets combine)
_RANGES = {
    Lasts: (_mk_next, _fold_conj),
    WithinF: (_mk_next, _fold_disj),
    Lasted: (_mk_zeta, _fold_conj),
    WithinP: (_mk_yesterday, _fold_disj),
}

# the families that shift towards the future or the past -> (core operator,
# one-step builder)
_DIRECTION = {
    **dict.fromkeys((Futr, NextTime, UntilVar, BoundedUntil), (Until, _mk_next)),
    **dict.fromkeys((Past, LastTime, SinceVar, BoundedSince), (Since, _mk_yesterday)),
}


def _rule(f: Formula, env):
    """Run the checks that precede f's operands; return the function that
    builds f's expansion from its desugared operands."""
    t = type(f)
    name = t.__name__.lower()
    if t in _LIFTED:
        return lambda v: _LIFTED[t](*v)
    if t is And or t is Or:
        return _fold_conj if t is And else _fold_disj
    if t in _SOM:
        return lambda v: _som(t, v[0], f.variant)
    if t is Dist:
        n = _resolve(f.offset, env)
        if not isinstance(n, int):
            raise FormulaError(f"dist: offset must be an integer literal, got '{n}'")
        mk = _mk_next if n >= 0 else _mk_yesterday
        return lambda v: _chain(mk, v[0], abs(n))
    if t in _RANGES:
        mk, combine = _RANGES[t]
        n = _offset(f.offset, env, name, 1)
        return lambda v: combine([_chain(mk, v[0], d) for d in _span(f.variant, n)])
    if t not in _DIRECTION:
        raise FormulaError(f"cannot desugar {t.__name__}")
    cls, mk = _DIRECTION[t]
    if t in (Futr, Past):  # the offset is checked after the operand
        return lambda v: _chain(mk, v[0], _offset(f.offset, env, name, 0))
    if t in (NextTime, LastTime):
        n = _offset(f.offset, env, name, 1)
        return lambda v: _fold_conj(
            [_chain(mk, v[0], n)]
            + [_fold_not(_chain(mk, v[0], d)) for d in _span(f.variant, n) if d < n]
        )
    if t in (UntilVar, SinceVar):
        return lambda v: _until_like(cls, mk, *v, f.variant)
    op = f"bounded {cls.__name__.lower()}"
    lo = _offset(f.lo, env, op, 0)
    hi = None if f.hi is None else _offset(f.hi, env, op, lo)
    return lambda v: _bounded(*v, lo, hi, f.variant, cls, mk)
