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
"""

from __future__ import annotations

import warnings

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


def _next_chain(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = _mk_next(f)
    return f


def _yesterday_chain(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = _mk_yesterday(f)
    return f


def _zeta_chain(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = _mk_zeta(f)
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
    """Evaluate an expansion-time condition; unbound symbols are constants."""
    env = env or {}
    op = c.op
    if op in ("EQL", "EQUAL"):
        a, b = (_resolve(t, env) for t in c.args)
        return a == b
    if op in ("<", "<="):
        a, b = (_resolve(t, env) for t in c.args)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise FormulaError(f"condition ({op} {a} {b}) compares non-integers")
        return a < b if op == "<" else a <= b
    if op == "NOT":
        return not eval_cond(c.args[0], env)
    if op == "AND":
        return all(eval_cond(x, env) for x in c.args)
    if op == "OR":
        return any(eval_cond(x, env) for x in c.args)
    raise FormulaError(f"unknown condition operator {op}")


# ---------------------------------------------------------------------------
# metric expansion table
# ---------------------------------------------------------------------------


def _span(variant: str, t: int) -> range:
    near = 0 if variant[0] == "i" else 1
    far = t if variant[1] == "i" else t - 1
    return range(near, far + 1)


def _until_variant(a: Formula, b: Formula, variant: str) -> Formula:
    right = b if variant[1] == "e" else _fold_conj((a, b))
    body = _mk_binary(Until, a, right)
    return body if variant[0] == "i" else _mk_next(body)


def _since_variant(a: Formula, b: Formula, variant: str) -> Formula:
    right = b if variant[1] == "e" else _fold_conj((a, b))
    body = _mk_binary(Since, a, right)
    return body if variant[0] == "i" else _mk_yesterday(body)


def _bounded(a, b, lo, hi, variant, chain, inner_variant_ctor):
    near = 0 if variant[0] == "i" else 1
    strip = 1 if variant[1] == "e" else 0
    if hi is not None:
        clauses = []
        for d in range(max(lo, near), hi + 1):
            parts = [chain(b, d)] + [chain(a, dp) for dp in range(near, d - strip + 1)]
            clauses.append(_fold_conj(parts))
        return _fold_disj(clauses)
    if lo <= near:
        return inner_variant_ctor(a, b, variant)
    prefix = [chain(a, dp) for dp in range(near, lo)]
    inner = inner_variant_ctor(a, b, "i" + variant[1])
    return _fold_conj(prefix + [chain(inner, lo)])


def _somf(a: Formula, variant: str) -> Formula:
    body = _mk_binary(Until, TRUE, a)
    return body if variant == "i" else _mk_next(body)


def _somp(a: Formula, variant: str) -> Formula:
    body = _mk_binary(Since, TRUE, a)
    return body if variant == "i" else _mk_yesterday(body)


def _alwf(a: Formula, variant: str) -> Formula:
    body = _mk_binary(Release, FALSE, a)
    return body if variant == "i" else _mk_next(body)


def _alwp(a: Formula, variant: str) -> Formula:
    body = _mk_binary(Trigger, FALSE, a)
    return body if variant == "i" else _mk_zeta(body)


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
# the desugarer
# ---------------------------------------------------------------------------


def desugar(f: Formula, declarations=None) -> Formula:
    """Expand every sugar node; the result is a core formula.

    When `declarations` is given, ground item/array references are lowered to
    their one-hot atoms as well; otherwise they pass through untouched.
    Idempotent on core formulas.
    """
    return _ds(f, {}, declarations)


def _ds(f: Formula, env: dict, decls) -> Formula:
    if isinstance(f, Atom):
        if not env:
            return f
        return Atom(f.name, tuple(_resolve(t, env) for t in f.args), f.kind)
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, ItemRef):
        value = _resolve(f.value, env)
        if decls is not None:
            return decls.lower_item(f.name, value)
        return ItemRef(f.name, value)
    if isinstance(f, ArrayRef):
        index, value = _resolve(f.index, env), _resolve(f.value, env)
        if decls is not None:
            return decls.lower_array(f.name, index, value)
        return ArrayRef(f.name, index, value)
    if isinstance(f, Cond):
        return TRUE if eval_cond(f, env) else FALSE

    if isinstance(f, Not):
        return _fold_not(_ds(f.sub, env, decls))
    if isinstance(f, And):
        return _fold_conj([_ds(x, env, decls) for x in f.items])
    if isinstance(f, Or):
        return _fold_disj([_ds(x, env, decls) for x in f.items])
    if isinstance(f, Implies):
        return _fold_implies(_ds(f.left, env, decls), _ds(f.right, env, decls))
    if isinstance(f, Iff):
        return _fold_iff(_ds(f.left, env, decls), _ds(f.right, env, decls))

    if isinstance(f, Next):
        sub = _ds(f.sub, env, decls)
        return sub if isinstance(sub, (TrueF, FalseF)) else Next(sub)
    if isinstance(f, Yesterday):
        sub = _ds(f.sub, env, decls)
        return FALSE if isinstance(sub, FalseF) else Yesterday(sub)
    if isinstance(f, Zeta):
        sub = _ds(f.sub, env, decls)
        return TRUE if isinstance(sub, TrueF) else Zeta(sub)
    if isinstance(f, (Until, Since, Release, Trigger)):
        left, right = _ds(f.left, env, decls), _ds(f.right, env, decls)
        if isinstance(right, (TrueF, FalseF)):
            return right
        return type(f)(left, right)

    if isinstance(f, Dist):
        t = _resolve(f.offset, env)
        if not isinstance(t, int):
            raise FormulaError(f"dist: offset must be an integer literal, got '{t}'")
        sub = _ds(f.sub, env, decls)
        return _next_chain(sub, t) if t >= 0 else _yesterday_chain(sub, -t)
    if isinstance(f, Futr):
        return _next_chain(_ds(f.sub, env, decls), _offset(f.offset, env, "futr", 0))
    if isinstance(f, Past):
        return _yesterday_chain(_ds(f.sub, env, decls), _offset(f.offset, env, "past", 0))

    if isinstance(f, Lasts):
        t = _offset(f.offset, env, "lasts", 1)
        sub = _ds(f.sub, env, decls)
        return _fold_conj([_next_chain(sub, d) for d in _span(f.variant, t)])
    if isinstance(f, WithinF):
        t = _offset(f.offset, env, "withinf", 1)
        sub = _ds(f.sub, env, decls)
        return _fold_disj([_next_chain(sub, d) for d in _span(f.variant, t)])
    if isinstance(f, Lasted):
        t = _offset(f.offset, env, "lasted", 1)
        sub = _ds(f.sub, env, decls)
        return _fold_conj([_zeta_chain(sub, d) for d in _span(f.variant, t)])
    if isinstance(f, WithinP):
        t = _offset(f.offset, env, "withinp", 1)
        sub = _ds(f.sub, env, decls)
        return _fold_disj([_yesterday_chain(sub, d) for d in _span(f.variant, t)])
    if isinstance(f, NextTime):
        t = _offset(f.offset, env, "nexttime", 1)
        sub = _ds(f.sub, env, decls)
        absent = [_fold_not(_next_chain(sub, d)) for d in _span(f.variant, t) if d < t]
        return _fold_conj([_next_chain(sub, t)] + absent)
    if isinstance(f, LastTime):
        t = _offset(f.offset, env, "lasttime", 1)
        sub = _ds(f.sub, env, decls)
        absent = [_fold_not(_yesterday_chain(sub, d)) for d in _span(f.variant, t) if d < t]
        return _fold_conj([_yesterday_chain(sub, t)] + absent)

    if isinstance(f, Somf):
        return _somf(_ds(f.sub, env, decls), f.variant)
    if isinstance(f, Somp):
        return _somp(_ds(f.sub, env, decls), f.variant)
    if isinstance(f, Alwf):
        return _alwf(_ds(f.sub, env, decls), f.variant)
    if isinstance(f, Alwp):
        return _alwp(_ds(f.sub, env, decls), f.variant)
    if isinstance(f, Som):
        sub = _ds(f.sub, env, decls)
        return _fold_disj([_somp(sub, "e"), sub, _somf(sub, "e")])
    if isinstance(f, Alw):
        sub = _ds(f.sub, env, decls)
        return _fold_conj([_alwp(sub, "e"), sub, _alwf(sub, "e")])

    if isinstance(f, UntilVar):
        return _until_variant(_ds(f.left, env, decls), _ds(f.right, env, decls), f.variant)
    if isinstance(f, SinceVar):
        return _since_variant(_ds(f.left, env, decls), _ds(f.right, env, decls), f.variant)
    if isinstance(f, BoundedUntil):
        lo = _offset(f.lo, env, "bounded until", 0)
        hi = None if f.hi is None else _offset(f.hi, env, "bounded until", lo)
        return _bounded(
            _ds(f.left, env, decls), _ds(f.right, env, decls),
            lo, hi, f.variant, _next_chain, _until_variant,
        )
    if isinstance(f, BoundedSince):
        lo = _offset(f.lo, env, "bounded since", 0)
        hi = None if f.hi is None else _offset(f.hi, env, "bounded since", lo)
        return _bounded(
            _ds(f.left, env, decls), _ds(f.right, env, decls),
            lo, hi, f.variant, _yesterday_chain, _since_variant,
        )

    if isinstance(f, (Forall, Exists)):
        if not f.domain:
            raise FormulaError(f"quantifier over {f.var}: empty domain")
        if f.var in env:
            warnings.warn(
                f"quantifier variable {f.var} shadows an enclosing binding",
                stacklevel=2,
            )
        instances = []
        for elem in f.domain:
            env2 = dict(env)
            env2[f.var] = _resolve(elem, env)
            if f.cond is not None and not eval_cond(f.cond, env2):
                continue
            instances.append(_ds(f.body, env2, decls))
        return _fold_conj(instances) if isinstance(f, Forall) else _fold_disj(instances)

    if isinstance(f, (AndCase, OrCase)):
        return _ds(expand_case(f), env, decls)

    raise FormulaError(f"cannot desugar {type(f).__name__}")
