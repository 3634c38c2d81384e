"""Seeded random formula and trace generators shared by the test suite."""

from __future__ import annotations

import random

from lassosat.desugar import desugar
from lassosat.formula import (
    Alw,
    Alwf,
    Alwp,
    And,
    Atom,
    BoundedSince,
    BoundedUntil,
    Dist,
    FALSE,
    Futr,
    Iff,
    Implies,
    Lasted,
    Lasts,
    LastTime,
    Next,
    NextTime,
    Not,
    Or,
    Past,
    Release,
    Since,
    SinceVar,
    Som,
    Somf,
    Somp,
    Trigger,
    TRUE,
    Until,
    UntilVar,
    WithinF,
    WithinP,
    Yesterday,
    Zeta,
    closure,
)
from lassosat.trace import LassoTrace

VARIANTS4 = ("ee", "ie", "ei", "ii")
VARIANTS2 = ("e", "i")

# one tag per metric-operator variant family plus the core temporal operators
FAMILIES = (
    "until", "since", "release", "trigger", "next", "yesterday", "zeta",
    "futr", "past", "dist",
    "lasts", "lasted", "withinf", "withinp", "nexttime", "lasttime",
    "somf", "somp", "alwf", "alwp", "som", "alw",
    "until_var", "since_var", "bounded_until", "bounded_since",
)


def family_of(f) -> str:
    table = {
        Until: "until", Since: "since", Release: "release", Trigger: "trigger",
        Next: "next", Yesterday: "yesterday", Zeta: "zeta",
        Futr: "futr", Past: "past", Dist: "dist",
        Lasts: "lasts", Lasted: "lasted", WithinF: "withinf", WithinP: "withinp",
        NextTime: "nexttime", LastTime: "lasttime",
        Somf: "somf", Somp: "somp", Alwf: "alwf", Alwp: "alwp",
        Som: "som", Alw: "alw",
        UntilVar: "until_var", SinceVar: "since_var",
        BoundedUntil: "bounded_until", BoundedSince: "bounded_since",
    }
    return table.get(type(f), "")


def families_used(f) -> set:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        tag = family_of(g)
        if tag:
            out.add(tag)
        for name in ("sub", "left", "right"):
            child = getattr(g, name, None)
            if child is not None:
                stack.append(child)
        items = getattr(g, "items", None)
        if items:
            stack.extend(items)
    return out


def random_core(rng: random.Random, depth: int, atoms):
    """Core-fragment formulas only (booleans + the seven temporal ops)."""
    if depth <= 0 or rng.random() < 0.18:
        r = rng.random()
        if r < 0.04:
            return TRUE
        if r < 0.08:
            return FALSE
        return Atom(rng.choice(atoms))
    pick = rng.randrange(11)
    sub = lambda: random_core(rng, depth - 1, atoms)  # noqa: E731
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return And(tuple(sub() for _ in range(rng.randint(2, 3))))
    if pick == 2:
        return Or(tuple(sub() for _ in range(rng.randint(2, 3))))
    if pick == 3:
        return Implies(sub(), sub())
    if pick == 4:
        return Iff(sub(), sub())
    if pick == 5:
        return Next(sub())
    if pick == 6:
        return Yesterday(sub())
    if pick == 7:
        return Zeta(sub())
    if pick == 8:
        return Until(sub(), sub())
    if pick == 9:
        return Since(sub(), sub())
    return Release(sub(), sub()) if rng.random() < 0.5 else Trigger(sub(), sub())


def random_sugared(rng: random.Random, depth: int, atoms, max_offset: int = 3):
    """Formulas over the full sugared language (no quantifiers)."""
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.03:
            return TRUE
        if r < 0.06:
            return FALSE
        return Atom(rng.choice(atoms))
    sub = lambda: random_sugared(rng, depth - 1, atoms, max_offset)  # noqa: E731
    off = rng.randint(1, max_offset)
    v4 = rng.choice(VARIANTS4)
    v2 = rng.choice(VARIANTS2)
    pick = rng.randrange(24)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return And(tuple(sub() for _ in range(rng.randint(2, 3))))
    if pick == 2:
        return Or(tuple(sub() for _ in range(rng.randint(2, 3))))
    if pick == 3:
        return Implies(sub(), sub())
    if pick == 4:
        return Iff(sub(), sub())
    if pick == 5:
        return Next(sub())
    if pick == 6:
        return Yesterday(sub())
    if pick == 7:
        return Zeta(sub())
    if pick == 8:
        return Until(sub(), sub())
    if pick == 9:
        return Since(sub(), sub())
    if pick == 10:
        return Release(sub(), sub())
    if pick == 11:
        return Trigger(sub(), sub())
    if pick == 12:
        return Futr(sub(), rng.randint(0, max_offset))
    if pick == 13:
        return Past(sub(), rng.randint(0, max_offset))
    if pick == 14:
        return Dist(sub(), rng.randint(-max_offset, max_offset))
    if pick == 15:
        cls = rng.choice((Lasts, Lasted, WithinF, WithinP))
        return cls(sub(), off, v4)
    if pick == 16:
        cls = rng.choice((NextTime, LastTime))
        return cls(sub(), off, v4)
    if pick == 17:
        cls = rng.choice((Somf, Somp, Alwf, Alwp))
        return cls(sub(), v2)
    if pick == 18:
        return Som(sub()) if rng.random() < 0.5 else Alw(sub())
    if pick == 19:
        return UntilVar(sub(), sub(), v4)
    if pick == 20:
        return SinceVar(sub(), sub(), v4)
    if pick == 21:
        lo = rng.randint(0, max_offset)
        hi = rng.randint(lo, max_offset)
        return BoundedUntil(sub(), sub(), lo, hi, v4)
    if pick == 22:
        lo = rng.randint(0, max_offset)
        hi = rng.randint(lo, max_offset)
        return BoundedSince(sub(), sub(), lo, hi, v4)
    lo = rng.randint(0, 2)
    cls = rng.choice((BoundedUntil, BoundedSince))
    return cls(sub(), sub(), lo, None, v4)


def random_sugared_capped(
    rng: random.Random, depth: int, atoms, max_offset: int = 3, closure_cap: int = 60
):
    """Sugared formula whose desugared closure stays small enough to encode."""
    while True:
        f = random_sugared(rng, depth, atoms, max_offset)
        core = desugar(f)
        if len(closure([core])) <= closure_cap:
            return f, core


def random_trace(rng: random.Random, k: int, engine: str, atoms) -> LassoTrace:
    atom_objs = tuple(Atom(a) for a in atoms)
    vals = {
        a: tuple(rng.random() < 0.5 for _ in range(k + 1)) for a in atom_objs
    }
    return LassoTrace(
        k=k,
        engine=engine,
        atoms=atom_objs,
        valuations=vals,
        loop_start=rng.randint(1, k),
        pool_start=rng.randint(1, k) if engine == "bi" else None,
    )


def atom_bit_rows(atoms, k: int, lo: int, hi: int):
    """Valuation chunk [lo, hi): per atom, one int per instant whose bit b
    is that (atom, instant) bit of the valuation index lo + b."""
    return {
        atom: [_bit_column(ai * (k + 1) + t, lo, hi - lo) for t in range(k + 1)]
        for ai, atom in enumerate(atoms)
    }


def _bit_column(p: int, lo: int, n: int) -> int:
    """The int whose bit b is bit p of lo + b, for b < n.  Over consecutive
    integers bit p repeats 2^p zeros then 2^p ones, so a window no longer
    than 2^p holds at most one edge, and a longer one is that block times a
    repunit, shifted to the phase of lo."""
    half = 1 << p
    phase = lo % (2 * half)
    window = (1 << n) - 1
    if n <= half:
        ones = (1 << min(half - phase % half, n)) - 1
        return ones if phase >= half else window ^ ones
    reps = (phase + n) // (2 * half) + 1
    repunit = ((1 << (2 * half * reps)) - 1) // ((1 << (2 * half)) - 1)
    return (((1 << half) - 1) << half) * repunit >> phase & window
