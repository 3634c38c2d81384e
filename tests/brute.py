"""Brute-force enumeration: lasso words by the trace oracle, and finite
loop-free words by a small evaluator of their own.

The reference side of the exactness checks: a formula is satisfiable at
bound k iff some valuation of all (atom, instant) bits together with some
loop choice (and pool choice, for the bi engine) makes eval_lasso true at
the assertion instant.  Valuations are enumerated in chunks and handed to
the oracle's batch entry point, which runs the identical decision procedure
as the scalar eval_lasso.

A loop-free problem at bound k is satisfiable iff some word of k+1 pairwise
distinct atom vectors satisfies the root at instant 1 and every transition
(the domain constraints among them) at each instant whose lookahead, its
nesting depth of next/until/release, fits the word.  `finite_values` decides a formula on such a word by direct
scans, sharing nothing with the encoder: next, yesterday, until and since
are false beyond an edge of the word, zeta, release and trigger true.
"""

from __future__ import annotations

from itertools import permutations, product

from lassosat.formula import (
    And,
    Atom,
    FalseF,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Since,
    Trigger,
    TrueF,
    Until,
    Yesterday,
    Zeta,
    children,
    closure,
)
from lassosat.oracle import LassoWord, eval_lasso_batch

from gen import atom_bit_rows

_MAX_BITS = 22


def formula_atoms(f):
    return sorted(
        (g for g in closure([f]) if isinstance(g, Atom)), key=lambda a: a.key
    )


def _valuation_count(atoms, k: int) -> int:
    bits = len(atoms) * (k + 1)
    if bits > _MAX_BITS:
        raise ValueError(f"{bits} valuation bits is too many to enumerate")
    return 1 << bits


def _hits(f, atoms, k, engine, position, loop, pool, lo, hi):
    rows = atom_bit_rows(atoms, k, lo, hi)
    return eval_lasso_batch(LassoWord(k, engine, loop, pool, rows, hi - lo), f, position)


def brute_force_sat(f, k: int, engine: str, position: int, chunk: int = 4096):
    """(verdict, witness) by exhaustive enumeration; witness is a LassoWord
    index triple (valuation index, loop, pool) or None."""
    atoms = formula_atoms(f)
    total = _valuation_count(atoms, k)
    loops = range(1, k + 1)
    pools = range(1, k + 1) if engine == "bi" else (None,)
    for loop, pool in product(loops, pools):
        for lo in range(0, total, chunk):
            hits = _hits(f, atoms, k, engine, position, loop, pool, lo, min(lo + chunk, total))
            if hits:
                return True, (lo + (hits & -hits).bit_length() - 1, loop, pool)
    return False, None


def accepted(f, k: int, engine: str, position: int, loop: int, pool=None):
    """Per valuation index (as in trace_from_index): whether the word of that
    valuation with this loop and pool satisfies f at `position`."""
    atoms = formula_atoms(f)
    total = _valuation_count(atoms, k)
    hits = _hits(f, atoms, k, engine, position, loop, pool, 0, total)
    return [bit == "1" for bit in reversed(format(hits, f"0{total}b"))]


def trace_from_index(f, k: int, engine: str, witness):
    """Rebuild the concrete LassoTrace a brute-force witness index denotes."""
    from lassosat.trace import LassoTrace

    index, loop, pool = witness
    atoms = formula_atoms(f)
    vals = {}
    for ai, atom in enumerate(atoms):
        vals[atom] = tuple(
            bool((index >> (ai * (k + 1) + t)) & 1) for t in range(k + 1)
        )
    return LassoTrace(
        k=k,
        engine=engine,
        atoms=tuple(atoms),
        valuations=vals,
        loop_start=loop,
        pool_start=pool,
    )


def finite_values(f, word, memo) -> list:
    """f's value at every instant of a finite word, a sequence of {atom:
    bool} maps, by direct scans; `memo` maps the nodes done to theirs."""
    got = memo.get(f)
    if got is not None:
        return got
    n = len(word)
    cls = type(f)
    if cls is Atom:
        out = [v[f] for v in word]
    elif cls in (TrueF, FalseF):
        out = [cls is TrueF] * n
    elif cls in (Next, Yesterday, Zeta):
        s = finite_values(f.sub, word, memo)
        if cls is Next:
            out = [t + 1 < n and s[t + 1] for t in range(n)]
        else:
            out = [s[t - 1] if t else cls is Zeta for t in range(n)]
    elif cls in (Not, And, Or):
        cols = [finite_values(g, word, memo) for g in (f.items if cls is not Not else (f.sub,))]
        if cls is Not:
            out = [not x for x in cols[0]]
        else:
            out = [(all if cls is And else any)(row) for row in zip(*cols)]
    else:
        a = finite_values(f.left, word, memo)
        b = finite_values(f.right, word, memo)
        if cls is Implies:
            out = [not x or y for x, y in zip(a, b)]
        elif cls is Iff:
            out = [x == y for x, y in zip(a, b)]
        elif cls is Until:  # some j >= t has b, a holds on [t, j)
            out = [any(b[j] and all(a[t:j]) for j in range(t, n)) for t in range(n)]
        elif cls is Release:  # every j >= t has b, or a somewhere on [t, j)
            out = [all(b[j] or any(a[t:j]) for j in range(t, n)) for t in range(n)]
        elif cls is Since:  # some j <= t has b, a holds on (j, t]
            out = [any(b[j] and all(a[j + 1:t + 1]) for j in range(t + 1)) for t in range(n)]
        elif cls is Trigger:  # every j <= t has b, or a somewhere on (j, t]
            out = [all(b[j] or any(a[j + 1:t + 1]) for j in range(t + 1)) for t in range(n)]
        else:
            raise TypeError(f"not a core formula node: {cls.__name__}")
    memo[f] = out
    return out


def loop_free_atoms(problem):
    """The problem's atoms, registered ones first, then those it mentions."""
    forms = [problem.root, *problem.transitions]
    atoms = list(problem.atoms)
    for g in closure([f for f in forms if f is not None]):
        if isinstance(g, Atom) and g not in atoms:
            atoms.append(g)
    return atoms


def lookahead(f) -> int:
    """How many instants past its own f reads: its next/until/release nesting."""
    depth = {}
    for g in closure([f]):
        below = max((depth[c] for c in children(g)), default=0)
        depth[g] = below + isinstance(g, (Next, Until, Release))
    return depth[f]


def _satisfies(problem, word) -> bool:
    k, memo = len(word) - 1, {}
    if problem.root is not None and not finite_values(problem.root, word, memo)[1]:
        return False
    return all(
        all(finite_values(tr, word, memo)[:max(0, k - lookahead(tr) + 1)])
        for tr in problem.transitions
    )


def accepts_loop_free(problem, word) -> bool:
    """Whether a finite word of k+1 atom vectors is a loop-free model."""
    atoms = loop_free_atoms(problem)
    distinct = len({tuple(v[a] for a in atoms) for v in word}) == len(word)
    return distinct and _satisfies(problem, word)


def brute_force_loop_free(problem):
    """(verdict, witness word or None) over every word of problem.k + 1
    pairwise distinct atom vectors."""
    atoms = loop_free_atoms(problem)
    vectors = [dict(zip(atoms, bits)) for bits in product((False, True), repeat=len(atoms))]
    for word in permutations(vectors, problem.k + 1):
        if _satisfies(problem, word):
            return True, word
    return False, None
