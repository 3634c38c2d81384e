"""Independent semantic evaluator for core formulas on lasso traces.

The induced word of a mono trace is u[0..i-1] (u[i..k])^w; a bi trace is
^w(u[0..p]) u[0..k] (u[i..k])^w anchored at absolute instant 0.  Evaluation
unrolls each periodic part C+2 times, C being the closure size: values of
past subformulas across successive copies of the future loop follow a
monotone boolean recurrence and stabilize within C copies (mirrored for
future subformulas across the backward copies).  Future operators are then
solved on the final copy's quotient cycle by least fixpoint (until) or
greatest fixpoint (release) and propagated backward; past operators are
solved on the first copy's cycle (bi) or started from the origin (mono) and
propagated forward.

This module is the oracle the encoder is tested against, so it shares no
machinery with the encoder: everything here is plain recurrence evaluation
on rows of ints, one per window instant, whose bit b is the value on trace
b of the batch.  A single trace is a batch of one, so batch evaluation over
many traces at once uses the same code path.
"""

from __future__ import annotations

from typing import Dict, List

from .errors import EncodingError
from .formula import (
    And,
    Atom,
    FalseF,
    Formula,
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
from .trace import LassoTrace


class LassoWord:
    """Window layout and per-atom rows for one (batch of) lasso trace(s)."""

    def __init__(self, k, engine, loop, pool, atom_rows, batch):
        if loop is None:
            raise EncodingError("a loop-free trace has no lasso word to evaluate on")
        if not 1 <= loop <= k:
            raise EncodingError(f"loop start {loop} outside 1..{k}")
        if engine == "bi" and not (pool is not None and 1 <= pool <= k):
            raise EncodingError(f"past loop start {pool} outside 1..{k}")
        self.k = k
        self.engine = engine
        self.loop = loop
        self.pool = pool
        self.atom_rows = atom_rows  # Atom -> k+1 ints, bit b on trace b
        self.batch = batch

    @classmethod
    def from_trace(cls, trace: LassoTrace) -> "LassoWord":
        rows = {
            atom: [int(bool(v)) for v in vals] for atom, vals in trace.valuations.items()
        }
        return cls(trace.k, trace.engine, trace.loop_start, trace.pool_start, rows, 1)


def _window(word: LassoWord, copies: int):
    """Instant sequence of the concrete window plus the query offset."""
    k, loop = word.k, word.loop
    future = list(range(loop, k + 1)) * copies
    if word.engine == "bi":
        left = list(range(0, word.pool + 1)) * copies
        seq = left + list(range(0, k + 1)) + future
        return seq, len(left)
    seq = list(range(0, loop)) + future
    return seq, 0


def _eval_rows(word: LassoWord, formulas, copies: int):
    """Rows (one int per window instant) of the members of `formulas`.  A
    row is never changed once built, so rows may share.

    Any other closure member's row is dropped once its last parent has
    consumed it, which keeps the live set proportional to the formula depth
    rather than the closure size (the batch path cares).
    """
    seq, query_base = _window(word, copies)
    L = len(seq)
    full = (1 << word.batch) - 1  # negation is full ^ x: ~x is negative
    per = word.k - word.loop + 1  # future cycle length
    fbase = L - per
    ppast = (word.pool + 1) if word.engine == "bi" else 0

    clo = closure(formulas)
    pending: Dict[Formula, int] = {}
    for f in clo:
        for c in children(f):
            pending[c] = pending.get(c, 0) + 1
    keep = set(formulas)
    rows: Dict[Formula, List[int]] = {}
    false_row = [0] * L
    true_row = [full] * L

    for f in clo:
        if isinstance(f, Atom):
            vals = word.atom_rows.get(f)
            rows[f] = false_row if vals is None else [vals[t] for t in seq]
        elif isinstance(f, TrueF):
            rows[f] = true_row
        elif isinstance(f, FalseF):
            rows[f] = false_row
        elif isinstance(f, Not):
            rows[f] = [full ^ x for x in rows[f.sub]]
        elif isinstance(f, And):
            acc = true_row
            for c in f.items:
                acc = [x & y for x, y in zip(acc, rows[c])]
            rows[f] = acc
        elif isinstance(f, Or):
            acc = false_row
            for c in f.items:
                acc = [x | y for x, y in zip(acc, rows[c])]
            rows[f] = acc
        elif isinstance(f, Implies):
            rows[f] = [(full ^ x) | y for x, y in zip(rows[f.left], rows[f.right])]
        elif isinstance(f, Iff):
            rows[f] = [full ^ x ^ y for x, y in zip(rows[f.left], rows[f.right])]
        elif isinstance(f, Next):
            sub = rows[f.sub]
            rows[f] = sub[1:] + [sub[fbase]]
        elif isinstance(f, (Until, Release)):
            rows[f] = _future_fixpoint(f, rows, full, per, fbase)
        elif isinstance(f, (Yesterday, Zeta)):
            sub = rows[f.sub]
            if word.engine == "bi":
                first = sub[ppast - 1]
            else:
                first = full if isinstance(f, Zeta) else 0
            rows[f] = [first] + sub[:-1]
        elif isinstance(f, (Since, Trigger)):
            rows[f] = _past_fixpoint(f, rows, L, full, word.engine, ppast)
        else:
            raise EncodingError(f"oracle cannot evaluate {type(f).__name__}")
        for c in children(f):
            pending[c] -= 1
            if pending[c] == 0 and c not in keep:
                del rows[c]
    return rows, query_base


def _future_fixpoint(f, rows, full, per, fbase) -> List[int]:
    a, b = rows[f.left], rows[f.right]
    until = isinstance(f, Until)
    x = [0 if until else full] * per
    for _ in range(per + 2):
        changed = False
        for o in range(per - 1, -1, -1):
            nxt = x[(o + 1) % per]
            j = fbase + o
            new = (b[j] | (a[j] & nxt)) if until else (b[j] & (a[j] | nxt))
            if new != x[o]:
                x[o] = new
                changed = True
        if not changed:
            break
    else:
        raise EncodingError("future fixpoint failed to converge")
    out = [0] * fbase + x
    for j in range(fbase - 1, -1, -1):
        if until:
            out[j] = b[j] | (a[j] & out[j + 1])
        else:
            out[j] = b[j] & (a[j] | out[j + 1])
    return out


def _past_fixpoint(f, rows, L, full, engine, ppast) -> List[int]:
    a, b = rows[f.left], rows[f.right]
    since = isinstance(f, Since)
    if engine == "bi":
        x = [0 if since else full] * ppast
        for _ in range(ppast + 2):
            changed = False
            for o in range(ppast):
                prev = x[(o - 1) % ppast]
                new = (b[o] | (a[o] & prev)) if since else (b[o] & (a[o] | prev))
                if new != x[o]:
                    x[o] = new
                    changed = True
            if not changed:
                break
        else:
            raise EncodingError("past fixpoint failed to converge")
        out = x + [0] * (L - ppast)
        start = ppast
    else:
        out = [0] * L
        out[0] = b[0]  # since/trigger at the origin collapse to their right arm
        start = 1
    for j in range(start, L):
        if since:
            out[j] = b[j] | (a[j] & out[j - 1])
        else:
            out[j] = b[j] & (a[j] | out[j - 1])
    return out


def eval_lasso(trace: LassoTrace, f: Formula, position: int) -> bool:
    """Truth of core formula f at `position` of the trace's induced word."""
    return bool(eval_lasso_batch(LassoWord.from_trace(trace), f, position))


def eval_lasso_batch(word: LassoWord, f: Formula, position: int) -> int:
    """Truths at `position` as a bitmask: bit b is trace b of the batch."""
    if not 0 <= position <= word.k:
        raise EncodingError(f"position {position} outside 0..{word.k}")
    copies = len(closure([f])) + 2
    rows, query_base = _eval_rows(word, [f], copies)
    return rows[f][query_base + position]
