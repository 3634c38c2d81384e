"""Bijection between (subformula, instant) pairs and solver variables.

The id of (f, t) is base[f] + offsets[t], in one of two layouts.

Lasso encodings (the bsc/bmc/hcc modes) allocate by subformula: in closure
order, atoms first, one contiguous block of k+1 instants per subformula, so
base[f] is the block's first id, offsets[t] = t, and the closure order alone
inverts an id.  After the primary blocks come the encoder-internal traversal
copies (higher loop passes of past-dependent subformulas, and for the bi
engine backward passes of future-dependent ones), then the loop selector
variables: L1..Lk for the future loop and, for the bi-infinite engine,
P1..Pk for the past loop.

A loop-free window allocates by instant, so that it can grow: it starts
empty, and `add_instant` gives instant k+1 one block with a slot per closure
member, in closure order; base[f] is f's slot and offsets[t] the first id of
instant t's block.  The encoder takes each block from its clause sink when
the instant enters the window, so Tseitin gates and activation literals sit
between the blocks, and max_var is the last id of the newest block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import EncodingError
from .formula import Atom, Formula, classify, closure


@dataclass
class VarMap:
    k: int
    engine: str  # "mono" or "bi"
    closure: Tuple[Formula, ...]
    atoms: Tuple[Atom, ...]
    base: Dict[Formula, int]
    offsets: List[int]  # instant -> what base[f] is offset by
    copy_base: Dict[tuple, int]  # (formula, family "r"/"l", copy >= 1) -> id
    loop_selectors: Dict[int, int]  # loop position i -> variable id
    pool_selectors: Dict[int, int]
    partitions: Dict[str, Tuple[Formula, ...]]
    max_var: int
    root_var: Optional[int] = None
    assertion_instant: int = 0

    def var(self, f: Formula, t: int) -> int:
        """The solver variable of subformula f at instant t (spec: call)."""
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        b = self.base.get(f)
        if b is None:
            raise EncodingError("formula is not in the closure")
        return b + self.offsets[t]

    def add_instant(self, first: int) -> None:
        """Grow a loop-free window by one instant, its block starting at `first`."""
        self.offsets.append(first)
        self.k += 1
        self.max_var = first + len(self.closure) - 1


def build_varmap(
    formulas,
    k: int,
    engine: str,
    extra_atoms=(),
    copies: Optional[Dict[Formula, Tuple[int, int]]] = None,
    loop_free: bool = False,
) -> VarMap:
    """Allocate variables for the closure of `formulas` plus `extra_atoms`.

    `copies` maps a closure member to its (right, left) traversal copy
    counts; copy variables are allocated after every primary block.  A
    loop-free map has no copies and no selectors, and its window is empty
    (k = -1) until instants are added.
    """
    if k < 1:
        raise EncodingError(f"bound k={k} must be >= 1")
    clo = closure(formulas)
    atoms: List[Atom] = []
    seen = set()
    for a in extra_atoms:
        if a not in seen:
            seen.add(a)
            atoms.append(a)
    rest: List[Formula] = []
    for f in clo:
        if isinstance(f, Atom):
            if f not in seen:
                seen.add(f)
                atoms.append(f)
        else:
            rest.append(f)

    bools = tuple(f for f in rest if classify(f) == "bool")
    futures = tuple(f for f in rest if classify(f) == "future")
    pasts = tuple(f for f in rest if classify(f) == "past")
    ordered: Tuple[Formula, ...] = tuple(atoms) + bools + futures + pasts

    partitions = {"prop": tuple(atoms), "bool": bools, "future": futures, "past": pasts}
    if loop_free:
        return VarMap(
            k=-1, engine=engine, closure=ordered, atoms=tuple(atoms),
            base={f: slot for slot, f in enumerate(ordered)}, offsets=[],
            copy_base={}, loop_selectors={}, pool_selectors={},
            partitions=partitions, max_var=0,
        )

    base: Dict[Formula, int] = {}
    nxt = 1
    for f in ordered:
        base[f] = nxt
        nxt += k + 1

    copy_base: Dict[tuple, int] = {}
    if copies:
        for f in ordered:
            nr, nl = copies.get(f, (0, 0))
            for d in range(1, nr + 1):
                copy_base[(f, "r", d)] = nxt
                nxt += k + 1
            for e in range(1, nl + 1):
                copy_base[(f, "l", e)] = nxt
                nxt += k + 1

    loop_selectors: Dict[int, int] = {}
    pool_selectors: Dict[int, int] = {}
    for i in range(1, k + 1):
        loop_selectors[i] = nxt
        nxt += 1
    if engine == "bi":
        for p in range(1, k + 1):
            pool_selectors[p] = nxt
            nxt += 1

    return VarMap(
        k=k,
        engine=engine,
        closure=ordered,
        atoms=tuple(atoms),
        base=base,
        offsets=list(range(k + 1)),
        copy_base=copy_base,
        loop_selectors=loop_selectors,
        pool_selectors=pool_selectors,
        partitions=partitions,
        max_var=nxt - 1,
    )
