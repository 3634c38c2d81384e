"""The table of literals of (subformula, copy, instant) entries.

Every entry of the encoding has one literal.  An entry that owns a solver
variable has a positive id; an alias is the literal of other entries, or of
a gate over them, and owns no id (encoder: which entries alias, and what
they alias to).  Lookups therefore return literals, which may be negative:
`lit(Not(g), t)` is `-lit(g, t)`.  Ids exist only for the entries that are
not aliases, and are allocated in one of two layouts.

Lasso encodings (the bsc/bmc/hcc modes) allocate by subformula: in closure
order, atoms first, one row of k+1 instants per subformula, each row giving
consecutive ids to the instants it owns.  After the primary rows come the
encoder-internal traversal copies (higher loop passes of past-dependent
subformulas, and for the bi engine backward passes of future-dependent
ones), then the loop selector variables: L1..Lk for the future loop and,
for the bi-infinite engine, P1..Pk for the past loop.  Atoms and selectors
never alias, so their ids are positional.

A loop-free window allocates by instant, so that it can grow: it starts
empty, and `add_instant` gives instant k+1 one block with an id per closure
member that owns one there, in closure order.  The encoder takes each block
from its clause sink when the instant enters the window, so Tseitin gates
and activation literals sit between the blocks, and max_var is the last id
of the newest block.

The encoder writes the aliases into the table once their operands are
known, in the slots that allocation leaves 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import EncodingError
from .formula import Atom, Formula, classify, closure

# aliased(f, family "r"/"l", copy, instant): the entry owns no id
Aliased = Callable[[Formula, str, int, int], bool]


@dataclass
class VarMap:
    k: int
    engine: str  # "mono" or "bi"
    closure: Tuple[Formula, ...]  # allocation order: atoms, bool, future, past
    atoms: Tuple[Atom, ...]
    # f -> literal rows, one per copy, each indexed by instant: rrows[f][0]
    # is the primary row, then the loop-pass copies; lrows[f] the same
    # primary row, then the backward copies
    rrows: Dict[Formula, List[List[int]]]
    lrows: Dict[Formula, List[List[int]]]
    # (formula, family "r"/"l", copy >= 1) -> first id, for the copy rows
    # that own ids
    copy_base: Dict[tuple, int]
    loop_selectors: Dict[int, int]  # loop position i -> variable id
    pool_selectors: Dict[int, int]
    partitions: Dict[str, Tuple[Formula, ...]]
    max_var: int
    root_lit: Optional[int] = None
    assertion_instant: int = 0

    def lit(self, f: Formula, t: int) -> int:
        """The literal of subformula f at instant t (spec: call)."""
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        rows = self.rrows.get(f)
        if rows is None:
            raise EncodingError("formula is not in the closure")
        return rows[0][t]

    def add_instant(self, first: int, aliased: Optional[Aliased] = None) -> int:
        """Grow a loop-free window by one instant whose block starts at
        `first`; returns the number of ids the block takes."""
        t = self.k + 1
        nxt = first
        for f in self.closure:
            if aliased is not None and aliased(f, "r", 0, t):
                self.rrows[f][0].append(0)
            else:
                self.rrows[f][0].append(nxt)
                nxt += 1
        self.k = t
        self.max_var = nxt - 1
        return nxt - first


def _row(f: Formula, family: str, copy: int, k: int, nxt: int, aliased):
    """A row of k+1 slots: consecutive ids from nxt, 0 where f aliases."""
    row = []
    for t in range(k + 1):
        if aliased is not None and aliased(f, family, copy, t):
            row.append(0)
        else:
            row.append(nxt)
            nxt += 1
    return row, nxt


def build_varmap(
    formulas,
    k: int,
    engine: str,
    extra_atoms=(),
    copies: Optional[Dict[Formula, Tuple[int, int]]] = None,
    loop_free: bool = False,
    aliased: Optional[Aliased] = None,
) -> VarMap:
    """Allocate ids for the closure of `formulas` plus `extra_atoms`.

    `copies` maps a closure member to its (right, left) traversal copy
    counts; copy rows are allocated after every primary row.  `aliased`
    names the entries that own no id (none by default); their slots are 0
    until the encoder fills them.  A loop-free map has no copies and no
    selectors, and its window is empty (k = -1) until instants are added.
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
        rrows = {f: [[]] for f in ordered}
        return VarMap(
            k=-1, engine=engine, closure=ordered, atoms=tuple(atoms),
            rrows=rrows, lrows=rrows, copy_base={}, loop_selectors={},
            pool_selectors={}, partitions=partitions, max_var=0,
        )

    rrows: Dict[Formula, List[List[int]]] = {}
    lrows: Dict[Formula, List[List[int]]] = {}
    nxt = 1
    for f in ordered:
        row, nxt = _row(f, "r", 0, k, nxt, aliased)
        rrows[f] = [row]
        lrows[f] = [row]

    copy_base: Dict[tuple, int] = {}
    copies = copies or {}
    for f in ordered:
        nr, nl = copies.get(f, (0, 0))
        for family, rows, count in (("r", rrows[f], nr), ("l", lrows[f], nl)):
            for c in range(1, count + 1):
                first = nxt
                row, nxt = _row(f, family, c, k, nxt, aliased)
                rows.append(row)
                if nxt > first:
                    copy_base[(f, family, c)] = first

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
        rrows=rrows,
        lrows=lrows,
        copy_base=copy_base,
        loop_selectors=loop_selectors,
        pool_selectors=pool_selectors,
        partitions=partitions,
        max_var=nxt - 1,
    )
