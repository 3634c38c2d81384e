"""The table of literals of (subformula, copy, instant) entries.

Every entry of the encoding has one literal.  An entry that owns a solver
variable has a positive id; an alias is the literal of other entries, or of
a gate over them, and owns no id.  Lookups therefore return literals, which
may be negative: `lit(Not(g), t)` is `-lit(g, t)`.  The encoder fills the
table: its module docstring gives the order the ids are allocated in, which
entries alias, and what they alias to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import EncodingError
from .formula import Atom, Formula


@dataclass
class VarMap:
    k: int  # the bound; lit reads the instants -T'..k
    engine: str  # "mono" or "bi"
    closure: Tuple[Formula, ...]  # allocation order: atoms, bool, future, past
    atoms: Tuple[Atom, ...]
    # f -> literal rows, one per copy, each indexed by instant + T' (the
    # rows run over -T'..k+T): rrows[f][0] is the primary row, then the
    # loop-pass copies; lrows[f] the same primary row, then the backward
    # copies
    rrows: Dict[Formula, List[List[int]]]
    lrows: Dict[Formula, List[List[int]]]
    # (formula, family "r"/"l", copy >= 1) -> first id, for the copy rows
    # that own ids
    copy_base: Dict[tuple, int]
    # selector position -> variable id, indexed as the rows are: loop
    # position i (T'+T+1..k+T'+T) selects the loop start i-T'-T, pool
    # position p (1..k) the pool start p
    loop_selectors: Dict[int, int]
    pool_selectors: Dict[int, int]
    partitions: Dict[str, Tuple[Formula, ...]]  # "bool", "future", "past"
    max_var: int
    root_lit: Optional[int] = None
    assertion_instant: int = 0
    # T: the instants the rows run after instant k, on the loop side
    lookback: int = 0
    # T': the instants the rows run before instant 0, on the pool side
    lookahead: int = 0

    def lit(self, f: Formula, t: int) -> int:
        """The literal of subformula f at instant t (spec: call)."""
        if not -self.lookahead <= t <= self.k:
            raise EncodingError(f"instant {t} outside {-self.lookahead}..{self.k}")
        rows = self.rrows.get(f)
        if rows is None:
            raise EncodingError("formula is not in the closure")
        return rows[0][t + self.lookahead]
