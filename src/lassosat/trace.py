"""Lasso traces, history files, and the SAT-model decoder.

History file format (one block per instant, two-space indent):

    ------ time 0 ------

    ------ time 1 ------
      **LOOP**
      ON

    ------ end ------

Marker lines name the loop selector positions (**LOOP** towards the future,
**POOL** towards the past), each at most once; a loop-free trace has
neither.  Atom lines are the upper-cased atom names; items render as NAME =
VALUE, array cells as NAME[IDX] = VALUE, predicate instances as
NAME(ARG,...).  When a history
is used as an input constraint, a `!` prefix asserts the atom false at that
instant; atoms that are not listed are unconstrained, never false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import EncodingError, HistoryError
from .formula import Atom

_HEADER_RE = re.compile(r"^-+\s+time\s+(\d+)\s+-+$", re.IGNORECASE)
_END_RE = re.compile(r"^-+\s+end\s+-+$", re.IGNORECASE)
_ARRAY_RE = re.compile(r"^([^\s()\[\]=]+)\[([^\[\]\s]+)\]\s*=\s*(\S+)$")
_ITEM_RE = re.compile(r"^([^\s()\[\]=]+)\s*=\s*(\S+)$")
_PRED_RE = re.compile(r"^([^\s()\[\]=]+)\((.*)\)$")
_PLAIN_RE = re.compile(r"^([^\s()\[\]=]+)$")
# marker line -> the PartialHistory pin it sets
_PINS = {"**LOOP**": "loop_at", "**POOL**": "pool_at"}


@dataclass(frozen=True)
class PartialHistory:
    """Facts (instant, atom, polarity) plus optional loop/pool pins."""

    facts: Tuple[Tuple[int, Atom, bool], ...] = ()
    loop_at: Optional[int] = None
    pool_at: Optional[int] = None

    def __post_init__(self):
        seen: Dict[Tuple[int, Atom], bool] = {}
        for instant, atom, polarity in self.facts:
            key = (instant, atom)
            if seen.get(key, polarity) != polarity:
                raise HistoryError(
                    f"contradictory facts for {atom.display} at time {instant}"
                )
            seen[key] = polarity

    def merged_with(self, other: "PartialHistory") -> "PartialHistory":
        """The facts and pins of both; one they disagree on raises HistoryError."""
        pins = {}
        for marker, name in _PINS.items():
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not None and theirs is not None and mine != theirs:
                raise HistoryError(f"contradictory {marker} markers: times {mine} and {theirs}")
            pins[name] = mine if theirs is None else theirs
        return PartialHistory(self.facts + other.facts, **pins)


@dataclass
class LassoTrace:
    """An ultimately periodic trace over instants 0..k.

    A loop-free model decodes to a finite trace: loop_start is None.
    """

    k: int
    engine: str  # "mono" or "bi"
    atoms: Tuple[Atom, ...]
    valuations: Dict[Atom, Tuple[bool, ...]]
    loop_start: Optional[int]
    pool_start: Optional[int] = None

    def __post_init__(self):
        if self.loop_start is not None and not (1 <= self.loop_start <= self.k):
            raise EncodingError(f"loop start {self.loop_start} outside 1..{self.k}")
        if self.engine == "bi" and self.pool_start is None:
            raise EncodingError("bi-infinite trace needs a past loop start")

    def holds(self, atom: Atom, t: int) -> bool:
        row = self.valuations.get(atom)
        return bool(row[t]) if row is not None else False

    def true_atoms(self, t: int) -> List[Atom]:
        return [a for a in self.atoms if self.valuations[a][t]]


def decode(result, vm) -> LassoTrace:
    """Read a LassoTrace off a SAT model via the variable map.

    A loop-free encoding has no loop selectors; its trace has no loop start.
    The selector positions are indexed as the encoding's rows, which run T'
    instants before instant 0 and T after instant k (`VarMap.lookahead`,
    `VarMap.lookback`): loop position i selects the loop start i - T' - T,
    and pool position p the pool start p.
    """
    if result.verdict != "SAT" or result.model is None:
        raise EncodingError("decode needs a SAT result with a model")
    model = result.model
    loop = _selected(vm.loop_selectors, model, "future")
    valuations = {
        atom: tuple(bool(model[vm.lit(atom, t)]) for t in range(vm.k + 1))
        for atom in vm.atoms
    }
    return LassoTrace(
        k=vm.k,
        engine=vm.engine,
        atoms=tuple(vm.atoms),
        valuations=valuations,
        loop_start=None if loop is None else loop - vm.lookahead - vm.lookback,
        pool_start=_selected(vm.pool_selectors, model, "past"),
    )


def _selected(selectors, model, direction: str) -> Optional[int]:
    """The one position whose selector the model sets; None with no selectors."""
    chosen = [i for i, v in selectors.items() if model[v]]
    if selectors and len(chosen) != 1:
        raise EncodingError(
            f"model selects {len(chosen)} {direction} loop positions; encoder invariant broken"
        )
    return chosen[0] if chosen else None


def render_history(trace: LassoTrace) -> str:
    """Render the section format."""
    lines: List[str] = []
    for t in range(trace.k + 1):
        lines.append(f"------ time {t} ------")
        if t == trace.loop_start:
            lines.append("  **LOOP**")
        if trace.pool_start is not None and t == trace.pool_start:
            lines.append("  **POOL**")
        for atom in trace.true_atoms(t):
            lines.append(f"  {atom.display}")
        lines.append("")
    lines.append("------ end ------")
    return "\n".join(lines) + "\n"


def _parse_atom_line(body: str, lineno: int) -> Atom:
    m = _ARRAY_RE.match(body)
    if m:
        return Atom(m.group(1).upper(), (_value(m.group(2)), _value(m.group(3))), "array")
    m = _ITEM_RE.match(body)
    if m:
        return Atom(m.group(1).upper(), (_value(m.group(2)),), "item")
    m = _PRED_RE.match(body)
    if m:
        args = tuple(_value(a.strip()) for a in m.group(2).split(",") if a.strip())
        return Atom(m.group(1).upper(), args)
    m = _PLAIN_RE.match(body)
    if m:
        return Atom(m.group(1).upper())
    raise HistoryError(f"line {lineno}: cannot parse atom line {body!r}")


def _value(text: str):
    body = text[1:] if text[:1] in "+-" else text
    if body.isdigit():
        return int(text)
    return text.upper()


def parse_history(text: str) -> PartialHistory:
    """Parse the render format (possibly partial) into constraint facts."""
    facts: List[Tuple[int, Atom, bool]] = []
    pins: Dict[str, int] = {}
    current: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            current = int(m.group(1))
            continue
        if _END_RE.match(line):
            current = None
            continue
        if current is None:
            raise HistoryError(f"line {lineno}: fact outside any time block")
        pin = _PINS.get(line)
        if pin is not None:
            if pin in pins:
                raise HistoryError(
                    f"line {lineno}: a second {line} marker (the first is at time {pins[pin]})"
                )
            pins[pin] = current
            continue
        polarity = True
        if line.startswith("!"):
            polarity = False
            line = line[1:].strip()
        facts.append((current, _parse_atom_line(line, lineno), polarity))
    return PartialHistory(tuple(facts), **pins)


def load_history(path) -> PartialHistory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_history(fh.read())
