"""Finite-domain state variables and arrays, lowered to one-hot atom groups.

An item over domain {v1..vn} becomes n atoms NAME=vi; an array gets one such
group per index cell.  domain_constraints() produces the exactly-one formulas
the encoder asserts at every instant, so every decoded trace assigns each
item exactly one value everywhere, including the looped instants.

Declarations are scoped to one document; there is no global registry to
clean up between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import DomainError, SpecFormatError
from .formula import And, Atom, Formula, Not, disj

Term = object  # int | str


@dataclass(frozen=True)
class ItemDecl:
    name: str
    domain: Tuple[Term, ...]

    def __post_init__(self):
        if not self.domain:
            raise SpecFormatError(f"item {self.name}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SpecFormatError(f"item {self.name}: duplicate domain elements")


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    index_domain: Tuple[Term, ...]
    value_domain: Tuple[Term, ...]

    def __post_init__(self):
        if not self.index_domain or not self.value_domain:
            raise SpecFormatError(f"array {self.name}: empty domain")
        if len(set(self.index_domain)) != len(self.index_domain):
            raise SpecFormatError(f"array {self.name}: duplicate index elements")
        if len(set(self.value_domain)) != len(self.value_domain):
            raise SpecFormatError(f"array {self.name}: duplicate domain elements")


@dataclass
class Declarations:
    """All items/arrays of a document plus the plain-atom registry."""

    items: Dict[str, ItemDecl] = field(default_factory=dict)
    arrays: Dict[str, ArrayDecl] = field(default_factory=dict)
    # plain proposition name -> arity, in first-seen order
    atom_arity: Dict[str, int] = field(default_factory=dict)

    def add_item(self, decl: ItemDecl):
        self._check_fresh(decl.name)
        self.items[decl.name] = decl

    def add_array(self, decl: ArrayDecl):
        self._check_fresh(decl.name)
        self.arrays[decl.name] = decl

    def _check_fresh(self, name: str):
        if name in self.items or name in self.arrays or name in self.atom_arity:
            raise SpecFormatError(f"duplicate declaration of {name}")

    def register_atom(self, name: str, arity: int):
        if name in self.items or name in self.arrays:
            raise SpecFormatError(f"{name} is already a declared item/array")
        seen = self.atom_arity.get(name)
        if seen is None:
            self.atom_arity[name] = arity
        elif seen != arity:
            raise SpecFormatError(
                f"predicate {name} used with {arity} argument(s), previously {seen}"
            )

    def lower_item(self, name: str, value) -> Atom:
        """The dedicated atom for item=value; value must lie in the domain."""
        decl = self.items.get(name)
        if decl is None:
            raise SpecFormatError(f"({name.lower()}= ...): item {name} is not declared")
        if value not in decl.domain:
            raise DomainError(
                f"({name.lower()}= {value}): value not in domain {list(decl.domain)}"
            )
        return Atom(name, (value,), kind="item")

    def lower_array(self, name: str, index, value) -> Atom:
        """The dedicated atom for array[index]=value; both must lie in their domains."""
        decl = self.arrays.get(name)
        if decl is None:
            raise SpecFormatError(f"({name.lower()}= ...): array {name} is not declared")
        if index not in decl.index_domain:
            raise DomainError(
                f"({name.lower()}= {index} {value}): index not in {list(decl.index_domain)}"
            )
        if value not in decl.value_domain:
            raise DomainError(
                f"({name.lower()}= {index} {value}): value not in {list(decl.value_domain)}"
            )
        return Atom(name, (index, value), kind="array")

    def state_atoms(self) -> List[Atom]:
        """Every item/array value atom, in declaration order."""
        return [atom for group in self.groups() for atom in group]

    def groups(self) -> List[List[Atom]]:
        """One-hot groups: the value atoms of each item and each array cell."""
        out = []
        for decl in self.items.values():
            out.append([Atom(decl.name, (v,), "item") for v in decl.domain])
        for decl in self.arrays.values():
            for idx in decl.index_domain:
                out.append([Atom(decl.name, (idx, v), "array") for v in decl.value_domain])
        return out


def domain_constraints(decls: Declarations) -> List[Formula]:
    """Exactly-one constraints per item / array cell; build_problem asserts
    them at every instant as transitions."""
    constraints: List[Formula] = []
    for group in decls.groups():
        constraints.append(disj(group))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                constraints.append(Not(And((group[i], group[j]))))
    return constraints
