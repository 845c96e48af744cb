"""Association calculus for individuals.

The carrier model is concrete: an individual is a finite set of named atoms,
association is set union, and the null individual is the empty set.  In this
model every law of the calculus (monoid laws, parthood, composition) is
decidable and exactly testable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["Individual", "NULL", "associate", "is_part_of", "composition"]

# Powerset enumeration in composition() is exponential; refuse beyond this.
_MAX_COMPOSITION_ATOMS = 16


@dataclass(frozen=True)
class Individual:
    """A finite set of atoms; the unit of the association monoid."""

    atoms: frozenset[str] = field(default_factory=frozenset)

    def __lt__(self, other: "Individual") -> bool:
        return sorted(self.atoms) < sorted(other.atoms)


NULL = Individual()


def associate(x: Individual, y: Individual) -> Individual:
    """Binary association; set union in the canonical model."""
    return Individual(x.atoms | y.atoms)


def is_part_of(x: Individual, y: Individual) -> bool:
    """x is part of y exactly when associating x into y changes nothing."""
    return associate(x, y) == y


def composition(x: Individual) -> frozenset[Individual]:
    """All parts of ``x``, including the null individual and ``x`` itself."""
    atoms = sorted(x.atoms)
    if len(atoms) > _MAX_COMPOSITION_ATOMS:
        raise ValueError(
            f"composition of {len(atoms)} atoms would enumerate 2**{len(atoms)} parts"
        )
    parts = []
    for r in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            parts.append(Individual(frozenset(combo)))
    return frozenset(parts)
