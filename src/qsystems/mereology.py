"""Association calculus for individuals.

The carrier model is concrete: an individual is a frozenset of atom names,
association is set union, and the null individual is the empty set.  In this
model every law of the calculus (monoid laws, parthood, composition) is
decidable and exactly testable.
"""

from __future__ import annotations

import itertools

__all__ = ["NULL", "associate", "is_part_of", "composition"]

# Powerset enumeration in composition() is exponential; refuse beyond this.
_MAX_COMPOSITION_ATOMS = 16

NULL: frozenset[str] = frozenset()


def associate(x: frozenset[str], y: frozenset[str]) -> frozenset[str]:
    """Binary association; set union in the canonical model."""
    return x | y


def is_part_of(x: frozenset[str], y: frozenset[str]) -> bool:
    """x is part of y exactly when associating x into y changes nothing."""
    return associate(x, y) == y


def composition(x: frozenset[str]) -> frozenset[frozenset[str]]:
    """All parts of ``x``, including the null individual and ``x`` itself."""
    atoms = sorted(x)
    if len(atoms) > _MAX_COMPOSITION_ATOMS:
        raise ValueError(
            f"composition of {len(atoms)} atoms would enumerate 2**{len(atoms)} parts"
        )
    return frozenset(
        frozenset(combo)
        for r in range(len(atoms) + 1)
        for combo in itertools.combinations(atoms, r)
    )
