"""Association calculus for individuals.

The carrier model is concrete: the free semilattice on a pool of atoms.  An
individual is an unsigned 64-bit mask over the sorted distinct atoms of the
pool (bit i set when the i-th atom belongs to it), association is bitwise
OR, and the null individual is the empty mask.  In this model every law of
the calculus (monoid laws, parthood, composition) is decidable and exactly
testable, and each operation acts alike on one mask and on a numpy array of
``uint64`` masks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NULL", "associate", "is_part_of", "composition"]

# Powerset enumeration in composition() is exponential; refuse beyond this.
_MAX_COMPOSITION_ATOMS = 16

NULL = 0


def associate(x, y):
    """Binary association; bitwise OR (set union) in the canonical model."""
    return x | y


def is_part_of(x, y):
    """x is part of y exactly when associating x into y changes nothing."""
    return associate(x, y) == y


def composition(x) -> np.ndarray:
    """All parts of ``x``, including the null individual and ``x`` itself, as
    an increasing ``uint64`` array: each atom, taken from the lowest bit up,
    exceeds every part made of the atoms below it."""
    x = int(x)
    atoms = [1 << i for i in range(x.bit_length()) if x >> i & 1]
    if len(atoms) > _MAX_COMPOSITION_ATOMS:
        raise ValueError(
            f"composition of {len(atoms)} atoms would enumerate 2**{len(atoms)} parts"
        )
    parts = np.zeros(1, dtype=np.uint64)
    for atom in atoms:
        parts = np.concatenate([parts, parts | np.uint64(atom)])
    return parts
