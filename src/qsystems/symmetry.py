"""Permutation action on equal-factor tensor spaces.

Unitary factor-permutation operators, symmetrizer/antisymmetrizer projector
pairs, exchange invariance of expectation values, and the exclusion property
of the antisymmetric sector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, SpaceSpec, StateVector

__all__ = [
    "Permutation",
    "permutation_operator",
    "ProjectorPair",
    "build_projectors",
    "exchange_expectation_check",
    "pauli_exclusion_check",
    "count_symmetric_basis",
    "count_antisymmetric_basis",
    "projector_rank",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}; ``image[i]`` is where slot ``i`` is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"{self.image} is not a permutation of 0..{n - 1}")

    @property
    def size(self) -> int:
        return len(self.image)

    @property
    def parity(self) -> int:
        """+1 for even, -1 for odd, via cycle decomposition."""
        seen = [False] * self.size
        sign = 1
        for start in range(self.size):
            if seen[start]:
                continue
            length = 0
            node = start
            while not seen[node]:
                seen[node] = True
                node = self.image[node]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("permutation sizes differ")
        return Permutation(tuple(self.image[other.image[i]] for i in range(self.size)))


def _permutation_rows(perm: Permutation, dims: tuple[int, ...]) -> np.ndarray:
    """Row index of the single 1 in each column of the permutation operator.

    Column multi-index ``c`` is sent to the row multi-index ``s`` with
    ``s[perm(t)] = c[t]``, so ``U @ v`` is ``v`` scattered to these rows and
    ``U[:, j]`` is the basis vector at ``rows[j]``.
    """
    if perm.size != len(dims):
        raise ValueError(f"permutation of size {perm.size} on {len(dims)} factors")
    for i, target in enumerate(perm.image):
        if dims[i] != dims[target]:
            raise ValueError(
                f"factor {i} (dim {dims[i]}) cannot move to slot {target} (dim {dims[target]})"
            )
    # Axis perm(t) of the row grid becomes axis t of the column grid.
    return np.arange(math.prod(dims)).reshape(dims).transpose(perm.image).reshape(-1)


def permutation_operator(perm: Permutation, space: SpaceSpec) -> Operator:
    """Unitary that relocates the vector in factor ``i`` to factor ``perm(i)``.

    The map is a homomorphism: composing operators matches composing
    permutations.  Factor dimensions must be compatible with the relocation
    (equal factors in the identical-components use; mixed dimensions are
    accepted when the permutation maps like onto like).
    """
    rows = _permutation_rows(perm, space.factor_dims)
    d = space.total_dim
    u = np.zeros((d, d), dtype=np.complex128)
    u[rows, np.arange(d)] = 1.0
    return Operator(space, u)


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    """Symmetrizer and antisymmetrizer on n equal factors of dimension d."""

    space: SpaceSpec
    symmetrizer: Operator
    antisymmetrizer: Operator


def build_projectors(n: int, d: int) -> ProjectorPair:
    """Group-average projectors S = mean(U_P) and A = mean(sgn(P) U_P)."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 factors of dimension d >= 1")
    space = SpaceSpec((d,) * n)
    dim = space.total_dim
    perms = [Permutation(image) for image in itertools.permutations(range(n))]
    # Flat position r*dim + c of the 1 in column c of each permutation operator.
    entries = np.concatenate(
        [_permutation_rows(p, space.factor_dims) * dim + np.arange(dim) for p in perms]
    )
    signs = np.repeat([float(p.parity) for p in perms], dim)
    sym = np.bincount(entries, minlength=dim * dim).astype(np.complex128).reshape(dim, dim)
    asym = np.bincount(entries, signs, minlength=dim * dim).astype(np.complex128).reshape(dim, dim)
    norm = math.factorial(n)
    return ProjectorPair(
        space=space,
        symmetrizer=Operator(space, sym / norm),
        antisymmetrizer=Operator(space, asym / norm),
    )


def exchange_expectation_check(obs: Operator, psi: StateVector, perm: Permutation) -> float:
    """|<psi|A|psi> - <U psi|A|U psi>| for the permutation operator U.

    Zero is the indistinguishability law for permutation-invariant
    observables; an observable that singles out a factor will break it,
    which is the intended negative control.
    """
    amps = psi.normalized().amplitudes
    permuted = np.empty_like(amps)
    permuted[_permutation_rows(perm, psi.space.factor_dims)] = amps  # U @ amps
    before = float(np.real(np.vdot(amps, obs.entries @ amps)))
    after = float(np.real(np.vdot(permuted, obs.entries @ permuted)))
    return abs(before - after)


def pauli_exclusion_check(single_states: list[StateVector]) -> float:
    """Norm of the antisymmetrized product of one-component states.

    Exclusion: it vanishes when two of the states are the same ray.
    """
    if len(single_states) < 2:
        raise ValueError("need at least two single-component states")
    d = single_states[0].space.total_dim
    if any(s.space.total_dim != d for s in single_states):
        raise ValueError("single-component states must share one dimension")
    product = np.ones(1, dtype=np.complex128)
    for state in single_states:
        product = np.kron(product, state.normalized().amplitudes)
    projected = build_projectors(len(single_states), d).antisymmetrizer.entries @ product
    return float(np.linalg.norm(projected))


def count_symmetric_basis(n: int, d: int) -> int:
    """Brute-force enumeration: orbits of index tuples under sorting."""
    return sum(1 for _ in itertools.combinations_with_replacement(range(d), n))


def count_antisymmetric_basis(n: int, d: int) -> int:
    """Brute-force enumeration: strictly increasing index tuples."""
    return sum(1 for _ in itertools.combinations(range(d), n))


def projector_rank(op: Operator, threshold: float = 0.5) -> int:
    """Rank of an (approximate) orthogonal projector by eigenvalue count."""
    eigs = np.linalg.eigvalsh(op.entries)
    return int(np.sum(eigs > threshold))
