"""Permutation action on equal-factor tensor spaces.

A permutation of n factors is a tuple of images, ``image[i]`` the slot that
factor ``i`` moves to, or an ``(m, n)`` integer array of m such tuples.  It
acts on a product space as an index map; from it come the unitary
factor-permutation operators, the real symmetrizer and antisymmetrizer, exchange
invariance of expectation values, and the exclusion property of the
antisymmetric sector.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .hilbert import Operator, SpaceSpec, StateVector

__all__ = [
    "permutation_operator",
    "build_projectors",
    "exchange_expectation_check",
    "pauli_exclusion_check",
    "count_symmetric_basis",
    "count_antisymmetric_basis",
    "projector_rank",
]

# An eigenvalue of an (approximate) orthogonal projector counts towards its
# rank above this midpoint between 0 and 1.
_RANK_THRESHOLD = 0.5

def _permutation_rows(images, dims: tuple[int, ...]) -> np.ndarray:
    """Row index of the single 1 in each column of each permutation operator.

    ``images`` is one image tuple, giving one row per column, or an
    ``(m, n)`` array of them, giving ``m`` such rows.  Column multi-index
    ``c`` is sent to the row multi-index ``s`` with ``s[image[t]] = c[t]``,
    so ``U @ v`` is ``v`` scattered to these rows and ``U[:, j]`` is the
    basis vector at ``rows[j]``.  Raises ValueError unless every image tuple
    is a bijection that moves each factor onto one of equal dimension.
    """
    images = np.asarray(images)
    n = len(dims)
    if images.ndim == 0 or images.shape[-1] != n:
        raise ValueError(f"permutation {images.tolist()} does not act on {n} factors")
    if (np.sort(images, axis=-1) != np.arange(n)).any():
        raise ValueError(f"{images.tolist()} is not a permutation of 0..{n - 1}")
    sizes = np.array(dims)
    moved = sizes[images] != sizes
    if moved.any():
        k, i = np.argwhere(moved.reshape(-1, n))[0]
        target = images.reshape(-1, n)[k, i]
        raise ValueError(
            f"factor {i} (dim {dims[i]}) cannot move to slot {target} (dim {dims[target]})"
        )
    # Row-major offset of each slot, and each column's multi-index, one row
    # per factor; factor t lands in slot image[t].
    strides = np.array([math.prod(dims[k + 1:]) for k in range(n)])
    digits = np.arange(math.prod(dims)) // strides[:, None] % sizes[:, None]
    return strides[images] @ digits


def permutation_operator(image, space: SpaceSpec) -> Operator:
    """Unitary that relocates the vector in factor ``i`` to factor ``image[i]``.

    The map is a homomorphism: composing operators matches composing
    permutations.  Factor dimensions must be compatible with the relocation
    (equal factors in the identical-components use; mixed dimensions are
    accepted when the permutation maps like onto like).
    """
    rows = _permutation_rows(image, space.factor_dims)
    u = np.zeros((rows.size, rows.size))
    u[rows, np.arange(rows.size)] = 1.0
    return Operator(space, u)


def build_projectors(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Group averages S = mean(U_P) and A = mean(sgn(P) U_P) on n factors of
    dimension d, as real ``d^n x d^n`` arrays, by cosets: each P in S_k is
    (i k) h for one i <= k and one h in S_{k-1}, and (i k) flips the sign
    when i < k.  Layer k sums the row gathers C[rows] of the counts C over
    S_{k-1}, since U_(i k) is its own inverse."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 factors of dimension d >= 1")
    # Counts lie within +-n!: the smallest integer type that holds them.
    sym = np.eye(d ** n, dtype=np.min_scalar_type(-math.factorial(n)))
    asym = sym.copy()
    layers, i = np.tril_indices(n, -1)  # (i k) for each i < k, by layer k
    images = np.tile(np.arange(n), (layers.size, 1))
    images[np.arange(layers.size), layers], images[np.arange(layers.size), i] = i, layers
    transpositions = _permutation_rows(images, (d,) * n)
    for k in range(1, n):
        layer_sym, layer_asym = sym.copy(), asym.copy()
        for rows in transpositions[layers == k]:
            layer_sym += sym[rows]
            layer_asym -= asym[rows]
        sym, asym = layer_sym, layer_asym
    # Times 1/n!, not / n!: a real division moves the (6, 2) symmetrizer by
    # 1 ulp from the reported bits.
    scale = 1.0 / math.factorial(n)
    return sym * scale, asym * scale


def exchange_expectation_check(obs: Operator, psi: StateVector, image) -> float:
    """|<psi|A|psi> - <U psi|A|U psi>| for the permutation operator U of ``image``.

    Zero is the indistinguishability law for permutation-invariant
    observables; an observable that singles out a factor will break it,
    which is the intended negative control.
    """
    amps = psi.normalized().amplitudes
    permuted = np.empty_like(amps)
    permuted[_permutation_rows(image, psi.space.factor_dims)] = amps  # U @ amps
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
    _, antisymmetrizer = build_projectors(len(single_states), d)
    return float(np.linalg.norm(antisymmetrizer @ product))


def count_symmetric_basis(n: int, d: int) -> int:
    """Brute-force enumeration: orbits of index tuples under sorting."""
    return sum(1 for _ in itertools.combinations_with_replacement(range(d), n))


def count_antisymmetric_basis(n: int, d: int) -> int:
    """Brute-force enumeration: strictly increasing index tuples."""
    return sum(1 for _ in itertools.combinations(range(d), n))


def projector_rank(projector: np.ndarray) -> int:
    """Rank of an (approximate) orthogonal projector, summed over a stack, by eigenvalue count."""
    return int(np.sum(np.linalg.eigvalsh(projector) > _RANK_THRESHOLD))
