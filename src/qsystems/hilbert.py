"""Finite-dimensional states and operators over explicit tensor factors.

Everything is dense.  States are ``complex128``; an operator keeps real
entries as ``float64`` and complex ones as ``complex128``, so a real symmetric
Hamiltonian reaches a real ``eigh``.  Values are immutable after construction
(arrays are marked read-only).  Besides the value types there are basis
states, the Pauli matrices, the lift of a one-factor operator into a product
space, a norm whose bits do not depend on the BLAS thread count, a phase-fixed
Hermitian eigendecomposition, and the connected sets of a coupling pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceSpec",
    "StateVector",
    "Operator",
    "lift",
    "eigh_phase_fixed",
    "connected_sets",
    "pauli_matrices",
    "basis_state",
    "norm",
]

NORM_ATOL = 1e-12
# A component below this magnitude cannot fix an eigenvector's phase.
_PHASE_PIVOT_TOL = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only ``complex128`` copy of complex input, ``float64`` of real."""
    out = np.array(array, dtype=np.complex128 if np.iscomplexobj(array) else np.float64)
    out.setflags(write=False)
    return out


def norm(array: np.ndarray) -> float:
    """The 2-norm of ``array``: the root of numpy's pairwise sums of re^2 and
    of im^2, added as ``np.linalg.norm`` adds its two BLAS dot products.  The
    dot products' last bits depend on the BLAS thread count; these do not."""
    return math.sqrt(float(np.sum(array.real ** 2)) + float(np.sum(array.imag ** 2)))


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered tensor-factor dimensions; order is significant and fixed."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive, got {self.factor_dims}")
        object.__setattr__(self, "factor_dims", dims)

    @classmethod
    def single(cls, dim: int) -> "SpaceSpec":
        return cls((dim,))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)


@dataclass(frozen=True, eq=False)
class StateVector:
    space: SpaceSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.space.total_dim:
            raise ValueError(
                f"amplitude length {amps.size} != total dim {self.space.total_dim}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def norm(self) -> float:
        return norm(self.amplitudes)

    def is_normalized(self, atol: float = NORM_ATOL) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)


@dataclass(frozen=True, eq=False)
class Operator:
    space: SpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"operator shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "entries", _frozen(mat))


def basis_state(space: SpaceSpec, index: int) -> StateVector:
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(space, amps)


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return sx, sy, sz


def lift(op: Operator, which_factor: int, space: SpaceSpec) -> Operator:
    """Embed a one-factor operator into ``space``, identity elsewhere."""
    if not 0 <= which_factor < space.n_factors:
        raise IndexError(f"factor index {which_factor} out of range for {space}")
    d = space.factor_dims[which_factor]
    if op.space.total_dim != d:
        raise ValueError(
            f"operator dim {op.space.total_dim} != factor dim {d} at index {which_factor}"
        )
    out = np.eye(1, dtype=np.complex128)
    for i, dim in enumerate(space.factor_dims):
        block = op.entries if i == which_factor else np.eye(dim, dtype=np.complex128)
        out = np.kron(out, block)
    return Operator(space, out)


def eigh_phase_fixed(matrix: np.ndarray):
    """Hermitian eigendecomposition with a deterministic basis.

    Eigenvalues ascend; each eigenvector is rescaled so its first component
    with magnitude above ``_PHASE_PIVOT_TOL`` is real and positive.  A real symmetric
    ``matrix`` has real eigenvectors, and the rescaling is a sign flip.
    """
    vals, vecs = np.linalg.eigh(matrix)
    pivots = vecs[np.argmax(np.abs(vecs) > _PHASE_PIVOT_TOL, axis=0), np.arange(vecs.shape[1])]
    size = np.abs(pivots)
    found = size > _PHASE_PIVOT_TOL  # a column with no such component keeps its phase
    scale = np.ones_like(pivots)
    scale[found] = pivots[found].conj() / size[found]
    return vals, vecs * scale


def connected_sets(coupled: np.ndarray) -> list[np.ndarray]:
    """Ascending index arrays of the connected sets of the boolean pattern
    ``coupled``, linked either way, ordered by least index (spread to a fixed point)."""
    coupled = coupled | coupled.T
    labels, spread = None, np.arange(len(coupled))
    while not np.array_equal(labels, spread):
        labels = spread
        spread = np.minimum(labels, np.where(coupled, labels, len(coupled)).min(axis=1))
    # Each set's label is its least index, so its roots label themselves.
    return [np.flatnonzero(labels == root) for root in np.flatnonzero(labels == np.arange(len(labels)))]
