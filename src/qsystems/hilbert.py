"""Finite-dimensional states and operators over explicit tensor factors.

Everything is dense ``complex128``.  Values are immutable after construction
(arrays are marked read-only), operations are pure, and eigenvector bases are
made deterministic by a fixed phase convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SpaceSpec",
    "StateVector",
    "Operator",
    "DensityOperator",
    "tensor",
    "lift",
    "born_probability",
    "sharp_value",
    "conjugate_by_unitary",
    "partial_trace",
    "expectation",
    "eigh_phase_fixed",
    "pauli_matrices",
    "basis_state",
    "identity_operator",
]

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-10
SHARP_ATOL = 1e-10
DEGENERACY_MERGE_TOL = 1e-9
PSD_ATOL = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.complex128)
    out.setflags(write=False)
    return out


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

    def merged_with(self, other: "SpaceSpec") -> "SpaceSpec":
        return SpaceSpec(self.factor_dims + other.factor_dims)


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
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, atol: float = NORM_ATOL) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def ray_equals(self, other: "StateVector", atol: float = 1e-10) -> bool:
        """Same physical state: unit overlap up to a global phase."""
        if self.space != other.space:
            return False
        overlap = abs(np.vdot(self.amplitudes, other.amplitudes))
        return abs(overlap - self.norm() * other.norm()) <= atol


@dataclass(frozen=True, eq=False)
class Operator:
    space: SpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=np.complex128)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"operator shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "entries", _frozen(mat))

    def is_hermitian(self, atol: float = HERMITIAN_ATOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= atol)

    def dagger(self) -> "Operator":
        return Operator(self.space, self.entries.conj().T)

    def apply(self, state: StateVector) -> StateVector:
        if state.space != self.space:
            raise ValueError("state and operator live on different spaces")
        return StateVector(self.space, self.entries @ state.amplitudes)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.space != other.space:
            raise ValueError("operator spaces differ")
        return Operator(self.space, self.entries @ other.entries)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    space: SpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=np.complex128)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"density shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "entries", _frozen(mat))

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityOperator":
        amps = psi.normalized().amplitudes
        return cls(psi.space, np.outer(amps, amps.conj()))

    def validate(self, atol: float = HERMITIAN_ATOL, psd_atol: float = PSD_ATOL) -> None:
        """Raise unless hermitian, unit trace, and PSD within tolerance."""
        if np.max(np.abs(self.entries - self.entries.conj().T)) > atol:
            raise ValueError("density operator is not hermitian")
        if abs(np.trace(self.entries) - 1.0) > atol:
            raise ValueError("density operator trace differs from 1")
        eigs = np.linalg.eigvalsh(self.entries)
        if eigs.min() < -psd_atol:
            raise ValueError(f"density operator has negative eigenvalue {eigs.min():g}")


def basis_state(space: SpaceSpec, index: int) -> StateVector:
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(space, amps)


def identity_operator(space: SpaceSpec) -> Operator:
    return Operator(space, np.eye(space.total_dim, dtype=np.complex128))


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return sx, sy, sz


def tensor(a, b):
    """Kronecker composite of two states or two operators.

    Factor dimensions concatenate; the left argument's factors come first.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.space.merged_with(b.space), np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.space.merged_with(b.space), np.kron(a.entries, b.entries))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(a.space.merged_with(b.space), np.kron(a.entries, b.entries))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


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


def eigh_phase_fixed(matrix: np.ndarray, zero_tol: float = 1e-12):
    """Hermitian eigendecomposition with a deterministic basis.

    Eigenvalues ascend; each eigenvector is rescaled so its first component
    with magnitude above ``zero_tol`` is real and positive.
    """
    vals, vecs = np.linalg.eigh(matrix)
    vecs = np.array(vecs)
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        idx = np.argmax(np.abs(v) > zero_tol)
        pivot = v[idx]
        if abs(pivot) > zero_tol:
            vecs[:, col] = v * (pivot.conjugate() / abs(pivot))
    return vals, vecs


def _merge_spectrum(vals: np.ndarray, merge_tol: float):
    """Group near-equal eigenvalues into spectral points (index lists)."""
    groups: list[tuple[float, list[int]]] = []
    for i, v in enumerate(vals):
        if groups and abs(v - groups[-1][0]) <= merge_tol:
            value, members = groups[-1]
            members.append(i)
            groups[-1] = ((value * (len(members) - 1) + v) / len(members), members)
        else:
            groups.append((float(v), [i]))
    return groups


def born_probability(
    state: StateVector,
    observable: Operator,
    interval: Sequence[float],
    merge_tol: float = DEGENERACY_MERGE_TOL,
) -> float:
    """Probability of finding the observable's value inside ``interval``.

    Discrete spectral version of the probability-density rule: eigenvalues
    within ``merge_tol`` of each other count as one spectral point, and the
    probability of a point is the squared projection of the state onto its
    eigenspace.  Both interval ends are inclusive.
    """
    if not observable.is_hermitian():
        raise ValueError("observable must be hermitian")
    if not state.is_normalized(atol=1e-9):
        raise ValueError("state must be normalized")
    a1, a2 = float(interval[0]), float(interval[1])
    if a2 < a1:
        raise ValueError(f"empty interval [{a1}, {a2}]")
    vals, vecs = eigh_phase_fixed(observable.entries)
    weights = np.abs(vecs.conj().T @ state.amplitudes) ** 2
    prob = 0.0
    for value, members in _merge_spectrum(vals, merge_tol):
        if a1 <= value <= a2:
            prob += float(weights[members].sum())
    return min(max(prob, 0.0), 1.0)


def sharp_value(state: StateVector, observable: Operator, tol: float = SHARP_ATOL):
    """The single value the observable takes on ``state``, if any.

    Returns the (real) expectation value when the state is an eigenvector up
    to residual ``tol`` (scaled by the size of the operator's action), and
    ``None`` otherwise.
    """
    if not observable.is_hermitian():
        raise ValueError("observable must be hermitian")
    psi = state.normalized().amplitudes
    image = observable.entries @ psi
    mean = float(np.real(np.vdot(psi, image)))
    residual = np.linalg.norm(image - mean * psi)
    scale = max(1.0, float(np.linalg.norm(image)))
    if residual <= tol * scale:
        return mean
    return None


def conjugate_by_unitary(op: Operator, u: Operator, atol: float = UNITARY_ATOL) -> Operator:
    """Return U^dagger op U for unitary ``u``; the spectrum is preserved."""
    if op.space != u.space:
        raise ValueError("operator and unitary live on different spaces")
    gram = u.entries.conj().T @ u.entries
    if np.max(np.abs(gram - np.eye(op.space.total_dim))) > atol:
        raise ValueError("conjugating operator is not unitary")
    return Operator(op.space, u.entries.conj().T @ op.entries @ u.entries)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every factor not in ``keep``; kept factors keep their order."""
    keep_sorted = sorted(set(int(k) for k in keep))
    if not keep_sorted:
        raise ValueError("keep set must be non-empty")
    dims = rho.space.factor_dims
    n = len(dims)
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise IndexError(f"keep indices {keep_sorted} out of range for {n} factors")
    traced = [i for i in range(n) if i not in keep_sorted]
    tensor_form = rho.entries.reshape(dims + dims)
    for offset, axis in enumerate(traced):
        # Each trace removes one row and one column axis.
        row = axis - offset
        col = row + (n - offset)
        tensor_form = np.trace(tensor_form, axis1=row, axis2=col)
    kept_dims = tuple(dims[i] for i in keep_sorted)
    d = int(np.prod(kept_dims))
    return DensityOperator(SpaceSpec(kept_dims), tensor_form.reshape(d, d))


def expectation(state: StateVector, op: Operator) -> complex:
    if state.space != op.space:
        raise ValueError("state and operator live on different spaces")
    return complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))
