"""Periodic-grid discretization shared by the representation, dynamics and
wavepacket code.

One spatial dimension, ``n`` sites on a box of length ``L`` with positions
``x_k = (k - n//2) * L/n``, momenta realized spectrally through the unitary
DFT.  Exact canonical commutators are impossible in finite dimensions, so
every consumer of these operators restricts its claims to band-limited,
interior-localized states: the :class:`DomainMask` of
:func:`band_limited_mask`.  Two-particle checks draw product test states from
such masks and apply one-particle operators leg by leg to (n, n) state arrays
with :func:`leg_product`, so no n^2 x n^2 matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "position_values",
    "momentum_values",
    "momentum_operator",
    "kinetic_operator",
    "wrap_displacement",
    "periodic_distance",
    "DomainMask",
    "band_limited_mask",
    "leg_product",
]


@dataclass(frozen=True)
class GridSpec:
    n_sites: int
    length: float

    def __post_init__(self):
        if self.n_sites < 8:
            raise ValueError(f"need at least 8 sites, got {self.n_sites}")
        if self.length <= 0:
            raise ValueError("box length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n_sites


def position_values(grid: GridSpec) -> np.ndarray:
    n = grid.n_sites
    return (np.arange(n) - n // 2) * grid.spacing


def momentum_values(grid: GridSpec, hbar: float = 1.0) -> np.ndarray:
    """fftfreq-ordered momentum eigenvalues hbar * k."""
    return hbar * 2.0 * np.pi * np.fft.fftfreq(grid.n_sites, d=grid.spacing)


def _spectral_operator(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Dense hermitized F^H diag(values) F, with F the unitary DFT."""
    f = np.fft.fft(np.eye(grid.n_sites, dtype=np.complex128), axis=0, norm="ortho")
    op = f.conj().T @ (values[:, None] * f)
    return 0.5 * (op + op.conj().T)


def momentum_operator(grid: GridSpec, hbar: float = 1.0) -> np.ndarray:
    """Dense spectral-derivative momentum matrix (hermitized)."""
    return _spectral_operator(grid, momentum_values(grid, hbar))


def kinetic_operator(grid: GridSpec, mass: float, hbar: float = 1.0) -> np.ndarray:
    return _spectral_operator(grid, momentum_values(grid, hbar) ** 2 / (2.0 * mass))


def wrap_displacement(values: np.ndarray, length: float) -> np.ndarray:
    """Map displacements to the principal interval [-L/2, L/2)."""
    return (np.asarray(values) + 0.5 * length) % length - 0.5 * length


def periodic_distance(values: np.ndarray, length: float) -> np.ndarray:
    return np.abs(wrap_displacement(values, length))



# --------------------------------------------------------------------------
# Masked test states and two-particle leg products
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Orthonormal basis of the subspace on which bracket relations hold."""

    basis: np.ndarray  # (dim, m) columns
    description: str

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def random_states(self, n_states: int, rng: np.random.Generator) -> np.ndarray:
        """Unit-norm columns drawn uniformly from the masked subspace."""
        m = self.basis.shape[1]
        coeffs = rng.standard_normal((m, n_states)) + 1j * rng.standard_normal((m, n_states))
        states = self.basis @ coeffs
        return states / np.linalg.norm(states, axis=0, keepdims=True)


def band_limited_mask(
    grid: GridSpec, band_fraction: float, envelope_frac: float, svd_cut: float = 1e-4
) -> DomainMask:
    """Band-limited, interior-localized states: a gaussian envelope at the box
    center times the plane waves of the lowest ``band_fraction`` of modes."""
    n = grid.n_sites
    max_mode = int(np.floor(n * band_fraction / 2))
    x = position_values(grid)
    sigma = grid.length * envelope_frac
    envelope = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    columns = []
    for mode in range(-max_mode, max_mode + 1):
        k = 2.0 * np.pi * mode / grid.length
        columns.append(envelope * np.exp(1j * k * x))
    raw = np.column_stack(columns)
    # Neighboring columns overlap strongly; keep only the well-conditioned
    # part of the span, or the orthonormalization amplifies roundoff into
    # spurious high-frequency content.
    u, s, _ = np.linalg.svd(raw, full_matrices=False)
    basis = u[:, s >= svd_cut * s[0]]
    description = (
        f"well-conditioned span (cutoff {svd_cut:g}) of gaussian envelope "
        f"sigma={sigma:g} at box center times plane waves with |mode| <= {max_mode} "
        f"of {n} (lowest {band_fraction:.0%} of momentum modes); dim {basis.shape[1]}"
    )
    return DomainMask(basis=basis, description=description)


def _apply_factor(op: np.ndarray, which: int | None, psi: np.ndarray) -> np.ndarray:
    """Apply an operator to the (n, n) two-particle state array ``psi``.

    With ``which`` 0 or 1, ``op`` is a one-particle operator on that leg: a
    dense matrix, or the vector of its diagonal, which then acts elementwise.
    With ``which`` None, ``op`` is an (n, n) array that multiplies ``psi``
    elementwise, a potential diagonal in both positions.
    """
    if which is None:
        return op * psi
    if op.ndim == 1:
        return op[:, None] * psi if which == 0 else psi * op
    if which == 0:
        return op @ psi
    return psi @ op.T


def leg_product(ops: dict, products: dict, names: tuple[str, ...]) -> np.ndarray:
    """The operator product ``names`` applied to the state ``products[()]``;
    ("K", "P") is K(P(psi)).

    ``ops`` maps a name to ``(op, which)``, applied by :func:`_apply_factor`,
    or to a tuple of names, whose operators it sums in that order:
    ``"H": ("Ha", "Hb", "V")``.  ``products`` memoizes every partial product,
    so each is computed once per state.

    A module-level function, so that no closure refers to itself: such a
    cycle would keep the memo alive after the call until the cyclic garbage
    collector happened to run.
    """
    if names not in products:
        entry, rest = ops[names[0]], names[1:]
        if isinstance(entry[0], str):
            total = leg_product(ops, products, (entry[0], *rest))
            for term in entry[1:]:
                total = total + leg_product(ops, products, (term, *rest))
            products[names] = total
        else:
            op, which = entry
            products[names] = _apply_factor(op, which, leg_product(ops, products, rest))
    return products[names]
