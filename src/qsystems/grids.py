"""Periodic-grid discretization shared by the representation, dynamics and
wavepacket code.

One spatial dimension, ``n`` sites on a box of length ``L`` with positions
``x_k = (k - n//2) * L/n``, momenta realized spectrally through the unitary
DFT: each spectral operator is a :func:`circulant`, a strided view of one
inverse FFT of its symbol, hermitized into the one array it returns, and a
symbol on the two-particle grid is applied in place by
:func:`apply_symbol_2d`.  Exact canonical commutators are impossible in finite
dimensions, so every consumer of these operators restricts its claims to
band-limited, interior-localized states: the :class:`DomainMask` of
:func:`band_limited_mask`.  The two-particle checks draw product test states
from such masks and apply one-particle operators leg by leg, so no
n^2 x n^2 matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "MIN_SITES",
    "position_values",
    "momentum_values",
    "circulant",
    "apply_symbol_2d",
    "momentum_operator",
    "kinetic_operator",
    "wrap_displacement",
    "periodic_distance",
    "DomainMask",
    "band_limited_mask",
]


MIN_SITES = 8

# The masked subspace of :func:`band_limited_mask`: the lowest third of the
# momentum modes under a gaussian envelope of a sixteenth of the box, kept to
# the singular values above this cut of the largest.
_BAND_FRACTION = 1.0 / 3.0
_ENVELOPE_FRAC = 1.0 / 16.0
_SVD_CUT = 1e-4


@dataclass(frozen=True)
class GridSpec:
    n_sites: int
    length: float

    def __post_init__(self):
        if self.n_sites < MIN_SITES:
            raise ValueError(f"need at least {MIN_SITES} sites, got {self.n_sites}")
        if self.length <= 0:
            raise ValueError("box length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n_sites


def position_values(grid: GridSpec) -> np.ndarray:
    n = grid.n_sites
    return (np.arange(n) - n // 2) * grid.spacing


def momentum_values(grid: GridSpec) -> np.ndarray:
    """fftfreq-ordered momentum eigenvalues k (units with hbar = 1)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_sites, d=grid.spacing)


def circulant(column: np.ndarray) -> np.ndarray:
    """The (n, n) circulant whose entry [i, j] is ``column[(i - j) % n]``, as a
    read-only strided view of one array of 2n - 1 values, ``column[::-1]``
    followed by ``column[:0:-1]``.  Row i is the window that starts n - 1 - i
    values in, so each row is contiguous and no index array is formed."""
    n = column.size
    reversed_column = column[::-1]
    doubled = np.concatenate((reversed_column, reversed_column[:-1]))
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[::-1]


def apply_symbol_2d(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The operator diagonal in 2-d momentum with ``symbol`` applied in place
    to the complex (n, n) array ``values``, by one unitary 2-d FFT pair that
    writes back into it; returns ``values``."""
    np.fft.fft2(values, norm="ortho", out=values)
    values *= symbol
    # numpy's ifft2 drops its out=, so the inverse is ifftn over the same two
    # axes, which takes it and gives the same bits.
    return np.fft.ifftn(values, axes=(-2, -1), norm="ortho", out=values)


def _spectral_operator(column: np.ndarray) -> np.ndarray:
    """Hermitized F^H diag(v) F, with F the unitary DFT, from its first
    column ``ifft(v)``.

    The product is the :func:`circulant` of the column, so the hermitized
    matrix is written in O(n^2) into the one array it returns.
    """
    op = circulant(column)
    hermitized = np.conjugate(op.T, out=np.empty(op.shape, op.dtype))
    hermitized += op
    hermitized *= 0.5
    return hermitized


def momentum_operator(grid: GridSpec) -> np.ndarray:
    """Dense spectral-derivative momentum matrix (hermitized)."""
    return _spectral_operator(np.fft.ifft(momentum_values(grid)))


def kinetic_operator(grid: GridSpec, mass: float) -> np.ndarray:
    """Dense spectral kinetic matrix (hermitized), real ``float64``."""
    # k^2 / 2m is even in fftfreq order (k[-j] = -k[j], and the Nyquist entry
    # of an even n is its own mirror), so the circulant's column is real up
    # to roundoff, which the real part drops.
    return _spectral_operator(np.fft.ifft(momentum_values(grid) ** 2 / (2.0 * mass)).real)


def wrap_displacement(values: np.ndarray, length: float) -> np.ndarray:
    """Map displacements to the principal interval [-L/2, L/2)."""
    return (np.asarray(values) + 0.5 * length) % length - 0.5 * length


def periodic_distance(values: np.ndarray, length: float) -> np.ndarray:
    return np.abs(wrap_displacement(values, length))



# --------------------------------------------------------------------------
# Masked test states
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


def band_limited_mask(grid: GridSpec) -> DomainMask:
    """Band-limited, interior-localized states: a gaussian envelope at the box
    center times the plane waves of the lowest ``_BAND_FRACTION`` of modes."""
    n = grid.n_sites
    max_mode = int(np.floor(n * _BAND_FRACTION / 2))
    x = position_values(grid)
    sigma = grid.length * _ENVELOPE_FRAC
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
    basis = u[:, s >= _SVD_CUT * s[0]]
    description = (
        f"well-conditioned span (cutoff {_SVD_CUT:g}) of gaussian envelope "
        f"sigma={sigma:g} at box center times plane waves with |mode| <= {max_mode} "
        f"of {n} (lowest {_BAND_FRACTION:.0%} of momentum modes); dim {basis.shape[1]}"
    )
    return DomainMask(basis=basis, description=description)
