"""Periodic-grid discretization shared by the representation and wavepacket code.

One spatial dimension, ``n`` sites on a box of length ``L`` with positions
``x_k = (k - n//2) * L/n``, momenta realized spectrally through the unitary
DFT.  Exact canonical commutators are impossible in finite dimensions, so
every consumer of these operators restricts its claims to band-limited,
interior-localized states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "position_values",
    "momentum_values",
    "unitary_dft",
    "momentum_operator",
    "kinetic_operator",
    "wrap_displacement",
    "periodic_distance",
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


def unitary_dft(grid: GridSpec) -> np.ndarray:
    return np.fft.fft(np.eye(grid.n_sites, dtype=np.complex128), axis=0, norm="ortho")


def momentum_operator(grid: GridSpec, hbar: float = 1.0) -> np.ndarray:
    """Dense spectral-derivative momentum matrix (hermitized)."""
    f = unitary_dft(grid)
    p = f.conj().T @ (momentum_values(grid, hbar)[:, None] * f)
    return 0.5 * (p + p.conj().T)


def kinetic_operator(grid: GridSpec, mass: float, hbar: float = 1.0) -> np.ndarray:
    f = unitary_dft(grid)
    k2 = momentum_values(grid, hbar) ** 2 / (2.0 * mass)
    t = f.conj().T @ (k2[:, None] * f)
    return 0.5 * (t + t.conj().T)


def wrap_displacement(values: np.ndarray, length: float) -> np.ndarray:
    """Map displacements to the principal interval [-L/2, L/2)."""
    return (np.asarray(values) + 0.5 * length) % length - 0.5 * length


def periodic_distance(values: np.ndarray, length: float) -> np.ndarray:
    return np.abs(wrap_displacement(values, length))

