"""Charge operator, gauge transformations of the first kind, and the
superselection structure they induce.

A charge model pairs a hermitian operator with integer spectrum against the
observables it is supposed to commute with.  The checks below make the
consequences operational: gauge conjugation fixes every registered
observable, charge sectors are superselected (no observable connects them),
and relative phases between sectors are invisible to every expectation
value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, SpaceSpec, StateVector, eigh_phase_fixed

__all__ = [
    "ChargeModel",
    "verify_central",
    "gauge_transform",
    "ChargeSector",
    "SectorDecomposition",
    "sector_decomposition",
    "relative_phase_spread",
]

INTEGER_SPECTRUM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChargeModel:
    """Charge operator plus the observables registered as commuting with it.

    The spectrum must consist of integers (within tolerance) so that the
    gauge family exp(i*theta*Q) is 2*pi-periodic, and the charge must differ
    from the identity.  An optional vacuum index singles out the basis vector
    required to be fixed by the gauge family.
    """

    space: SpaceSpec
    q_operator: Operator
    observables: tuple[Operator, ...] = ()
    vacuum_index: int | None = None

    def __post_init__(self):
        q = self.q_operator
        if q.space != self.space:
            raise ValueError("charge operator lives on the wrong space")
        if not np.max(np.abs(q.entries - q.entries.conj().T)) <= 1e-10:
            raise ValueError("charge operator must be hermitian")
        eigs = np.linalg.eigvalsh(q.entries)
        if np.max(np.abs(eigs - np.round(eigs))) > INTEGER_SPECTRUM_ATOL:
            raise ValueError("charge spectrum must be integral")
        if np.max(np.abs(q.entries - np.eye(self.space.total_dim))) <= 1e-12:
            raise ValueError("charge operator must differ from the identity")


def verify_central(model: ChargeModel) -> list[float]:
    """Commutator norm of the charge with each registered observable."""
    q = model.q_operator.entries
    return [float(np.linalg.norm(q @ obs.entries - obs.entries @ q)) for obs in model.observables]


def gauge_transform(model: ChargeModel, theta: float) -> Operator:
    """The first-kind gauge unitary exp(i*theta*Q) by spectral exponentiation."""
    vals, vecs = eigh_phase_fixed(model.q_operator.entries)
    phases = np.exp(1j * float(theta) * vals)
    return Operator(model.space, (vecs * phases[None, :]) @ vecs.conj().T)


@dataclass(frozen=True, eq=False)
class ChargeSector:
    charge: int
    dimension: int
    projector: np.ndarray


@dataclass(frozen=True, eq=False)
class SectorDecomposition:
    sectors: tuple[ChargeSector, ...]
    neutral_dimension: int
    neutral_unique: bool
    vacuum_invariant: bool | None
    offdiagonal_residual: float

    def to_dict(self) -> dict:
        return {
            "charges": [s.charge for s in self.sectors],
            "dimensions": [s.dimension for s in self.sectors],
            "neutral_dimension": self.neutral_dimension,
            "neutral_unique": self.neutral_unique,
            "vacuum_invariant": self.vacuum_invariant,
            "offdiagonal_residual": self.offdiagonal_residual,
        }


def sector_decomposition(model: ChargeModel) -> SectorDecomposition:
    """Spectral projectors of the charge and the superselection diagnostics.

    Reports whether the neutral (charge-zero) sector is one-dimensional,
    whether the designated vacuum vector is fixed by the gauge family, and the
    largest cross-sector matrix element of any registered observable.
    """
    vals, vecs = eigh_phase_fixed(model.q_operator.entries)
    rounded = np.round(vals).astype(int)
    sectors = []
    for charge in sorted(set(rounded.tolist())):
        cols = vecs[:, rounded == charge]
        sectors.append(
            ChargeSector(
                charge=int(charge),
                dimension=cols.shape[1],
                projector=cols @ cols.conj().T,
            )
        )
    neutral_dim = next((s.dimension for s in sectors if s.charge == 0), 0)

    vacuum_ok: bool | None = None
    if model.vacuum_index is not None:
        vac = np.zeros(model.space.total_dim, dtype=np.complex128)
        vac[model.vacuum_index] = 1.0
        moved = [
            gauge_transform(model, theta).entries @ vac - vac
            for theta in np.linspace(0.0, 2.0 * np.pi, 9)
        ]
        vacuum_ok = bool(np.all(np.linalg.norm(moved, axis=1) <= 1e-10))

    blocks = [
        sa.projector @ obs.entries @ sb.projector
        for obs in model.observables
        for sa, sb in itertools.combinations(sectors, 2)
    ]
    return SectorDecomposition(
        sectors=tuple(sectors),
        neutral_dimension=neutral_dim,
        neutral_unique=neutral_dim == 1,
        vacuum_invariant=vacuum_ok,
        offdiagonal_residual=float(np.max(np.abs(blocks), initial=0.0)),
    )


def relative_phase_spread(
    model: ChargeModel,
    state_a: StateVector,
    state_b: StateVector,
    n_phases: int = 16,
) -> np.ndarray:
    """Spread of each observable's expectation over relative-phase twists.

    ``state_a`` and ``state_b`` should live in different charge sectors; the
    spread of an observable A is its variation, over a uniform grid of phases
    alpha, of <psi_alpha|A|psi_alpha> with
    psi_alpha = (a + e^{i alpha} b)/sqrt(2).  Superselection makes it vanish.
    """
    a = state_a.normalized().amplitudes
    b = state_b.normalized().amplitudes
    alphas = 2.0 * np.pi * np.arange(n_phases) / n_phases
    values = np.empty((len(model.observables), n_phases))
    for i, obs in enumerate(model.observables):
        for j, alpha in enumerate(alphas):
            psi = (a + np.exp(1j * alpha) * b) / np.sqrt(2.0)
            psi = psi / np.linalg.norm(psi)
            values[i, j] = np.real(np.vdot(psi, obs.entries @ psi))
    return np.ptp(values, axis=1)
