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

CENTRAL_ATOL = 1e-10
INTEGER_SPECTRUM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChargeModel:
    """Charge operator plus the observables registered as commuting with it.

    The spectrum must consist of integers (within tolerance) so that the
    gauge family exp(i*theta*Q) is 2*pi-periodic, and the charge must differ
    from the identity.  An optional vacuum index singles out the basis vector
    required to be fixed by the gauge family and by any registered symmetry
    unitaries.
    """

    space: SpaceSpec
    q_operator: Operator
    observables: tuple[Operator, ...] = ()
    symmetry_unitaries: tuple[Operator, ...] = ()
    vacuum_index: int | None = None

    def __post_init__(self):
        q = self.q_operator
        if q.space != self.space:
            raise ValueError("charge operator lives on the wrong space")
        if not q.is_hermitian(1e-10):
            raise ValueError("charge operator must be hermitian")
        eigs = np.linalg.eigvalsh(q.entries)
        if np.max(np.abs(eigs - np.round(eigs))) > INTEGER_SPECTRUM_ATOL:
            raise ValueError("charge spectrum must be integral")
        if np.max(np.abs(q.entries - np.eye(self.space.total_dim))) <= 1e-12:
            raise ValueError("charge operator must differ from the identity")

    @property
    def charges(self) -> np.ndarray:
        return np.round(np.linalg.eigvalsh(self.q_operator.entries)).astype(int)


def verify_central(model: ChargeModel, tolerance: float = CENTRAL_ATOL) -> dict:
    """Commutator norm of the charge with every registered observable, as
    report detail."""
    q = model.q_operator.entries
    residuals = []
    for obs in model.observables:
        comm = q @ obs.entries - obs.entries @ q
        residuals.append(float(np.linalg.norm(comm)))
    max_residual = max(residuals, default=0.0)
    return {
        "residuals": residuals,
        "max_residual": max_residual,
        "tolerance": tolerance,
        "pass": max_residual <= tolerance,
    }


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
    whether the designated vacuum vector is fixed by the gauge family and the
    registered symmetry unitaries, and the largest cross-sector matrix
    element of any registered observable.
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
        vacuum_ok = True
        for theta in np.linspace(0.0, 2.0 * np.pi, 9):
            if np.linalg.norm(gauge_transform(model, theta).entries @ vac - vac) > 1e-10:
                vacuum_ok = False
                break
        if vacuum_ok:
            for unitary in model.symmetry_unitaries:
                if np.linalg.norm(unitary.entries @ vac - vac) > 1e-10:
                    vacuum_ok = False
                    break

    worst = 0.0
    for obs in model.observables:
        for sa, sb in itertools.combinations(sectors, 2):
            block = sa.projector @ obs.entries @ sb.projector
            worst = max(worst, float(np.max(np.abs(block))))
    return SectorDecomposition(
        sectors=tuple(sectors),
        neutral_dimension=neutral_dim,
        neutral_unique=neutral_dim == 1,
        vacuum_invariant=vacuum_ok,
        offdiagonal_residual=worst,
    )


def relative_phase_spread(
    model: ChargeModel,
    state_a: StateVector,
    state_b: StateVector,
    n_phases: int = 16,
) -> float:
    """Spread of every observable's expectation over relative-phase twists.

    ``state_a`` and ``state_b`` should live in different charge sectors; the
    returned number is the largest variation, over a uniform grid of phases
    alpha, of <psi_alpha|A|psi_alpha> with
    psi_alpha = (a + e^{i alpha} b)/sqrt(2).  Superselection makes it vanish.
    """
    a = state_a.normalized().amplitudes
    b = state_b.normalized().amplitudes
    alphas = 2.0 * np.pi * np.arange(n_phases) / n_phases
    worst = 0.0
    for obs in model.observables:
        values = []
        for alpha in alphas:
            psi = (a + np.exp(1j * alpha) * b) / np.sqrt(2.0)
            psi = psi / np.linalg.norm(psi)
            values.append(float(np.real(np.vdot(psi, obs.entries @ psi))))
        worst = max(worst, max(values) - min(values))
    return worst
