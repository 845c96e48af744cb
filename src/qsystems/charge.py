"""Charge operator, gauge transformations of the first kind, and the
superselection structure they induce.

A charge model pairs a hermitian operator with integer spectrum against the
observables it is supposed to commute with.  The checks below make the
consequences operational: gauge conjugation fixes every registered
observable, charge sectors are superselected (no observable connects them),
and relative phases between sectors are invisible to every expectation
value.

The checks return plain values or report detail: :func:`sector_decomposition`
returns the sector projectors and a dict of its diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, StateVector, eigh_phase_fixed

__all__ = [
    "ChargeModel",
    "verify_central",
    "gauge_transform",
    "sector_decomposition",
    "relative_phase_spread",
]

INTEGER_SPECTRUM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChargeModel:
    """Charge operator plus the observables registered as commuting with it.

    The spectrum must consist of integers (within tolerance) so that the
    gauge family exp(i*theta*Q) is 2*pi-periodic, and the charge must differ
    from the identity.  The vacuum index singles out the basis vector
    required to be fixed by the gauge family.
    """

    q_operator: Operator
    observables: tuple[Operator, ...]
    vacuum_index: int

    def __post_init__(self):
        q = self.q_operator
        if not np.max(np.abs(q.entries - q.entries.conj().T)) <= 1e-10:
            raise ValueError("charge operator must be hermitian")
        eigs = np.linalg.eigvalsh(q.entries)
        if np.max(np.abs(eigs - np.round(eigs))) > INTEGER_SPECTRUM_ATOL:
            raise ValueError("charge spectrum must be integral")
        if np.max(np.abs(q.entries - np.eye(q.space.total_dim))) <= 1e-12:
            raise ValueError("charge operator must differ from the identity")


def verify_central(model: ChargeModel) -> list[float]:
    """Commutator norm of the charge with each registered observable."""
    q = model.q_operator.entries
    return [float(np.linalg.norm(q @ obs.entries - obs.entries @ q)) for obs in model.observables]


def gauge_transform(model: ChargeModel, theta: float) -> Operator:
    """The first-kind gauge unitary exp(i*theta*Q) by spectral exponentiation."""
    vals, vecs = eigh_phase_fixed(model.q_operator.entries)
    phases = np.exp(1j * float(theta) * vals)
    return Operator(model.q_operator.space, (vecs * phases[None, :]) @ vecs.conj().T)


def sector_decomposition(model: ChargeModel) -> tuple[list[np.ndarray], dict]:
    """Spectral projectors of the charge, in ascending charge order, and the
    superselection diagnostics as report detail.

    Reports whether the neutral (charge-zero) sector is one-dimensional,
    whether the designated vacuum vector is fixed by the gauge family, and the
    largest cross-sector matrix element of any registered observable.
    """
    vals, vecs = eigh_phase_fixed(model.q_operator.entries)
    rounded = np.round(vals).astype(int)
    charges = sorted(set(rounded.tolist()))
    columns = [vecs[:, rounded == q] for q in charges]
    projectors = [cols @ cols.conj().T for cols in columns]
    dimensions = [cols.shape[1] for cols in columns]
    neutral_dim = dimensions[charges.index(0)] if 0 in charges else 0

    vac = np.zeros(len(vals), dtype=np.complex128)
    vac[model.vacuum_index] = 1.0
    moved = [
        gauge_transform(model, theta).entries @ vac - vac
        for theta in np.linspace(0.0, 2.0 * np.pi, 9)
    ]

    blocks = [
        pa @ obs.entries @ pb
        for obs in model.observables
        for pa, pb in itertools.combinations(projectors, 2)
    ]
    return projectors, {
        "charges": charges,
        "dimensions": dimensions,
        "neutral_dimension": neutral_dim,
        "neutral_unique": neutral_dim == 1,
        "vacuum_invariant": bool(np.all(np.linalg.norm(moved, axis=1) <= 1e-10)),
        "offdiagonal_residual": float(np.max(np.abs(blocks), initial=0.0)),
    }


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
