"""Negative controls: each row injects one defect into the code under one
check, runs that check's suite runner at its defaults, and asserts that the
check fails.  A check that no defect can flip would pass vacuously.

Rows so far cover the dynamics product-space checks and
``momentum-conservation``.
"""

from dataclasses import replace

import numpy as np
import pytest

from qsystems import dynamics, suites

SAMPLE = dynamics.PotentialSpec.sample
APPLY = dynamics._apply_product_hamiltonian
SPIN_PAIR_OPERATORS = dynamics.spin_pair_operators


def nonlinear_sample(monkeypatch):
    """Every sampled potential v becomes v + 5 v^2."""

    def sample(self, table, r):
        v = SAMPLE(self, table, r)
        return v + 5.0 * v ** 2

    monkeypatch.setattr(dynamics.PotentialSpec, "sample", sample)


def wrong_second_mass(monkeypatch):
    """The product-space Hamiltonian takes body 2's mass 10% too large."""

    def apply(cfg, pot, hbar, vectors):
        m1, m2 = cfg.masses
        return APPLY(replace(cfg, masses=(m1, 1.1 * m2)), pot, hbar, vectors)

    monkeypatch.setattr(dynamics, "_apply_product_hamiltonian", apply)


def asymmetric_tensor_term(monkeypatch):
    """The tensor term is built from s1z alone, which the swap does not fix."""

    def operators(hbar=1.0):
        dot, _ = SPIN_PAIR_OPERATORS(hbar)
        sz = 0.5 * hbar * np.diag([1.0, -1.0])
        return dot, 3.0 * np.kron(sz, 0.5 * hbar * np.eye(2)) - dot

    monkeypatch.setattr(dynamics, "spin_pair_operators", operators)


def potential_of_first_position(monkeypatch):
    """A pair potential sampled on a (site 1, site 2) grid reads only its
    first column, so it depends on x1 alone."""

    def sample(self, table, r):
        r = np.asarray(r)
        if r.ndim == 2:
            r = np.broadcast_to(r[:, :1], r.shape)
        return SAMPLE(self, table, r)

    monkeypatch.setattr(dynamics.PotentialSpec, "sample", sample)


ROWS = [
    ("dynamics", "weak-coupling-linearity", nonlinear_sample),
    ("dynamics", "weak-coupling-zero", wrong_second_mass),
    ("dynamics", "exchange-symmetry", asymmetric_tensor_term),
    ("dynamics", "momentum-conservation", potential_of_first_position),
]


def verdicts(suite: str) -> dict:
    return {c.check_id: c.passed for c in suites.run_suite(suite).checks}


@pytest.mark.parametrize("suite", sorted({suite for suite, _, _ in ROWS}))
def test_controls_start_from_passing_checks(suite):
    checks = verdicts(suite)
    assert all(checks[check_id] for s, check_id, _ in ROWS if s == suite)


@pytest.mark.parametrize("suite, check_id, inject", ROWS, ids=[row[1] for row in ROWS])
def test_injected_defect_fails_its_check(suite, check_id, inject, monkeypatch):
    inject(monkeypatch)
    assert verdicts(suite)[check_id] is False
