"""Negative controls: each row injects one defect into the code under one
check, runs that check's suite runner at its defaults, and asserts that the
check fails.  A check that no defect can flip would pass vacuously.  The
axioms suite runs on a small config (a 64-site grid, 4 test states and 4
atoms), where every check still passes before injection.

Rows so far cover every check of the axioms and symmetry suites, the
dynamics product-space checks and ``momentum-conservation``.
"""

from dataclasses import replace

import numpy as np
import pytest

from qsystems import dynamics, galilei, mereology, suites, symmetry
from qsystems.hilbert import Operator

SAMPLE = dynamics.PotentialSpec.sample
APPLY = dynamics._apply_product_hamiltonian
SPIN_PAIR_OPERATORS = dynamics.spin_pair_operators
PROJECTORS = symmetry.build_projectors
PERMUTATION_OPERATOR = symmetry.permutation_operator
PERMUTATION_ROWS = symmetry._permutation_rows
PROJECTOR_RANK = symmetry.projector_rank
ANTISYMMETRIC_COUNT = symmetry.count_antisymmetric_basis
ADDITIVE_REP = galilei.build_additive_rep
SPIN_REP = galilei.build_spin_rep
GRID_REP = galilei.build_grid_rep
ADDITIVE_GRID_PAIR = galilei.verify_additive_grid_pair

SMALL_AXIOMS = {"grid_sites": 64, "n_test_states": 4, "atom_pool": ["a", "b", "c", "d"]}
CONFIGS = {"axioms": SMALL_AXIOMS}


def associate_drops_an_atom(monkeypatch):
    """Association loses the atom "d", so it is no longer idempotent."""
    monkeypatch.setattr(
        mereology, "associate", lambda x, y: mereology.Individual((x.atoms | y.atoms) - {"d"})
    )


def one_sided_table_entry(monkeypatch):
    """[K1, H] reads 2 P1 while [H, K1] still reads -P1."""
    monkeypatch.setitem(galilei._TABLE, ("K1", "H"), {"P1": 2})


def doubled_rotation_bracket(monkeypatch):
    """[J1, J2] = 2 ihbar J3, antisymmetric but inconsistent with the other
    rotation brackets, so J1, J2, K1 break the Jacobi identity."""
    monkeypatch.setitem(galilei._TABLE, ("J1", "J2"), {"J3": 2})
    monkeypatch.setitem(galilei._TABLE, ("J2", "J1"), {"J3": -2})


def _scaled_image(rep, label, factor=1.001):
    return replace(rep, images={**rep.images, label: factor * rep.images[label]})


def scaled_spin_j3(monkeypatch):
    """Every spin representation's J3 is 0.1% too large."""
    monkeypatch.setattr(
        galilei, "build_spin_rep", lambda *a, **k: _scaled_image(SPIN_REP(*a, **k), "J3")
    )


def scaled_grid_momentum(monkeypatch):
    """Every grid representation's momentum is 0.1% too large."""
    monkeypatch.setattr(
        galilei, "build_grid_rep", lambda *a, **k: _scaled_image(GRID_REP(*a, **k), "P1")
    )


def scaled_pair_momentum(monkeypatch):
    """The additive pair reads part b's momentum 0.1% too large; the grid
    representations themselves stay correct."""

    def verify(part_a, part_b, *args, **kwargs):
        return ADDITIVE_GRID_PAIR(part_a, _scaled_image(part_b, "P1"), *args, **kwargs)

    monkeypatch.setattr(galilei, "verify_additive_grid_pair", verify)


def _composite_with(monkeypatch, label):
    monkeypatch.setattr(
        galilei, "build_additive_rep", lambda *a, **k: _scaled_image(ADDITIVE_REP(*a, **k), label)
    )


def composite_mass_off(monkeypatch):
    """The composite's mass image is 0.1% off the sum of the part masses."""
    _composite_with(monkeypatch, "M")


def composite_j3_off(monkeypatch):
    """The composite's J3 image is 0.1% off the sum of the parts' J3."""
    _composite_with(monkeypatch, "J3")


def antisymmetric_count_off_by_one(monkeypatch):
    """The enumeration oracle counts one antisymmetric basis vector too many."""
    monkeypatch.setattr(
        symmetry, "count_antisymmetric_basis", lambda n, d: ANTISYMMETRIC_COUNT(n, d) + 1
    )


def _projectors_with(monkeypatch, change):
    """build_projectors returns ``change(S, A)`` in place of (S, A)."""

    def build(n, d):
        pair = PROJECTORS(n, d)
        s, a = change(pair.symmetrizer.entries, pair.antisymmetrizer.entries)
        return symmetry.ProjectorPair(pair.space, Operator(pair.space, s), Operator(pair.space, a))

    monkeypatch.setattr(symmetry, "build_projectors", build)


def scaled_symmetrizer(monkeypatch):
    """The symmetrizer is 1% too large, so it is no longer idempotent."""
    _projectors_with(monkeypatch, lambda s, a: (1.01 * s, a))


def leaky_antisymmetrizer(monkeypatch):
    """The antisymmetrizer keeps 1% of the symmetric sector."""
    _projectors_with(monkeypatch, lambda s, a: (s, a + 0.01 * s))


def rank_counts_every_eigenvalue(monkeypatch):
    """The projector rank counts the zero eigenvalues too."""
    monkeypatch.setattr(symmetry, "projector_rank", lambda op: PROJECTOR_RANK(op, threshold=-0.5))


def inverse_image_permutation_operator(monkeypatch):
    """U(p) is built from the inverse image, which reverses products."""

    def operator(perm, space):
        return PERMUTATION_OPERATOR(symmetry.Permutation(tuple(np.argsort(perm.image).tolist())), space)

    monkeypatch.setattr(symmetry, "permutation_operator", operator)


def exclusion_with_symmetrizer(monkeypatch):
    """The exclusion check projects with the symmetrizer."""
    _projectors_with(monkeypatch, lambda s, a: (s, s))


def scaled_antisymmetrizer(monkeypatch):
    """The antisymmetrizer is 1% too large."""
    _projectors_with(monkeypatch, lambda s, a: (s, 1.01 * a))


def rotated_second_spin_frame(monkeypatch):
    """The second spin's frame is turned 90 degrees about z before the sum,
    so the summed J^2 is no longer symmetric in the two components."""

    def build(parts, *args, **kwargs):
        first, second = parts
        images = dict(second.images, J1=second.images["J2"], J2=-second.images["J1"])
        return ADDITIVE_REP([first, replace(second, images=images)], *args, **kwargs)

    monkeypatch.setattr(galilei, "build_additive_rep", build)


def permutation_rows_off_by_one(monkeypatch):
    """Every column of a permutation operator lands one row too far down."""

    def rows(perm, dims):
        out = PERMUTATION_ROWS(perm, dims)
        return (out + 1) % out.size

    monkeypatch.setattr(symmetry, "_permutation_rows", rows)


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
    ("axioms", "mereology-monoid-parthood", associate_drops_an_atom),
    ("axioms", "algebra-antisymmetry", one_sided_table_entry),
    ("axioms", "algebra-jacobi", doubled_rotation_bracket),
    *[
        ("axioms", f"spin-{kind}-j{j:g}", scaled_spin_j3)
        for j in suites._AXIOMS_DEFAULTS["spin_values"]
        for kind in ("brackets", "casimir")
    ],
    ("axioms", "grid-position-momentum", scaled_grid_momentum),
    ("axioms", "grid-brackets", scaled_grid_momentum),
    ("axioms", "additive-pair-relations", scaled_pair_momentum),
    ("axioms", "additive-spin-mass", composite_mass_off),
    ("axioms", "additive-spin-j3-spectrum", composite_j3_off),
    *[
        ("symmetry", f"projector-ranks-n{n}-d{d}", antisymmetric_count_off_by_one)
        for n, d in suites._SYMMETRY_DEFAULTS["cases"]
    ],
    ("symmetry", "projector-idempotency-orthogonality", scaled_symmetrizer),
    ("symmetry", "sector-orthogonality", leaky_antisymmetrizer),
    ("symmetry", "sector-sum-dimension", rank_counts_every_eigenvalue),
    ("symmetry", "permutation-homomorphism", inverse_image_permutation_operator),
    ("symmetry", "pauli-exclusion-duplicates", exclusion_with_symmetrizer),
    ("symmetry", "slater-survival", scaled_antisymmetrizer),
    ("symmetry", "exchange-invariant-total-observable", rotated_second_spin_frame),
    ("symmetry", "exchange-invariance-symmetric-state", permutation_rows_off_by_one),
    ("dynamics", "weak-coupling-linearity", nonlinear_sample),
    ("dynamics", "weak-coupling-zero", wrong_second_mass),
    ("dynamics", "exchange-symmetry", asymmetric_tensor_term),
    ("dynamics", "momentum-conservation", potential_of_first_position),
]


def verdicts(suite: str) -> dict:
    return {c.check_id: c.passed for c in suites.run_suite(suite, CONFIGS.get(suite)).checks}


@pytest.mark.parametrize("suite", sorted({suite for suite, _, _ in ROWS}))
def test_controls_start_from_passing_checks(suite):
    checks = verdicts(suite)
    assert all(checks[check_id] for s, check_id, _ in ROWS if s == suite)


@pytest.mark.parametrize("suite, check_id, inject", ROWS, ids=[row[1] for row in ROWS])
def test_injected_defect_fails_its_check(suite, check_id, inject, monkeypatch):
    inject(monkeypatch)
    assert verdicts(suite)[check_id] is False
