import dataclasses
import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qsystems import galilei
from qsystems.galilei import (
    LABELS,
    build_additive_rep,
    build_grid_rep,
    build_spin_rep,
    casimir_squared,
    position_momentum_residuals,
    verify_additive_grid_pair,
    verify_rep,
    verify_structure,
)


def bracket(a, b):
    """[a, b] / (i hbar) as {generator: integer coefficient}, read from the
    structure constants."""
    row = galilei._STRUCTURE[LABELS.index(a), LABELS.index(b)]
    return {LABELS[c]: int(row[c]) for c in np.flatnonzero(row)}


def jacobi(a, b, c):
    """([a,[b,c]] + [b,[c,a]] + [c,[a,b]]) / (i hbar)^2, by nested brackets."""
    total = Counter()
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for d, outer in bracket(y, z).items():
            for e, inner in bracket(x, d).items():
                total[e] += outer * inner
    return {label: coeff for label, coeff in total.items() if coeff}


def largest_residual(detail):
    """The largest law residual of a bracket verification, NaN included."""
    return np.max([c["residual"] for c in detail["checks"]])


def ih(label, coeff=1):
    return {label: coeff}


class TestExactLayer:
    def test_label_set(self):
        assert len(LABELS) == 11
        assert set(LABELS) == {"H", "M"} | {f"{f}{i}" for f in "PKJ" for i in (1, 2, 3)}
        assert galilei._STRUCTURE.shape == (11, 11, 11)
        assert galilei._STRUCTURE.dtype == np.int64

    def test_rotation_brackets(self):
        assert bracket("J1", "J2") == ih("J3")
        assert bracket("J2", "J3") == ih("J1")
        assert bracket("J3", "J1") == ih("J2")
        assert bracket("J2", "J1") == ih("J3", -1)

    def test_boost_momentum_central_bracket(self):
        assert bracket("K1", "P1") == ih("M")
        assert bracket("K2", "P2") == ih("M")
        assert bracket("K1", "P2") == {}

    def test_boost_energy_bracket(self):
        assert bracket("K1", "H") == ih("P1")
        assert bracket("H", "K3") == ih("P3", -1)

    def test_rotations_act_on_vectors(self):
        assert bracket("J1", "K2") == ih("K3")
        assert bracket("J1", "P3") == ih("P2", -1)
        assert bracket("J3", "P1") == ih("P2")

    def test_central_and_abelian_brackets(self):
        for label in ("H", "P1", "K2", "J3"):
            assert bracket(label, "M") == {}
        assert bracket("H", "M") == {}
        assert bracket("P1", "P2") == {}
        assert bracket("K1", "K2") == {}
        assert bracket("J1", "H") == {}
        assert bracket("P2", "H") == {}
        m = LABELS.index("M")
        assert not galilei._STRUCTURE[m].any() and not galilei._STRUCTURE[:, m].any()  # M is central

    def test_jacobi_specific_triples(self):
        assert jacobi("J1", "J2", "J3") == {}
        assert jacobi("K1", "P2", "J3") == {}
        assert jacobi("K1", "H", "P1") == {}

    def test_structure_report_all_green(self):
        assert verify_structure() == ((), ())


class TestSpinReps:
    def test_invalid_spin_rejected(self):
        for bad in (0, -0.5, 0.3):
            with pytest.raises(ValueError):
                build_spin_rep(bad)

    def test_spin_half_matches_pauli(self):
        rep = build_spin_rep(0.5)
        from qsystems.hilbert import pauli_matrices

        sx, sy, sz = pauli_matrices()
        assert np.allclose(rep.image("J1"), 0.5 * sx, atol=1e-15)
        assert np.allclose(rep.image("J2"), 0.5 * sy, atol=1e-15)
        assert np.allclose(rep.image("J3"), 0.5 * sz, atol=1e-15)
        comm = rep.image("J1") @ rep.image("J2") - rep.image("J2") @ rep.image("J1")
        assert np.max(np.abs(comm - 1j * rep.image("J3"))) <= 1e-15

    def test_spin_one_j3_spectrum(self):
        rep = build_spin_rep(1.0)
        # explicit 3x3 eigensolve oracle
        eigs = np.sort(np.linalg.eigvalsh(rep.image("J3")))
        assert np.allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
    def test_casimir_scalar(self, j):
        rep = build_spin_rep(j)
        expected = j * (j + 1)
        dev = np.max(np.abs(casimir_squared(rep) - expected * np.eye(rep.space.total_dim)))
        assert dev <= 1e-12

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_bracket_residuals(self, j):
        verification = verify_rep(build_spin_rep(j))
        assert largest_residual(verification) <= 1e-12

    def test_casimir_commutes_with_rotations(self):
        rep = build_spin_rep(1.5)
        c = casimir_squared(rep)
        for label in ("J1", "J2", "J3"):
            mat = rep.image(label)
            assert np.max(np.abs(c @ mat - mat @ c)) <= 1e-12

    def test_validation_accepts_shipped_reps(self):
        build_spin_rep(1.0).validate()


class TestGridRep:
    def test_requires_enough_sites_and_positive_mass(self):
        with pytest.raises(ValueError):
            build_grid_rep(4, 16.0, 1.0)
        with pytest.raises(ValueError):
            build_grid_rep(64, 16.0, -1.0)

    def test_a_shared_mask_builds_the_same_rep(self):
        # The mask depends on the grid alone, so a second mass on the same
        # grid may take the first one's; every array is the same bit for bit.
        fresh = build_grid_rep(64, 16.0, 1.5)
        shared = build_grid_rep(64, 16.0, 1.5, mask=build_grid_rep(64, 16.0, 1.0).mask)
        assert (shared.name, shared.mass, list(shared.images)) == (fresh.name, fresh.mass, list(fresh.images))
        for label, image in fresh.images.items():
            np.testing.assert_array_equal(shared.images[label], image)
        np.testing.assert_array_equal(shared.mask.basis, fresh.mask.basis)
        assert shared.mask.description == fresh.mask.description

    def test_axioms_suite_computes_one_mask_for_both_grid_parts(self, monkeypatch):
        from qsystems import grids, suites

        grids_masked = []
        mask = grids.band_limited_mask

        def counted(grid):
            grids_masked.append(grid)
            return mask(grid)

        monkeypatch.setattr(grids, "band_limited_mask", counted)
        report = suites.run_suite("axioms", {"grid_sites": 64, "n_test_states": 2, "mereology_instances": 10})
        assert report.to_dict()["pass"] is True
        assert len(grids_masked) == 1

    def test_images_hermitian_and_mass_positive(self):
        rep = build_grid_rep(64, 16.0, 1.25)
        rep.validate()
        eigs = np.linalg.eigvalsh(rep.image("M"))
        assert np.all(eigs > 0)
        assert np.allclose(eigs, 1.25)

    def test_canonical_pair_on_gaussian(self):
        rep = build_grid_rep(128, 16.0, 1.0)
        x = np.diag(rep.image("K1")).real  # K = m X with m = 1
        sigma = 1.0
        psi = np.exp(-(x ** 2) / (2 * sigma ** 2)) * np.exp(1j * 1.5 * x)
        psi = psi / np.linalg.norm(psi)
        xp = rep.image("K1") @ (rep.image("P1") @ psi)
        px = rep.image("P1") @ (rep.image("K1") @ psi)
        assert np.linalg.norm((xp - px) - 1j * psi) <= 1e-6

    def test_masked_state_residuals(self):
        rep = build_grid_rep(128, 16.0, 1.0)
        residuals = position_momentum_residuals(rep, n_states=20, seed=7)
        assert residuals.shape == (20,)
        assert residuals.max() <= 1e-6

    def test_bracket_residuals_masked(self):
        verification = verify_rep(build_grid_rep(128, 16.0, 1.0))
        assert largest_residual(verification) <= 1e-6, verification

    def test_kinetic_ground_energy_near_zero(self):
        rep = build_grid_rep(64, 16.0, 1.0)
        eigs = np.linalg.eigvalsh(rep.image("H"))
        assert abs(eigs.min()) <= 1e-12

    def test_mask_requires_grid(self):
        with pytest.raises(ValueError):
            position_momentum_residuals(build_spin_rep(0.5))


class TestAdditive:
    def test_two_spin_half_parts(self):
        total = build_additive_rep([build_spin_rep(0.5), build_spin_rep(0.5, mass=1.5)])
        # 4x4 eigensolve oracle
        eigs = np.sort(np.linalg.eigvalsh(total.image("J3")))
        assert np.allclose(eigs, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(total.image("M"), 2.5 * np.eye(4), atol=1e-15)
        assert total.mass == 2.5
        assert largest_residual(verify_rep(total)) <= 1e-12

    def test_cross_part_commutation_exact(self):
        parts = [build_spin_rep(0.5), build_spin_rep(1.0)]
        total = build_additive_rep(parts)
        j1_first = np.kron(parts[0].image("J1"), np.eye(3))
        j2_second = np.kron(np.eye(2), parts[1].image("J2"))
        comm = j1_first @ j2_second - j2_second @ j1_first
        assert np.max(np.abs(comm)) == 0.0
        assert total.space.factor_dims == (2, 3)

    def test_dense_bound_enforced(self):
        big = build_grid_rep(128, 16.0, 1.0)
        with pytest.raises(ValueError):
            build_additive_rep([big, big])

    def test_small_grid_pair_dense_agrees_with_matrix_free(self):
        # A 32-site grid is too coarse for tight bracket tolerances, but the
        # dense composite and the leg-by-leg application must agree exactly.
        a = build_grid_rep(32, 16.0, 1.0)
        b = build_grid_rep(32, 16.0, 1.5)
        dense = build_additive_rep([a, b])
        assert dense.space.total_dim == 1024
        assert dense.mask is None  # masked pairs are verify_additive_grid_pair's
        assert tuple(dense.images) == ("H", "P1", "K1", "M")
        rng = np.random.default_rng(3)
        psi_a = a.mask.random_states(1, rng)[:, 0]
        psi_b = b.mask.random_states(1, rng)[:, 0]
        psi = np.outer(psi_a, psi_b)
        k_tot, p_tot = dense.image("K1"), dense.image("P1")
        dense_comm = (k_tot @ (p_tot @ psi.reshape(-1)) - p_tot @ (k_tot @ psi.reshape(-1)))

        def total(mat_a, mat_b, s):
            return mat_a @ s + s @ mat_b.T

        free_kp = total(a.image("K1"), b.image("K1"), total(a.image("P1"), b.image("P1"), psi))
        free_pk = total(a.image("P1"), b.image("P1"), total(a.image("K1"), b.image("K1"), psi))
        assert np.max(np.abs(dense_comm.reshape(32, 32) - (free_kp - free_pk))) <= 1e-12

    def test_t1_relations_at_acceptance_scale(self):
        a = build_grid_rep(128, 16.0, 1.0)
        b = build_grid_rep(128, 16.0, 1.5)
        result = verify_additive_grid_pair(a, b, n_states=20, seed=0)
        assert largest_residual(result) <= 1e-6, result
        laws = {c["law"] for c in result["checks"]}
        assert "[P_total, X_part] = -ihbar" in laws
        assert "[K_total, P_part] = ihbar*m_part" in laws
        assert "M_total = (m_a + m_b)*identity" in laws


def unmemoized_pair_residuals(part_a, part_b, n_states, seed):
    """Oracle: every leg applied as a dense matmul, each product recomputed."""
    m_a, m_b = part_a.mass, part_b.mass
    rng = np.random.default_rng(seed)
    states_a = part_a.mask.random_states(n_states, rng)
    states_b = part_b.mask.random_states(n_states, rng)
    ops = {
        tag: {
            "P": part.image("P1"),
            "K": part.image("K1"),
            "H": part.image("H"),
            "M": part.image("M"),
            "X": part.image("K1") / part.mass,
        }
        for tag, part in (("a", part_a), ("b", part_b))
    }

    def leg(tag, label, s):
        mat = ops[tag][label]
        return mat @ s if tag == "a" else s @ mat.T

    def total(label):
        return lambda s: leg("a", label, s) + leg("b", label, s)

    def part_op(tag, label):
        return lambda s: leg(tag, label, s)

    def comm(f, g, s):
        return f(g(s)) - g(f(s))

    def rel(delta, ref):
        return float(np.linalg.norm(delta)) / float(np.linalg.norm(ref))

    def bracket(law, commutator, expected):
        return law, rel(commutator - expected, expected)

    records = {}
    for col in range(n_states):
        psi = np.outer(states_a[:, col], states_b[:, col])
        p, k, h = total("P"), total("K"), total("H")
        found = [
            bracket("[K,P] = ihbar*M (totals)", comm(k, p, psi), 1j * (m_a + m_b) * psi),
            bracket("[K,H] = ihbar*P (totals)", comm(k, h, psi), 1j * p(psi)),
            ("[P,H] = 0 (totals)", rel(comm(p, h, psi), p(h(psi)))),
        ]
        for tag, m_r in (("a", m_a), ("b", m_b)):
            x_r, p_r = part_op(tag, "X"), part_op(tag, "P")
            found += [
                bracket("[P_total, X_part] = -ihbar", comm(p, x_r, psi), -1j * psi),
                ("[P_total, P_part] = 0", rel(comm(p, p_r, psi), p(p_r(psi)))),
                ("[K_total, X_part] = 0", rel(comm(k, x_r, psi), k(x_r(psi)))),
                bracket("[K_total, P_part] = ihbar*m_part", comm(k, p_r, psi), 1j * m_r * psi),
            ]
        found.append(bracket("M_total = (m_a + m_b)*identity", total("M")(psi), (m_a + m_b) * psi))
        k_a, p_b = part_op("a", "K"), part_op("b", "P")
        found.append(("cross-part generators commute", rel(comm(k_a, p_b, psi), k_a(p_b(psi)))))
        for law, value in found:
            records[law] = max(records.get(law, 0.0), value)
    return records


def test_additive_pair_matches_unmemoized_dense_oracle():
    # The factored evaluation sums in another order than the dense oracle, so
    # the two agree to a relative 1e-4 on the physical residuals and within
    # 1e-13 on the laws that hold to roundoff.  At n=32 the residuals (about
    # 5e-2) fail the check, so failing values are compared too.
    for n_sites in (32, 64):
        a = build_grid_rep(n_sites, 16.0, 1.0)
        b = build_grid_rep(n_sites, 16.0, 1.5)
        for seed in (0, 4, 7):
            result = verify_additive_grid_pair(a, b, n_states=6, seed=seed)
            residuals = {c["law"]: c["residual"] for c in result["checks"]}
            oracle = unmemoized_pair_residuals(a, b, 6, seed)
            assert list(residuals) == list(oracle)
            for law, value in residuals.items():
                assert abs(value - oracle[law]) <= 1e-4 * max(value, oracle[law]) + 1e-13, (
                    n_sites, seed, law)


def test_negative_control_corrupted_rotation():
    rep = build_spin_rep(0.5)
    corrupted = dataclasses.replace(rep, images={**rep.images, "J3": 2.0 * rep.image("J3")})
    verification = verify_rep(corrupted)
    assert not largest_residual(verification) <= 1e-12
    failing = {c["law"] for c in verification["checks"] if not c["residual"] <= 1e-12}
    assert any("[J1,J2]" in law for law in failing)


def test_rep_rejects_labels_outside_or_out_of_order():
    rep = build_spin_rep(0.5)
    for labels in (("J1", "J2", "J3", "Q"), ("J2", "J1", "J3", "M"), ("M", "J1", "J2", "J3")):
        images = dict(zip(labels, rep.images.values()))
        with pytest.raises(ValueError, match="order"):
            galilei.AlgebraRep(space=rep.space, images=images, mass=1.0)


def test_reps_hold_only_asserted_images():
    assert tuple(build_spin_rep(1.0).images) == ("J1", "J2", "J3", "M")
    assert tuple(build_grid_rep(32, 16.0, 1.0).images) == ("H", "P1", "K1", "M")
    total = build_additive_rep([build_spin_rep(0.5), build_grid_rep(32, 16.0, 1.0)])
    assert tuple(total.images) == ("M",)


def test_verification_report_serializable():
    doc = verify_rep(build_spin_rep(0.5))
    assert largest_residual(doc) <= 1e-12
    assert set(doc) == {"representation", "domain_mask", "checks"}
    assert doc["domain_mask"] == "full space"
    assert all(set(c) == {"law", "residual"} for c in doc["checks"])
    json.dumps(doc, allow_nan=False)


def test_additive_pair_memo_is_freed_on_return():
    # The per-state memo of operator products is large; a reference cycle
    # would keep it until the cyclic collector happened to run.
    a = build_grid_rep(32, 16.0, 1.0)
    b = build_grid_rep(32, 16.0, 1.5)
    gc.collect()
    gc.disable()
    try:
        verify_additive_grid_pair(a, b, n_states=2, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_additive_pair_stays_small_at_a_large_grid():
    # Dense (n, n) product states of 20 test states took 265 MiB at n=512;
    # factor stacks of width k take 20 * n * k entries each.
    a = build_grid_rep(512, 16.0, 1.0)
    b = build_grid_rep(512, 16.0, 1.5)
    tracemalloc.start()
    try:
        result = verify_additive_grid_pair(a, b, n_states=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert largest_residual(result) <= 1e-6
    assert peak < 64 * 2**20
