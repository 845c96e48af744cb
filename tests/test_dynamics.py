import numpy as np
import pytest

from qsystems import dynamics, galilei, grids
from qsystems.dynamics import (
    BodyConfig,
    PotentialSpec,
    RadialTable,
    build_hamiltonian,
    build_product_hamiltonian,
    evolve,
    exchange_symmetry_residual,
    momentum_conservation_residual,
    spin_pair_operators,
    weak_coupling_check,
    _product_parts,
)
from qsystems.grids import GridSpec
from qsystems.hilbert import SpaceSpec, StateVector, eigh_phase_fixed
from qsystems.symmetry import Permutation, permutation_operator

GRID = GridSpec(64, 16.0)
SPIN_PAIR = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=None)


def gaussian_well(depth=2.0, width=1.5, v2=0.8, v3=0.5):
    r = np.linspace(0.0, 8.0, 513)
    shape = np.exp(-(r ** 2) / (2.0 * width ** 2))
    return PotentialSpec(
        v=RadialTable(r, -depth * shape),
        v2=RadialTable(r, v2 * shape),
        v3=RadialTable(r, v3 * shape),
    )


class TestTables:
    def test_radial_table_interpolates_and_clamps(self):
        table = RadialTable(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert table(0.5) == pytest.approx(1.0)
        assert table(5.0) == pytest.approx(0.0)  # clamped to last sample

    def test_radial_table_rejects_complex_and_unsorted(self):
        with pytest.raises(ValueError):
            RadialTable(np.array([0.0, 1.0]), np.array([1.0 + 1j, 0.0]))
        with pytest.raises(ValueError):
            RadialTable(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_potential_from_config(self):
        pot = PotentialSpec.from_config(
            {"v2": 1.5, "v": {"r": [0.0, 1.0], "values": [3.0, 0.0]}}
        )
        assert pot.v(0.0) == pytest.approx(3.0)
        assert pot.v2(10.0) == pytest.approx(1.5)
        assert pot.v1 is None and pot.v3 is None


class TestBodyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BodyConfig(n_bodies=3, masses=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BodyConfig(n_bodies=2, masses=(1.0,))
        with pytest.raises(ValueError):
            BodyConfig(n_bodies=2, masses=(1.0, -1.0))
        with pytest.raises(ValueError):
            BodyConfig(n_bodies=1, masses=(1.0,), grid=None)


class TestBuild:
    def test_free_single_body(self):
        cfg = BodyConfig(n_bodies=1, masses=(2.0,), grid=GRID)
        h = build_hamiltonian(cfg, PotentialSpec.zero())
        assert h.is_hermitian(1e-12)
        eigs = np.linalg.eigvalsh(h.entries)
        assert abs(eigs.min()) <= 1e-12  # free ground state at zero

    def test_single_body_rejects_pair_potentials(self):
        cfg = BodyConfig(n_bodies=1, masses=(1.0,), grid=GRID)
        with pytest.raises(ValueError):
            build_hamiltonian(cfg, PotentialSpec.from_constants(v=1.0))

    def test_spin_potentials_need_spin(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=False, grid=GRID)
        with pytest.raises(ValueError):
            build_hamiltonian(cfg, PotentialSpec.from_constants(v2=1.0))

    def test_singlet_triplet_spectrum(self):
        # 4x4 exact diagonalization oracle for s1.s2
        dot, _ = spin_pair_operators()
        oracle = np.sort(np.linalg.eigvalsh(dot))
        h = build_hamiltonian(SPIN_PAIR, PotentialSpec.from_constants(v2=1.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h.entries)), oracle, atol=1e-14)
        assert np.allclose(oracle, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_singlet_triplet_scaling_with_coupling(self):
        c = 2.7
        h = build_hamiltonian(SPIN_PAIR, PotentialSpec.from_constants(v2=c))
        eigs = np.sort(np.linalg.eigvalsh(h.entries))
        assert np.allclose(eigs, c * np.array([-0.75, 0.25, 0.25, 0.25]), atol=1e-12)

    def test_tensor_term_spectrum(self):
        _, tensor = spin_pair_operators()
        oracle = np.sort(np.linalg.eigvalsh(tensor))
        h = build_hamiltonian(SPIN_PAIR, PotentialSpec.from_constants(v3=1.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h.entries)), oracle, atol=1e-14)
        assert np.allclose(oracle, [-1.0, 0.0, 0.5, 0.5], atol=1e-14)

    def test_gridless_requires_constant_tables(self):
        r = np.linspace(0.0, 2.0, 8)
        varying = PotentialSpec(v2=RadialTable(r, r))
        with pytest.raises(ValueError):
            build_hamiltonian(SPIN_PAIR, varying)

    def test_relative_hamiltonian_hermitian_scales(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 3.0), spin_half=True, grid=GRID)
        h = build_hamiltonian(cfg, gaussian_well())
        assert h.space.factor_dims == (64, 2, 2)
        assert h.is_hermitian(1e-12)

    def test_product_hamiltonian_hermitian(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.5), spin_half=False, grid=GridSpec(16, 16.0))
        h = build_product_hamiltonian(cfg, PotentialSpec(v=gaussian_well().v))
        assert h.space.factor_dims == (16, 16)
        assert h.is_hermitian(1e-12)


class TestEvolution:
    def test_stationary_state_phase_only(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=GridSpec(16, 16.0))
        h = build_hamiltonian(cfg, gaussian_well())
        _, vecs = eigh_phase_fixed(h.entries)
        psi0 = StateVector(h.space, vecs[:, 0])
        result = evolve(psi0, h, t_final=3.0, n_steps=50)
        overlaps = np.abs(result.states @ psi0.amplitudes.conj())
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-10

    def test_drifts_within_documented_bounds(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=GRID)
        h = build_hamiltonian(cfg, gaussian_well())
        rng = np.random.default_rng(10)
        psi0 = StateVector(
            h.space, rng.standard_normal(h.space.total_dim) + 1j * rng.standard_normal(h.space.total_dim)
        ).normalized()
        result = evolve(psi0, h, t_final=2.0, n_steps=100)
        assert result.norm_drift <= 1e-10
        assert result.energy_drift <= 1e-9
        assert len(result.times) == 101

    def test_rejects_non_hermitian_and_unnormalized(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=None)
        h = build_hamiltonian(cfg, PotentialSpec.from_constants(v2=1.0))
        bad = StateVector(h.space, [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            evolve(bad, h, 1.0, 10)
        from qsystems.hilbert import Operator

        lop = Operator(h.space, np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError):
            evolve(bad.normalized(), lop, 1.0, 10)


class TestWeakCoupling:
    def test_zero_coupling_exact_and_linear(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.3), spin_half=True, grid=GridSpec(16, 16.0))
        check = weak_coupling_check(cfg, gaussian_well(), [0.1, 0.2, 0.5, 1.0])
        assert check["zero_coupling_residual"] <= 1e-12
        assert check["linearity_spread"] <= 1e-6
        assert check["pass"]

    @pytest.mark.parametrize("spin_half", [True, False])
    def test_perturbed_free_part_fails_zero_coupling(self, spin_half, monkeypatch):
        free_part = dynamics._free_product_part

        def perturbed(cfg, hbar):
            out = free_part(cfg, hbar)
            out[5, 3] += 1e-8
            return out

        monkeypatch.setattr(dynamics, "_free_product_part", perturbed)
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.3), spin_half=spin_half, grid=GridSpec(16, 16.0))
        pot = gaussian_well() if spin_half else PotentialSpec(v=gaussian_well().v)
        check = weak_coupling_check(cfg, pot, [0.5, 1.0])
        assert check["zero_coupling_residual"] > 1e-12
        assert not check["pass"]

    def test_halving_coupling_halves_deviation(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=False, grid=GridSpec(16, 16.0))
        pot = PotentialSpec(v=gaussian_well().v)
        check = weak_coupling_check(cfg, pot, [0.5, 1.0])
        half, full = check["deviation_norms"]
        assert half == pytest.approx(0.5 * full, rel=1e-9)

    def test_ratio_ten_between_couplings(self):
        cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=False, grid=GridSpec(16, 16.0))
        pot = PotentialSpec(v=gaussian_well().v)
        check = weak_coupling_check(cfg, pot, [0.1, 1.0])
        small, big = check["deviation_norms"]
        assert big / small == pytest.approx(10.0, rel=1e-6)


def test_exchange_symmetry_for_identical_bodies():
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=GridSpec(16, 16.0))
    assert exchange_symmetry_residual(cfg, gaussian_well()) <= 1e-10


def test_exchange_symmetry_requires_equal_masses():
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 2.0), spin_half=True, grid=GridSpec(16, 16.0))
    with pytest.raises(ValueError):
        exchange_symmetry_residual(cfg, gaussian_well())


def test_momentum_conservation_on_masked_states():
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.5), spin_half=False, grid=GRID)
    residual = momentum_conservation_residual(cfg, PotentialSpec(v=gaussian_well().v), seed=2)
    assert residual <= 1e-6


def test_momentum_conservation_matches_explicit_product_oracle():
    grid = GridSpec(32, 16.0)
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.5), spin_half=False, grid=grid)
    pot = PotentialSpec(v=gaussian_well().v)
    t1 = grids.kinetic_operator(grid, 1.0)
    t2 = grids.kinetic_operator(grid, 1.5)
    p = grids.momentum_operator(grid)
    x = grids.position_values(grid)
    v = pot.sample(pot.v, grids.periodic_distance(x[:, None] - x[None, :], grid.length))

    def apply_h(psi):
        return t1 @ psi + psi @ t2.T + v * psi

    def apply_p(psi):
        return p @ psi + psi @ p.T

    mask = galilei.build_grid_rep(32, 16.0, 1.0).mask
    rng = np.random.default_rng(5)
    sa, sb = mask.random_states(4, rng), mask.random_states(4, rng)
    expected = 0.0
    for col in range(4):
        psi = np.outer(sa[:, col], sb[:, col])
        hp, ph = apply_h(apply_p(psi)), apply_p(apply_h(psi))
        scale = max(np.linalg.norm(hp), np.linalg.norm(ph))
        expected = max(expected, float(np.linalg.norm(hp - ph) / scale))
    assert expected > 0.0
    assert momentum_conservation_residual(cfg, pot, n_states=4, seed=5) == expected


def kron_product_parts(cfg, pot, hbar=1.0):
    """Oracle: the product-space parts built from dense Kronecker products."""
    n = cfg.grid.n_sites
    eye_n = np.eye(n, dtype=np.complex128)
    t1 = grids.kinetic_operator(cfg.grid, cfg.masses[0], hbar)
    t2 = grids.kinetic_operator(cfg.grid, cfg.masses[1], hbar)
    kinetic = np.kron(t1, eye_n) + np.kron(eye_n, t2)
    x = grids.position_values(cfg.grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], cfg.grid.length).reshape(-1)
    interaction = np.diag(pot.sample(pot.v, dist)).astype(np.complex128)
    if cfg.spin_half:
        dot, tensor = spin_pair_operators(hbar)
        eye_spin = np.eye(4, dtype=np.complex128)
        kinetic = np.kron(kinetic, eye_spin)
        interaction = np.kron(interaction, eye_spin) + (
            np.kron(np.diag(pot.sample(pot.v1, dist)), eye_spin)
            + np.kron(np.diag(pot.sample(pot.v2, dist)), dot)
            + np.kron(np.diag(pot.sample(pot.v3, dist)), tensor)
        )
    return kinetic, interaction


@pytest.mark.parametrize("spin_half", [False, True])
def test_product_parts_match_kron_oracle(spin_half):
    pot = gaussian_well()
    if spin_half:
        r = pot.v.r
        pot = PotentialSpec(v=pot.v, v1=RadialTable(r, 0.3 * np.exp(-r)), v2=pot.v2, v3=pot.v3)
    else:
        pot = PotentialSpec(v=pot.v)
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.3), spin_half=spin_half, grid=GridSpec(8, 16.0))
    kinetic, interaction = _product_parts(cfg, pot, 1.0)
    oracle_kinetic, oracle_interaction = kron_product_parts(cfg, pot)
    assert np.array_equal(kinetic, oracle_kinetic)
    assert np.array_equal(interaction, oracle_interaction)


@pytest.mark.parametrize("n_sites", [8, 12])
def test_exchange_residual_matches_dense_commutator(n_sites):
    cfg = BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=GridSpec(n_sites, 16.0))
    pot = gaussian_well()
    h = build_product_hamiltonian(cfg, pot)
    u = permutation_operator(Permutation((1, 0, 3, 2)), SpaceSpec((n_sites, n_sites, 2, 2))).entries
    oracle = float(np.linalg.norm(h.entries @ u - u @ h.entries) / np.linalg.norm(h.entries))
    assert exchange_symmetry_residual(cfg, pot) == oracle
