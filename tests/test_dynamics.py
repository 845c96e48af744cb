import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsystems import dynamics, galilei, grids, suites
from qsystems.dynamics import (
    PotentialSpec,
    build_hamiltonian,
    evolve,
    exchange_symmetry_residual,
    momentum_conservation_residual,
    spin_pair_operators,
    weak_coupling_check,
)
from qsystems.grids import GridSpec
from qsystems.hilbert import Operator, SpaceSpec, StateVector, eigh_phase_fixed, norm, pauli_matrices
from qsystems.symmetry import permutation_operator

GRID = GridSpec(64, 16.0)
SMALL = GridSpec(16, 16.0)


def gaussian_well(depth=2.0, width=1.5, v2=0.8, v3=0.5):
    return PotentialSpec(depth, width, v2, v3)


def central_well():
    """The default well without its spin channels."""
    return gaussian_well(v2=0.0, v3=0.0)


# No pair interaction at all.
FREE = PotentialSpec(0.0, 1.5, 0.0, 0.0)


def spin_hamiltonian(v2=0.0, v3=0.0):
    """The spin-spin interaction of constant couplings v2 and v3, from the
    operators that build the relative Hamiltonian's spin blocks."""
    dot, tensor = spin_pair_operators()
    return v2 * dot + v3 * tensor


class TestBuild:
    def test_free_pair_ground_energy_is_zero(self):
        h = build_hamiltonian(GRID, (2.0, 2.0), FREE)
        assert np.max(np.abs(h.entries - h.entries.conj().T)) <= 1e-12
        eigs = np.linalg.eigvalsh(h.entries)
        assert abs(eigs.min()) <= 1e-12  # free ground state at zero

    def test_spinless_pair_is_not_built(self):
        # A central potential alone still poses the spin-1/2 pair.
        h = build_hamiltonian(GRID, (1.0, 1.0), central_well())
        assert h.space.factor_dims == (64, 2, 2)

    def test_single_body_rejects_pair_potentials(self):
        with pytest.raises(ValueError):
            build_hamiltonian(GRID, (1.0,), central_well())

    def test_spin_potentials_need_spin(self):
        # The spinless momentum check reads the central potential only.
        pot = gaussian_well()
        residuals = [
            momentum_conservation_residual(GRID, (1.0, 1.5), p, seed=1).tolist()
            for p in (pot, replace(pot, v2=0.0, v3=0.0))
        ]
        assert residuals[0] == residuals[1]

    def test_singlet_triplet_spectrum(self):
        # 4x4 exact diagonalization oracle for s1.s2
        sx, sy, sz = (0.5 * m for m in pauli_matrices())
        oracle = np.sort(np.linalg.eigvalsh(np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)))
        h = spin_hamiltonian(v2=1.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), oracle, atol=1e-14)
        assert np.allclose(oracle, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_singlet_triplet_scaling_with_coupling(self):
        c = 2.7
        eigs = np.sort(np.linalg.eigvalsh(spin_hamiltonian(v2=c)))
        assert np.allclose(eigs, c * np.array([-0.75, 0.25, 0.25, 0.25]), atol=1e-12)

    def test_tensor_term_spectrum(self):
        sx, sy, sz = (0.5 * m for m in pauli_matrices())
        dot = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
        oracle = np.sort(np.linalg.eigvalsh(3.0 * np.kron(sz, sz) - dot))
        h = spin_hamiltonian(v3=1.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), oracle, atol=1e-14)
        assert np.allclose(oracle, [-1.0, 0.0, 0.5, 0.5], atol=1e-14)

    def test_relative_hamiltonian_hermitian_scales(self):
        h = build_hamiltonian(GRID, (1.0, 3.0), gaussian_well())
        assert h.space.factor_dims == (64, 2, 2)
        assert np.max(np.abs(h.entries - h.entries.conj().T)) <= 1e-12
        assert h.entries.dtype == np.float64
        assert np.array_equal(h.entries, h.entries.T)

    def test_product_hamiltonian_hermitian(self):
        eye = np.eye(16 * 16 * 4, dtype=np.complex128)
        (h,) = dynamics._apply_product_hamiltonian(SMALL, (1.0, 1.5), [gaussian_well()], eye)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def drift(values):
    """The largest distance of a sampled norm or energy from its first value."""
    return np.max(np.abs(values - values[0]))


class TestEvolution:
    def test_stationary_state_phase_only(self):
        h = build_hamiltonian(SMALL, (1.0, 1.0), gaussian_well())
        _, vecs = eigh_phase_fixed(h.entries)
        psi0 = StateVector(h.space, vecs[:, 0])
        _, states, _, _ = evolve(psi0, h, t_final=3.0, n_steps=50)
        overlaps = np.abs(states @ psi0.amplitudes.conj())
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-10

    def test_drifts_within_documented_bounds(self):
        h = build_hamiltonian(GRID, (1.0, 1.0), gaussian_well())
        rng = np.random.default_rng(10)
        psi0 = StateVector(
            h.space, rng.standard_normal(h.space.total_dim) + 1j * rng.standard_normal(h.space.total_dim)
        ).normalized()
        times, states, norms, energies = evolve(psi0, h, t_final=2.0, n_steps=100)
        assert drift(norms) <= 1e-10
        assert drift(energies) <= 1e-9
        assert len(times) == 101
        oracle = np.real(np.einsum("ti,ij,tj->t", states.conj(), h.entries, states))
        np.testing.assert_allclose(energies, oracle, rtol=1e-12, atol=0.0)

    def test_rejects_non_hermitian_and_unnormalized(self):
        h = Operator(SpaceSpec((2, 2)), spin_hamiltonian(v2=1.0))
        bad = StateVector(h.space, [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            evolve(bad, h, 1.0, 10)
        lop = Operator(h.space, np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError):
            evolve(bad.normalized(), lop, 1.0, 10)


def shipped_hamiltonian(n_sites):
    """The dynamics suite's relative Hamiltonian at its default well, on
    ``n_sites`` sites."""
    rel = suites._DYNAMICS_DEFAULTS["relative"]
    pot = PotentialSpec(rel["well_depth"], rel["well_width"], rel["v2_scale"], rel["v3_scale"])
    return build_hamiltonian(GridSpec(n_sites, rel["length"]), rel["masses"], pot)


def with_spin_coupling(h, a, b, value):
    """``h`` plus ``value`` between spin indices a and b at every site, mirrored."""
    n = h.space.factor_dims[0]
    entries = h.entries.copy().reshape(n, 4, n, 4)
    entries[np.arange(n), a, np.arange(n), b] += value
    entries[np.arange(n), b, np.arange(n), a] += value
    return Operator(h.space, entries.reshape(4 * n, 4 * n))


def random_coupled_hamiltonian(n_sites, seed):
    """A random real symmetric operator on (n_sites, 2, 2): every spin index
    couples to every other, so H is one block."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4 * n_sites, 4 * n_sites))
    return Operator(SpaceSpec((n_sites, 2, 2)), a + a.T)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    dim = space.total_dim
    return StateVector(space, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).normalized()


def dense_evolution(psi0, h, t_final, n_steps):
    """Oracle: propagation by one eigendecomposition of the whole H."""
    vals, vecs = np.linalg.eigh(h.entries)
    times = np.linspace(0.0, t_final, n_steps + 1)
    coeffs = vecs.conj().T @ psi0.amplitudes
    states = (np.exp(-1j * np.outer(times, vals)) * coeffs) @ vecs.T
    norms = np.linalg.norm(states, axis=1)
    energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), h.entries, states))
    return states, norms, energies


def eigh_block_sizes(monkeypatch, h):
    """Sizes of the matrices that evolve hands to the eigensolver, in order."""
    sizes = []
    eigh = dynamics.eigh_phase_fixed

    def recording(matrix):
        assert matrix.shape[0] == matrix.shape[1]
        sizes.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(dynamics, "eigh_phase_fixed", recording)
    evolve(random_state(h.space, 0), h, 1.0, 4)
    return sizes


HAMILTONIANS = {
    "shipped-16": lambda: shipped_hamiltonian(16),
    "shipped-64": lambda: shipped_hamiltonian(64),
    "random-one-block": lambda: random_coupled_hamiltonian(16, 3),
    # The tensor entry between up-up and down-down, mirrored, joins those two.
    "up-up-down-down": lambda: with_spin_coupling(shipped_hamiltonian(32), 0, 3, 0.25),
    # Up-up to up-down and down-up to down-down join all four spin indices
    # through the chain up-up, up-down, down-up, down-down.
    "spin-chain": lambda: with_spin_coupling(
        with_spin_coupling(shipped_hamiltonian(16), 0, 1, 0.25), 2, 3, 0.25
    ),
}


def unmirrored_tensor_entry():
    """The shipped H with 1e-11 from down-down to up-up and nothing back: not
    hermitian, though within evolution's guard relative to its largest entry."""
    h = shipped_hamiltonian(64)
    entries = h.entries.copy().reshape(64, 4, 64, 4)
    entries[np.arange(64), 0, np.arange(64), 3] += 1e-11
    return Operator(h.space, entries.reshape(256, 256))


def pass_per_index_blocks(h):
    """Oracle: the blocks as evolve first read them, spreading the least
    label over the spin-index pattern in as many passes as there are
    indices."""
    n = h.space.factor_dims[0]
    s = h.space.total_dim // n
    coupled = (h.entries != 0).reshape(n, s, n, s).any(axis=(0, 2))
    coupled |= coupled.T | np.eye(s, dtype=bool)
    labels = np.arange(s)
    for _ in range(s):
        labels = np.where(coupled, labels[None, :], s).min(axis=1)
    flat = np.arange(h.space.total_dim).reshape(n, s)
    return [flat[:, labels == label].reshape(-1) for label in np.unique(labels)]


def control_hamiltonian(monkeypatch, change, n_sites=32):
    """The shipped H, built from the spin pair ``change(dot, tensor)`` as a
    negative control builds it."""
    pair = dynamics.spin_pair_operators
    monkeypatch.setattr(dynamics, "spin_pair_operators", lambda: change(*pair()))
    return shipped_hamiltonian(n_sites)


def one_sided_tensor_entry(dot, tensor):
    tensor = tensor.copy()
    tensor[0, 3] += 1e-10
    return dot, tensor


CONTROL_SPIN_PAIRS = {
    "asymmetric-tensor-term": lambda dot, tensor: (
        dot, 3.0 * np.kron(0.5 * np.diag([1.0, -1.0]), 0.5 * np.eye(2)) - dot
    ),
    "unmirrored-tensor-entry": one_sided_tensor_entry,
    "scaled-spin-dot": lambda dot, tensor: (1.001 * dot, tensor),
}


@pytest.mark.parametrize("name", sorted(HAMILTONIANS) + ["unmirrored-1e-11", *sorted(CONTROL_SPIN_PAIRS)])
def test_decoupled_blocks_match_the_pass_per_index_oracle(name, monkeypatch):
    if name in CONTROL_SPIN_PAIRS:
        h = control_hamiltonian(monkeypatch, CONTROL_SPIN_PAIRS[name])
    else:
        h = unmirrored_tensor_entry() if name == "unmirrored-1e-11" else HAMILTONIANS[name]()
    blocks, oracle = dynamics._decoupled_blocks(h), pass_per_index_blocks(h)
    assert len(blocks) == len(oracle)
    assert all(np.array_equal(block, expected) for block, expected in zip(blocks, oracle))


def spoiled_shipped_hamiltonian(spoil):
    """The shipped H on 16 sites with one entry changed and not its mirror."""
    h = shipped_hamiltonian(16)
    entries = h.entries.copy().reshape(16, 4, 16, 4)
    if spoil == "in-block":  # up-down at site 0 to down-up at site 3
        entries[0, 1, 3, 2] += 1e-6
    elif spoil == "off-block":  # up-up to down-down, which no entry joins
        entries[0, 0, 0, 3] += 1e-6
    else:
        entries[2, 0, 5, 3] = np.nan
    return Operator(h.space, entries.reshape(64, 64))


@pytest.mark.parametrize("spoil", ["in-block", "off-block", "nan"])
def test_evolve_rejects_a_non_hermitian_entry_wherever_it_sits(spoil):
    h = spoiled_shipped_hamiltonian(spoil)
    with pytest.raises(ValueError, match="hermitian"):
        evolve(random_state(h.space, 3), h, 1.0, 4)


def block_evolution(psi0, h, t_final, n_steps):
    """Oracle: evolution as evolve did it before its mirror halves, one
    eigendecomposition of each decoupled block and complex products."""
    times = np.linspace(0.0, float(t_final), int(n_steps) + 1)
    states = np.zeros((times.size, h.space.total_dim), dtype=np.complex128)
    for ix in dynamics._decoupled_blocks(h):
        vals, vecs = eigh_phase_fixed(h.entries[np.ix_(ix, ix)])
        coeffs = vecs.conj().T @ psi0.amplitudes[ix]
        phases = np.exp(-1j * np.outer(times, vals))
        states[:, ix] = (vecs @ (phases * coeffs[None, :]).T).T
    norms = np.linalg.norm(states, axis=1)
    h_psi = states.real @ h.entries.T + 1j * (states.imag @ h.entries.T)
    energies = np.sum(states.real * h_psi.real + states.imag * h_psi.imag, axis=1)
    return states, norms, energies


def assert_matches_block_evolution(h, seed, t_final=2.0, n_steps=40):
    psi0 = random_state(h.space, seed)
    _, evolved, evolved_norms, evolved_energies = evolve(psi0, h, t_final, n_steps)
    states, norms, energies = block_evolution(psi0, h, t_final, n_steps)
    np.testing.assert_allclose(evolved, states, rtol=0.0, atol=1e-12)
    assert abs(drift(evolved_norms) - drift(norms)) <= 1e-15
    # Each energy sums terms as large as the largest entry of H (about 53 at
    # the shipped 64 sites), whose roundoff sets the drift: the two drifts
    # agree to a few ulps of that entry, not to 1e-15 absolute.
    scale = np.finfo(float).eps * np.abs(h.entries).max()
    assert abs(drift(evolved_energies) - drift(energies)) <= 16 * scale


def with_central_potential(h, values):
    """``h`` plus ``values[i]`` on the diagonal at site i, every spin index."""
    return Operator(h.space, h.entries + np.diag(np.repeat(values, h.space.total_dim // len(values))))


def with_off_mirror_entry(h):
    """``h`` plus a hermitian pair of entries between sites 1 and 3 of the
    up-down index, whose mirror images at sites n - 1 and n - 3 stay."""
    n = h.space.factor_dims[0]
    entries = h.entries.copy().reshape(n, 4, n, 4)
    entries[1, 1, 3, 1] += 0.25
    entries[3, 1, 1, 1] += 0.25
    return Operator(h.space, entries.reshape(4 * n, 4 * n))


MIRROR_BROKEN = {
    # Odd under x -> -x, so no block is unchanged by the reversal.
    "potential-of-x": lambda: with_central_potential(
        shipped_hamiltonian(16), 0.3 * grids.position_values(GridSpec(16, 16.0))
    ),
    # Only the mixed block holds the entry; up-up and down-down still split.
    "off-mirror-entry": lambda: with_off_mirror_entry(shipped_hamiltonian(16)),
}


@pytest.mark.parametrize("name", sorted(MIRROR_BROKEN))
def test_mirror_broken_hamiltonian_matches_block_evolution(name):
    assert_matches_block_evolution(MIRROR_BROKEN[name](), seed=4)


def test_block_with_a_nan_is_one_sector():
    # evolve's guard rejects such an H first (test_evolve_rejects_...), as
    # the block oracle's eigh would fail on it; the mirror test alone reads
    # a NaN as a changed entry.  Site 2, up-up, to site 5, down-down joins
    # those two indices in one block, which stays whole; the mixed block
    # still splits.
    h = spoiled_shipped_hamiltonian("nan")
    sizes = [
        [len(sector[0]) for sector in dynamics._mirror_halves(h.entries[np.ix_(ix, ix)], 16)[1]]
        for ix in dynamics._decoupled_blocks(h)
    ]
    assert sizes == [[32], [18, 14]]


@pytest.mark.parametrize("n_sites, expected", [(8, [0, 7, 6, 5, 4, 3, 2, 1]), (9, [8, 7, 6, 5, 4, 3, 2, 1, 0])])
def test_site_mirror_reflects_positions(n_sites, expected):
    mirror = dynamics._site_mirror(n_sites)
    assert mirror.tolist() == expected
    x = grids.position_values(GridSpec(n_sites, 16.0))
    # Site 0 of an even grid sits at -L/2, the same point as +L/2.
    assert np.array_equal(np.abs(x[mirror]), np.abs(x))


@settings(max_examples=50, deadline=None)
@given(
    n_sites=st.integers(8, 40),
    length=st.floats(4.0, 32.0),
    masses=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    well=st.tuples(st.floats(-4.0, 4.0), st.floats(0.3, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_mirror_halves_match_block_evolution(n_sites, length, masses, well, seed):
    depth, width, v2, v3 = well
    pot = PotentialSpec(depth, width, v2, v3)
    assert_matches_block_evolution(build_hamiltonian(GridSpec(n_sites, length), masses, pot), seed)


class TestSectorEvolution:
    @pytest.mark.parametrize("name", sorted(HAMILTONIANS))
    def test_matches_dense_propagation(self, name):
        h = HAMILTONIANS[name]()
        psi0 = random_state(h.space, 7)
        _, evolved, evolved_norms, evolved_energies = evolve(psi0, h, t_final=2.0, n_steps=40)
        states, norms, energies = dense_evolution(psi0, h, 2.0, 40)
        np.testing.assert_allclose(evolved, states, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(evolved_norms, norms, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(evolved_energies, energies, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [15, 16, 64])
    def test_shipped_hamiltonian_splits_by_total_spin(self, n_sites, monkeypatch):
        # Up-up and down-down are bit-equal blocks of n rows, which share one
        # decomposition; the mixed block has 2n.  Each splits into its
        # mirror-even half, one row per orbit {i, m(i)} and spin index, and
        # its odd half, one row per orbit of two sites.
        even, odd = n_sites // 2 + 1, (n_sites - 1) // 2
        assert eigh_block_sizes(monkeypatch, shipped_hamiltonian(n_sites)) == [even, odd, 2 * even, 2 * odd]

    @pytest.mark.parametrize(
        "make, sizes",
        [
            (HAMILTONIANS["random-one-block"], [64]),
            (HAMILTONIANS["up-up-down-down"], [34, 30, 34, 30]),
            (HAMILTONIANS["spin-chain"], [36, 28]),
            (unmirrored_tensor_entry, [66, 62, 66, 62]),
            (lambda: Operator(SpaceSpec((6,)), random_coupled_hamiltonian(2, 1).entries[:6, :6]), [6]),
            # A field on up-up alone: the up-up and down-down blocks differ,
            # so each takes its own decomposition.
            (lambda: with_spin_coupling(shipped_hamiltonian(16), 0, 0, 0.05), [9, 7, 18, 14, 9, 7]),
            (lambda: MIRROR_BROKEN["potential-of-x"](), [16, 32]),
            (lambda: MIRROR_BROKEN["off-mirror-entry"](), [9, 7, 32]),
        ],
        ids=["random-one-block", "up-up-down-down", "spin-chain", "unmirrored-tensor-entry", "single-factor",
             "unequal-spin-blocks", "potential-of-x", "off-mirror-entry"],
    )
    def test_blocks_follow_the_coupling_pattern(self, make, sizes, monkeypatch):
        assert eigh_block_sizes(monkeypatch, make()) == sizes

    def test_state_in_one_block_stays_there(self):
        h = shipped_hamiltonian(16)
        amps = random_state(h.space, 5).amplitudes.reshape(16, 4).copy()
        amps[:, [0, 3]] = 0.0  # only up-down and down-up: total S_z = 0
        psi0 = StateVector(h.space, amps).normalized()
        _, states, _, _ = evolve(psi0, h, t_final=3.0, n_steps=30)
        spins = states.reshape(-1, 16, 4)
        assert np.all(spins[:, :, [0, 3]] == 0.0)
        assert np.max(np.abs(np.linalg.norm(spins[:, :, [1, 2]], axis=(1, 2)) - 1.0)) <= 1e-12


class TestWeakCoupling:
    def test_zero_coupling_exact_and_linear(self):
        check = weak_coupling_check(SMALL, (1.0, 1.3), gaussian_well(), [0.1, 0.2, 0.5, 1.0])
        assert check["zero_coupling_residual"] <= 1e-12
        assert check["linearity_spread"] <= 1e-6

    @pytest.mark.parametrize("spin_terms", [True, False])
    def test_perturbed_free_part_fails_zero_coupling(self, spin_terms, monkeypatch):
        apply = dynamics._apply_product_hamiltonian

        def perturbed(grid, masses, pots, vectors):
            applied = apply(grid, masses, pots, vectors)
            for out in applied:
                out.reshape(-1, 4)[5] += 1e-8 * vectors.reshape(-1, 4)[3]  # H[5, 3] += 1e-8
            return applied

        monkeypatch.setattr(dynamics, "_apply_product_hamiltonian", perturbed)
        pot = gaussian_well() if spin_terms else central_well()
        check = weak_coupling_check(SMALL, (1.0, 1.3), pot, [0.5, 1.0])
        assert check["zero_coupling_residual"] > 1e-12
        assert not (check["zero_coupling_residual"] <= 1e-12 and check["linearity_spread"] <= 1e-6)

    def test_halving_coupling_halves_deviation(self):
        pot = central_well()
        check = weak_coupling_check(SMALL, (1.0, 1.0), pot, [0.5, 1.0])
        half, full = check["deviation_norms"]
        assert half == pytest.approx(0.5 * full, rel=1e-9)

    def test_ratio_ten_between_couplings(self):
        pot = central_well()
        check = weak_coupling_check(SMALL, (1.0, 1.0), pot, [0.1, 1.0])
        small, big = check["deviation_norms"]
        assert big / small == pytest.approx(10.0, rel=1e-6)


def test_exchange_symmetry_for_identical_bodies():
    assert exchange_symmetry_residual(SMALL, 1.0, gaussian_well()) <= 1e-10


def test_momentum_conservation_on_masked_states():
    pot = central_well()
    residuals = momentum_conservation_residual(GRID, (1.0, 1.5), pot, seed=2)
    assert residuals.shape == (10,)
    assert np.max(residuals) <= 1e-6


def test_momentum_conservation_matches_explicit_product_oracle():
    grid = GridSpec(32, 16.0)
    pot = central_well()
    t1 = grids.kinetic_operator(grid, 1.0)
    t2 = grids.kinetic_operator(grid, 1.5)
    p = grids.momentum_operator(grid)
    x = grids.position_values(grid)
    v = pot.channels(grids.periodic_distance(x[:, None] - x[None, :], grid.length))[0]

    def apply_h(psi):
        return t1 @ psi + psi @ t2.T + v * psi

    def apply_p(psi):
        return p @ psi + psi @ p.T

    mask = galilei.build_grid_rep(32, 16.0, 1.0).mask
    rng = np.random.default_rng(5)
    n_states = dynamics._MOMENTUM_STATES
    sa, sb = mask.random_states(n_states, rng), mask.random_states(n_states, rng)
    expected = []
    for col in range(n_states):
        psi = np.outer(sa[:, col], sb[:, col])
        hp, ph = apply_h(apply_p(psi)), apply_p(apply_h(psi))
        scale = max(np.linalg.norm(hp), np.linalg.norm(ph))
        expected.append(float(np.linalg.norm(hp - ph) / scale))
    assert min(expected) > 0.0
    # The FFT form and the dense products differ by roundoff only.
    np.testing.assert_allclose(
        momentum_conservation_residual(grid, (1.0, 1.5), pot, seed=5),
        expected, rtol=0.0, atol=1e-13,
    )


@dataclass(frozen=True)
class TabulatedWell(PotentialSpec):
    """Oracle: the well as it was once read, its channels sampled on 4097
    nodes from 0 to half the box and linearly interpolated between them."""

    length: float

    def channels(self, r):
        nodes = np.linspace(0.0, self.length / 2.0, 4097)
        shape = np.exp(-(nodes ** 2) / (2.0 * self.width ** 2))
        tables = (-self.depth * shape, self.v2 * shape, self.v3 * shape)
        return tuple(np.interp(np.asarray(r, dtype=np.float64), nodes, table) for table in tables)


@pytest.mark.parametrize("k", range(3, 14))
def test_channels_equal_the_table_on_power_of_two_grids(k):
    # On a box of 16 with 2^k sites every separation is a table node, where
    # the interpolant returns the node's value bit for bit.  Every pairwise
    # periodic distance of a uniform grid is some site's distance from site 0.
    grid = GridSpec(2 ** k, 16.0)
    x = grids.position_values(grid)
    well = gaussian_well(-1.3, 0.7, 0.4, -2.1)
    table = TabulatedWell(-1.3, 0.7, 0.4, -2.1, grid.length)
    for r in (np.abs(x), grids.periodic_distance(x - x[0], grid.length)):
        for closed, tabulated in zip(well.channels(r), table.channels(r)):
            assert np.array_equal(closed, tabulated)


@pytest.mark.parametrize("n_sites", [257, 300, 383])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_momentum_conservation_is_no_worse_than_through_the_table(n_sites, seed):
    # Off the nodes, the interpolant's kinks alias past the band: seed 0
    # reads about 3e-10 to 8e-10 through the table, 6e-12 to 6e-11 here.
    grid, masses = GridSpec(n_sites, 16.0), (1.0, 1.5)
    closed = momentum_conservation_residual(grid, masses, gaussian_well(), seed=seed)
    tabulated = momentum_conservation_residual(grid, masses, TabulatedWell(2.0, 1.5, 0.8, 0.5, 16.0), seed=seed)
    assert np.max(closed) <= np.max(tabulated)


def per_state_momentum_residuals(grid, masses, pot, seed):
    """Oracle: momentum_conservation_residual before its leg transforms,
    each product state a whole (n, n) array and every operator a 2-d FFT
    pair, four pairs per state."""
    x = grids.position_values(grid)
    v = pot.channels(grids.periodic_distance(x[:, None] - x[None, :], grid.length))[0]
    k = grids.momentum_values(grid)
    kinetic = k[:, None] ** 2 / (2.0 * masses[0]) + k[None, :] ** 2 / (2.0 * masses[1])
    total_momentum = k[:, None] + k[None, :]

    def spectral(symbol, psi):
        return np.fft.ifft2(symbol * np.fft.fft2(psi, norm="ortho"), norm="ortho")

    def apply_h(psi):
        return spectral(kinetic, psi) + v * psi

    def apply_p(psi):
        return spectral(total_momentum, psi)

    mask = grids.band_limited_mask(grid)
    rng = np.random.default_rng(seed)
    n_states = dynamics._MOMENTUM_STATES
    sa, sb = mask.random_states(n_states, rng), mask.random_states(n_states, rng)
    residuals = np.zeros(n_states)
    for col in range(n_states):
        psi = np.outer(sa[:, col], sb[:, col])
        hp, ph = apply_h(apply_p(psi)), apply_p(apply_h(psi))
        scale = np.maximum(np.linalg.norm(hp), np.linalg.norm(ph))
        if scale != 0.0:
            residuals[col] = np.linalg.norm(hp - ph) / scale
    return residuals


@pytest.mark.parametrize(
    "n_sites, masses, seed, central",
    [(51, (1.0, 1.5), 0, True), (64, (1.0, 1.5), 3, True), (64, (1.0, 1.0), 1, False), (97, (0.7, 2.0), 2, True)],
)
def test_momentum_legs_match_the_per_state_oracle(n_sites, masses, seed, central):
    pot = central_well() if central else FREE
    grid = GridSpec(n_sites, 16.0)
    actual = momentum_conservation_residual(grid, masses, pot, seed=seed)
    expected = per_state_momentum_residuals(grid, masses, pot, seed)
    assert np.max(expected) > 0.0
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-15)


def batched_momentum_residuals(grid, masses, pot, seed):
    """Oracle: momentum_conservation_residual with every state's products
    formed at once, as (10, n, n) stacks."""
    x = grids.position_values(grid)
    v = pot.channels(grids.periodic_distance(x[:, None] - x[None, :], grid.length))[0]
    k = grids.momentum_values(grid)
    t1, t2 = (k ** 2 / (2.0 * m) for m in masses)

    def spectral(symbol, legs):
        return np.fft.ifft(symbol * np.fft.fft(legs, norm="ortho"), norm="ortho")

    def products(*pairs):
        left, right = (np.stack(legs, axis=-1) for legs in zip(*pairs))
        return left @ right.transpose(0, 2, 1)

    mask = grids.band_limited_mask(grid)
    rng = np.random.default_rng(seed)
    a = mask.random_states(dynamics._MOMENTUM_STATES, rng).T
    b = mask.random_states(dynamics._MOMENTUM_STATES, rng).T
    pa, pb, t1a, t2b = spectral(k, a), spectral(k, b), spectral(t1, a), spectral(t2, b)
    hp = products((spectral(t1, pa), b), (t1a, pb), (pa, t2b), (a, spectral(t2, pb)))
    hp += v * products((pa, b), (a, pb))
    ph = products((spectral(k, t1a), b), (t1a, pb), (pa, t2b), (a, spectral(k, t2b)))
    ph += np.fft.ifft2((k[:, None] + k[None, :]) * np.fft.fft2(v * products((a, b)), norm="ortho"), norm="ortho")
    residuals = np.zeros(dynamics._MOMENTUM_STATES)
    for state in range(dynamics._MOMENTUM_STATES):
        scale = np.maximum(norm(hp[state]), norm(ph[state]))
        if scale != 0.0:
            residuals[state] = norm(hp[state] - ph[state]) / scale
    return residuals


@pytest.mark.parametrize(
    "n_sites, length, masses, seed, central",
    [(51, 16.0, (1.0, 1.5), 0, True), (64, 16.0, (1.0, 1.5), 3, True), (64, 16.0, (1.0, 1.0), 1, False),
     (97, 8.0, (0.7, 2.0), 2, True), (128, 16.0, (1.0, 1.5), 0, True)]
    + [(n_sites, 16.0, (1.0, 1.5), seed, True)
       for n_sites, seeds in ((51, (1, 2)), (64, (0, 1, 2)), (256, (0, 1, 2))) for seed in seeds],
)
def test_state_by_state_residuals_equal_the_batched_oracle_bit_for_bit(n_sites, length, masses, seed, central):
    grid, pot = GridSpec(n_sites, length), gaussian_well() if central else FREE
    actual = momentum_conservation_residual(grid, masses, pot, seed=seed)
    assert np.array_equal(actual, batched_momentum_residuals(grid, masses, pot, seed))


def test_momentum_conservation_holds_one_state_at_a_time():
    # At 256 sites one complex n x n array takes 1 MiB: the (10, n, n)
    # product stacks peaked at 51.4 MiB, one state's products at 6.6 MiB.
    grid = GridSpec(256, 16.0)
    tracemalloc.start()
    try:
        momentum_conservation_residual(grid, (1.0, 1.5), gaussian_well(), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def one_product_hamiltonian(grid, masses, pot, vectors):
    """Oracle: the product-space Hamiltonian of one potential applied to
    ``vectors``, kinetic terms and all, as each call once applied it."""
    n = grid.n_sites
    t1, t2 = (grids.kinetic_operator(grid, m) for m in masses)
    x = grids.position_values(grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], grid.length)
    psi = vectors.reshape(n, n, 4, vectors.shape[-1])
    out = (t1 @ psi.reshape(n, -1)).reshape(psi.shape)
    out += (t2 @ psi.reshape(n, n, -1)).reshape(psi.shape)
    central, v2, v3 = pot.channels(dist)
    out += central[:, :, None, None] * psi
    blocks = dynamics._spin_blocks(v2.reshape(-1), v3.reshape(-1), *spin_pair_operators())
    out += (blocks @ psi.reshape(n * n, 4, -1)).reshape(psi.shape)
    return out.reshape(vectors.shape)


@pytest.mark.parametrize("n_sites", [8, 16, 24])
def test_one_kinetic_pass_keeps_every_product_bit(n_sites):
    grid = GridSpec(n_sites, 16.0)
    lambdas = [0.0, 0.125, 0.25, 0.5, 1.0]
    pots = [gaussian_well(2.0 * lam, 1.5, 0.8 * lam, 0.5 * lam) for lam in lambdas]
    vectors = dynamics._seeded_vectors(grid, n_sites)
    applied = dynamics._apply_product_hamiltonian(grid, (1.0, 1.3), pots, vectors)
    assert len(applied) == len(pots)
    for pot, out in zip(pots, applied):
        assert np.array_equal(out, one_product_hamiltonian(grid, (1.0, 1.3), pot, vectors))


def kron_product_parts(grid, masses, pot):
    """Oracle: the product-space parts built from dense Kronecker products."""
    eye_n = np.eye(grid.n_sites, dtype=np.complex128)
    t1 = grids.kinetic_operator(grid, masses[0])
    t2 = grids.kinetic_operator(grid, masses[1])
    x = grids.position_values(grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], grid.length).reshape(-1)
    dot, tensor = dynamics.spin_pair_operators()
    eye_spin = np.eye(4, dtype=np.complex128)
    kinetic = np.kron(np.kron(t1, eye_n) + np.kron(eye_n, t2), eye_spin)
    central, v2, v3 = pot.channels(dist)
    interaction = np.kron(np.diag(central), eye_spin) + np.kron(np.diag(v2), dot) + np.kron(np.diag(v3), tensor)
    return kinetic, interaction


@pytest.mark.parametrize("spin_terms", [False, True])
def test_product_parts_match_kron_oracle(spin_terms):
    pot = gaussian_well() if spin_terms else central_well()
    for n_sites in (8, 12):
        grid = GridSpec(n_sites, 16.0)
        vectors = dynamics._seeded_vectors(grid, 4).reshape(-1, 4)
        expected = sum(kron_product_parts(grid, (1.0, 1.3), pot)) @ vectors
        (actual,) = dynamics._apply_product_hamiltonian(grid, (1.0, 1.3), [pot], vectors)
        assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)


def asymmetric_spin_pair_operators():
    """s1.s2 and a tensor term built from s1z alone, which the swap does not fix."""
    dot, _ = spin_pair_operators()
    sz = 0.5 * np.diag([1.0, -1.0])
    return dot, 3.0 * np.kron(sz, 0.5 * np.eye(2)) - dot


@pytest.mark.parametrize("n_sites", [8, 12])
def test_exchange_residual_matches_dense_commutator(n_sites, monkeypatch):
    grid = GridSpec(n_sites, 16.0)
    pot = gaussian_well()
    u = permutation_operator((1, 0, 3, 2), SpaceSpec((n_sites, n_sites, 2, 2))).entries
    vectors = dynamics._seeded_vectors(grid, 3).reshape(-1, 4)

    def dense_residual():
        h = sum(kron_product_parts(grid, (1.0, 1.0), pot))
        return float(np.linalg.norm((h @ u - u @ h) @ vectors) / np.linalg.norm(h @ vectors))

    # Both read rounding only, as fractions of ||Hv||.
    assert exchange_symmetry_residual(grid, 1.0, pot, seed=3) == pytest.approx(dense_residual(), abs=1e-12)
    monkeypatch.setattr(dynamics, "spin_pair_operators", asymmetric_spin_pair_operators)
    oracle = dense_residual()
    assert oracle > 1e-3
    assert exchange_symmetry_residual(grid, 1.0, pot, seed=3) == pytest.approx(oracle, rel=1e-12)


def test_product_space_checks_stay_small_at_many_body_size():
    # The many-body workload's product space: 4 * 24^2 = 2304 dimensions,
    # where one dense complex Hamiltonian alone takes 81 MiB.
    grid = GridSpec(24, 16.0)
    calls = [
        lambda: weak_coupling_check(grid, (1.0, 1.3), gaussian_well(), [0.125, 0.25, 0.5, 1.0]),
        lambda: exchange_symmetry_residual(grid, 1.0, gaussian_well()),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
