import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsystems.galilei import build_additive_rep, build_spin_rep, casimir_squared
from qsystems.hilbert import Operator, SpaceSpec, StateVector, basis_state, lift, pauli_matrices
from qsystems.symmetry import (
    Permutation,
    build_projectors,
    count_antisymmetric_basis,
    count_symmetric_basis,
    exchange_expectation_check,
    pauli_exclusion_check,
    permutation_operator,
    projector_rank,
)

TWO_QUBITS = SpaceSpec((2, 2))


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return StateVector(space, raw).normalized()


def enumerate_symmetric_rank(n, d):
    """Independent oracle: count orbits of index tuples under sorting."""
    return len({tuple(sorted(t)) for t in itertools.product(range(d), repeat=n)})


def enumerate_antisymmetric_rank(n, d):
    """Independent oracle: count strictly increasing index tuples."""
    return sum(1 for t in itertools.product(range(d), repeat=n) if all(a < b for a, b in zip(t, t[1:])))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_parity_matches_inversion_count(self):
        for image in itertools.permutations(range(4)):
            inversions = sum(
                1 for i, j in itertools.combinations(range(4), 2) if image[i] > image[j]
            )
            assert Permutation(image).parity == (-1) ** inversions

    def test_compose_and_inverse(self):
        p = Permutation((1, 2, 0))
        q = Permutation((0, 2, 1))
        composed = p.compose(q)
        for i in range(3):
            assert composed.image[i] == p.image[q.image[i]]
        inverse = Permutation(tuple(np.argsort(p.image).tolist()))
        assert p.compose(inverse) == inverse.compose(p) == Permutation((0, 1, 2))


class TestPermutationOperator:
    def test_identity_permutation(self):
        u = permutation_operator(Permutation((0, 1)), TWO_QUBITS)
        assert np.array_equal(u.entries, np.eye(4))

    def test_transposition_swaps_product_kets(self):
        u = permutation_operator(Permutation((1, 0)), TWO_QUBITS)
        e01 = basis_state(TWO_QUBITS, 1)  # e0 x e1
        e10 = basis_state(TWO_QUBITS, 2)
        assert np.allclose(u.entries @ e01.amplitudes, e10.amplitudes)

    def test_transpositions_are_involutions(self):
        space = SpaceSpec((3, 3, 3))
        for image in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            u = permutation_operator(Permutation(image), space).entries
            assert np.allclose(u @ u, np.eye(27))

    def test_unitarity(self):
        space = SpaceSpec((2, 2, 2))
        for image in itertools.permutations(range(3)):
            u = permutation_operator(Permutation(image), space).entries
            assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-14)

    def test_rejects_incompatible_dims(self):
        with pytest.raises(ValueError):
            permutation_operator(Permutation((1, 0)), SpaceSpec((2, 3)))

    @settings(max_examples=60)
    @given(st.permutations(range(4)), st.permutations(range(4)))
    def test_homomorphism(self, img_p, img_q):
        space = SpaceSpec((2, 2, 2, 2))
        p, q = Permutation(tuple(img_p)), Permutation(tuple(img_q))
        u_pq = permutation_operator(p.compose(q), space).entries
        u_p = permutation_operator(p, space).entries
        u_q = permutation_operator(q, space).entries
        assert np.max(np.abs(u_pq - u_p @ u_q)) <= 1e-12


def dense_permutation_matrix(perm, dims):
    """Oracle: relabel the axes of the identity, as the dense construction did."""
    d = math.prod(dims)
    tensor = np.eye(d, dtype=np.complex128).reshape(dims + (d,))
    return np.moveaxis(tensor, list(range(perm.size)), list(perm.image)).reshape(d, d)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_permutation_operator_matches_dense_oracle(dims):
    for image in itertools.permutations(range(len(dims))):
        perm = Permutation(image)
        u = permutation_operator(perm, SpaceSpec(dims)).entries
        assert np.array_equal(u, dense_permutation_matrix(perm, dims)), image


@pytest.mark.parametrize("n,d", [(3, 3), (4, 2), (5, 2)])
def test_projectors_match_dense_group_average(n, d):
    sym = np.zeros((d ** n, d ** n), dtype=np.complex128)
    asym = np.zeros_like(sym)
    for image in itertools.permutations(range(n)):
        perm = Permutation(image)
        u = dense_permutation_matrix(perm, (d,) * n)
        sym += u
        asym += perm.parity * u
    pair = build_projectors(n, d)
    assert np.array_equal(pair.symmetrizer.entries, sym / math.factorial(n))
    assert np.array_equal(pair.antisymmetrizer.entries, asym / math.factorial(n))


class TestProjectors:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_ranks_match_enumeration(self, n, d):
        pair = build_projectors(n, d)
        assert projector_rank(pair.symmetrizer) == enumerate_symmetric_rank(n, d)
        assert projector_rank(pair.antisymmetrizer) == enumerate_antisymmetric_rank(n, d)
        # package counting helpers agree with the in-test oracles
        assert count_symmetric_basis(n, d) == enumerate_symmetric_rank(n, d)
        assert count_antisymmetric_basis(n, d) == enumerate_antisymmetric_rank(n, d)

    def test_known_small_ranks(self):
        pair = build_projectors(2, 2)
        assert projector_rank(pair.symmetrizer) == 3
        assert projector_rank(pair.antisymmetrizer) == 1
        assert projector_rank(build_projectors(3, 2).antisymmetrizer) == 0

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_projector_algebra(self, n, d):
        pair = build_projectors(n, d)
        s, a = pair.symmetrizer.entries, pair.antisymmetrizer.entries
        assert np.max(np.abs(s @ s - s)) <= 1e-12
        assert np.max(np.abs(a @ a - a)) <= 1e-12
        assert np.max(np.abs(s @ a)) <= 1e-12
        assert np.max(np.abs(s - s.conj().T)) <= 1e-14
        assert np.max(np.abs(a - a.conj().T)) <= 1e-14

    def test_two_factor_completeness(self):
        for d in (2, 3, 4):
            pair = build_projectors(2, d)
            total = pair.symmetrizer.entries + pair.antisymmetrizer.entries
            assert np.max(np.abs(total - np.eye(d * d))) <= 1e-12

    def test_rank_sum_strict_for_three_or_more(self):
        for n, d in ((3, 2), (3, 3), (4, 2)):
            pair = build_projectors(n, d)
            total = projector_rank(pair.symmetrizer) + projector_rank(pair.antisymmetrizer)
            assert total < d ** n

    def test_sector_orthogonality_random(self):
        pair = build_projectors(3, 3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw_s = pair.symmetrizer.entries @ (rng.standard_normal(27) + 1j * rng.standard_normal(27))
            raw_a = pair.antisymmetrizer.entries @ (rng.standard_normal(27) + 1j * rng.standard_normal(27))
            psi_s = raw_s / np.linalg.norm(raw_s)
            psi_a = raw_a / np.linalg.norm(raw_a)
            assert abs(np.vdot(psi_s, psi_a)) <= 1e-12

    def test_physical_projector_is_sum(self):
        # S and A are orthogonal, so S + A projects onto the physical sectors
        pair = build_projectors(3, 2)
        combined = pair.symmetrizer.entries + pair.antisymmetrizer.entries
        assert np.max(np.abs(combined @ combined - combined)) <= 1e-12
        assert projector_rank(Operator(pair.space, combined)) == (
            count_symmetric_basis(3, 2) + count_antisymmetric_basis(3, 2)
        )


def fixed_by(projector, psi):
    """Whether the projector leaves the state unchanged: it lies in that sector."""
    return np.linalg.norm(projector.entries @ psi.amplitudes - psi.amplitudes) <= 1e-9


class TestClassify:
    def test_symmetric_and_antisymmetric_states(self):
        pair = build_projectors(2, 2)
        sym = StateVector(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        singlet = StateVector(TWO_QUBITS, np.array([0, 1, -1, 0]) / math.sqrt(2))
        assert fixed_by(pair.symmetrizer, sym) and not fixed_by(pair.antisymmetrizer, sym)
        assert fixed_by(pair.antisymmetrizer, singlet) and not fixed_by(pair.symmetrizer, singlet)

    def test_product_state_is_mixed(self):
        pair = build_projectors(2, 2)
        e01 = basis_state(TWO_QUBITS, 1)
        assert not fixed_by(pair.symmetrizer, e01)
        assert not fixed_by(pair.antisymmetrizer, e01)

    def test_transposition_eigenvalues(self):
        swap = permutation_operator(Permutation((1, 0)), TWO_QUBITS).entries
        sym = np.array([0, 1, 1, 0]) / math.sqrt(2)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(swap @ sym, sym)
        assert np.allclose(swap @ singlet, -singlet)
        # a product of distinct kets is no eigenvector of the exchange
        e01 = basis_state(TWO_QUBITS, 1).amplitudes
        assert abs(np.vdot(e01, swap @ e01)) <= 1e-12

    def test_requires_equal_factors(self):
        with pytest.raises(ValueError):
            permutation_operator(Permutation((1, 0)), SpaceSpec((2, 3)))

    def test_projected_states_classify_by_sector(self):
        pair = build_projectors(3, 2)
        rng = np.random.default_rng(4)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sym_raw = pair.symmetrizer.entries @ raw
        psi = StateVector(pair.space, sym_raw / np.linalg.norm(sym_raw))
        assert fixed_by(pair.symmetrizer, psi)
        assert not fixed_by(pair.antisymmetrizer, psi)


class TestExchangeExpectation:
    def test_total_observable_invariant_any_state(self):
        two_spins = build_additive_rep([build_spin_rep(0.5), build_spin_rep(0.5)])
        j_square = Operator(TWO_QUBITS, casimir_squared(two_spins))
        swap = Permutation((1, 0))
        for seed in range(6):
            psi = random_state(TWO_QUBITS, seed)
            assert exchange_expectation_check(j_square, psi, swap) <= 1e-10

    def test_one_sided_observable_on_symmetric_state(self):
        _, _, sz = pauli_matrices()
        obs = lift(Operator(SpaceSpec.single(2), sz), 0, TWO_QUBITS)
        sym = StateVector(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert exchange_expectation_check(obs, sym, Permutation((1, 0))) <= 1e-10

    def test_negative_control_one_sided_on_product_state(self):
        _, _, sz = pauli_matrices()
        obs = lift(Operator(SpaceSpec.single(2), sz), 0, TWO_QUBITS)
        e01 = basis_state(TWO_QUBITS, 1)
        swap = Permutation((1, 0))
        difference = exchange_expectation_check(obs, e01, swap)
        assert difference > 1e-10
        assert difference == pytest.approx(2.0, abs=1e-12)
        permuted = permutation_operator(swap, TWO_QUBITS).entries @ e01.amplitudes
        assert np.real(np.vdot(e01.amplitudes, obs.entries @ e01.amplitudes)) == pytest.approx(1.0)
        assert np.real(np.vdot(permuted, obs.entries @ permuted)) == pytest.approx(-1.0)


class TestExclusion:
    def test_duplicate_states_annihilated(self):
        phi = random_state(SpaceSpec.single(2), 3)
        assert pauli_exclusion_check([phi, phi]) <= 1e-12

    def test_duplicate_up_to_phase_detected(self):
        phi = random_state(SpaceSpec.single(3), 5)
        shifted = StateVector(phi.space, np.exp(1.3j) * phi.amplitudes)
        assert pauli_exclusion_check([phi, shifted]) <= 1e-12

    def test_slater_determinant_survives(self):
        qubit = SpaceSpec.single(2)
        norm = pauli_exclusion_check([basis_state(qubit, 0), basis_state(qubit, 1)])
        assert norm == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_triple_with_repeat_annihilated(self):
        qubit3 = SpaceSpec.single(3)
        phi = random_state(qubit3, 8)
        chi = random_state(qubit3, 9)
        assert pauli_exclusion_check([phi, phi, chi]) <= 1e-12

    def test_requires_shared_dimension(self):
        with pytest.raises(ValueError):
            pauli_exclusion_check(
                [random_state(SpaceSpec.single(2), 1), random_state(SpaceSpec.single(3), 2)]
            )
