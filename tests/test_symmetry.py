import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsystems import suites
from qsystems.galilei import build_additive_rep, build_spin_rep, casimir_squared
from qsystems.hilbert import Operator, SpaceSpec, StateVector, basis_state, lift, pauli_matrices
from qsystems.symmetry import (
    _permutation_rows,
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


def parity(image):
    """Oracle: the sign of a permutation by a walk over its cycles."""
    seen, sign = set(), 1
    for start in range(len(image)):
        if start in seen:
            continue
        length, node = 0, start
        while node not in seen:
            seen.add(node)
            node = image[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestPermutation:
    def test_rejects_non_bijection(self):
        for image in [(0, 0, 2), (0, 1, 3), (1, 2), (0, 1, 2, 3)]:
            with pytest.raises(ValueError):
                permutation_operator(image, SpaceSpec((2, 2, 2)))
        for images in [[(0, 1, 2), (0, 0, 2)], [(0, 1, 2), (2, 1, 3)]]:
            with pytest.raises(ValueError):
                _permutation_rows(np.array(images), (2, 2, 2))

    def test_parity_matches_inversion_count(self):
        # With d = n, column (0, 1, 2, 3) of A holds each permutation's sign
        # in its own row, at 1/n!.
        _, a = build_projectors(4, 4)
        column = 0 * 64 + 1 * 16 + 2 * 4 + 3
        for image in itertools.permutations(range(4)):
            inversions = sum(
                1 for i, j in itertools.combinations(range(4), 2) if image[i] > image[j]
            )
            row = _permutation_rows(image, (4,) * 4)[column]
            assert a[row, column] * 24 == (-1) ** inversions == parity(image)

    def test_compose_and_inverse(self):
        space = SpaceSpec((2, 3, 2, 3))
        p, q = np.array((2, 3, 0, 1)), np.array((0, 3, 2, 1))
        u_p = permutation_operator(p, space).entries
        u_q = permutation_operator(q, space).entries
        assert np.array_equal(permutation_operator(p[q], space).entries, u_p @ u_q)
        inverse = np.argsort(p)
        assert np.array_equal(p[inverse], np.arange(4))
        assert np.array_equal(permutation_operator(inverse, space).entries, u_p.T)


class TestPermutationOperator:
    def test_identity_permutation(self):
        u = permutation_operator((0, 1), TWO_QUBITS)
        assert np.array_equal(u.entries, np.eye(4))

    def test_transposition_swaps_product_kets(self):
        u = permutation_operator((1, 0), TWO_QUBITS)
        e01 = basis_state(TWO_QUBITS, 1)  # e0 x e1
        e10 = basis_state(TWO_QUBITS, 2)
        assert np.allclose(u.entries @ e01.amplitudes, e10.amplitudes)

    def test_transpositions_are_involutions(self):
        space = SpaceSpec((3, 3, 3))
        for image in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            u = permutation_operator(image, space).entries
            assert np.allclose(u @ u, np.eye(27))

    def test_unitarity(self):
        space = SpaceSpec((2, 2, 2))
        for image in itertools.permutations(range(3)):
            u = permutation_operator(image, space).entries
            assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-14)

    def test_rejects_incompatible_dims(self):
        with pytest.raises(ValueError):
            permutation_operator((1, 0), SpaceSpec((2, 3)))

    @settings(max_examples=60)
    @given(st.permutations(range(4)), st.permutations(range(4)))
    def test_homomorphism(self, img_p, img_q):
        space = SpaceSpec((2, 2, 2, 2))
        p, q = tuple(img_p), tuple(img_q)
        u_pq = permutation_operator(tuple(p[i] for i in q), space).entries
        u_p = permutation_operator(p, space).entries
        u_q = permutation_operator(q, space).entries
        assert np.max(np.abs(u_pq - u_p @ u_q)) <= 1e-12


def dense_permutation_matrix(image, dims):
    """Oracle: relabel the axes of the identity, as the dense construction did."""
    d = math.prod(dims)
    tensor = np.eye(d, dtype=np.complex128).reshape(dims + (d,))
    return np.moveaxis(tensor, list(range(len(image))), list(image)).reshape(d, d)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_permutation_operator_matches_dense_oracle(dims):
    for image in itertools.permutations(range(len(dims))):
        u = permutation_operator(image, SpaceSpec(dims)).entries
        assert np.array_equal(u, dense_permutation_matrix(image, dims)), image


# At (6, 2) a real division by n! would move S by 1 ulp from the complex
# group average, which divides by multiplying with 1/n!.
@pytest.mark.parametrize("n,d", [(3, 3), (4, 2), (5, 2), (6, 2), (4, 4), (5, 3)])
def test_projectors_match_dense_group_average(n, d):
    sym = np.zeros((d ** n, d ** n), dtype=np.complex128)
    asym = np.zeros_like(sym)
    for image in itertools.permutations(range(n)):
        u = dense_permutation_matrix(image, (d,) * n)
        sym += u
        asym += parity(image) * u
    s, a = build_projectors(n, d)
    assert s.dtype == a.dtype == np.float64
    assert np.array_equal(s, sym / math.factorial(n))
    assert np.array_equal(a, asym / math.factorial(n))


def index_map_projectors(n, d, block=2 ** 16):
    """Oracle: S and A as parity-weighted bincounts of the n! index maps,
    added in blocks of about ``block`` entries, each sign from the inversion
    count, then scaled by 1/n!."""
    dim = d ** n
    images = np.array(list(itertools.permutations(range(n))))
    i, j = np.triu_indices(n, 1)
    signs = np.where(np.count_nonzero(images[:, i] > images[:, j], axis=1) % 2, -1.0, 1.0)
    sym, asym = np.zeros(dim * dim), np.zeros(dim * dim)
    step = max(1, block // dim)
    for start in range(0, len(images), step):
        part = slice(start, start + step)
        # Flat position r*dim + c of the 1 in column c of each permutation operator.
        entries = (_permutation_rows(images[part], (d,) * n) * dim + np.arange(dim)).reshape(-1)
        sym += np.bincount(entries, minlength=dim * dim)
        asym += np.bincount(entries, np.repeat(signs[part], dim), minlength=dim * dim)
    scale = 1.0 / math.factorial(n)
    sym *= scale
    asym *= scale
    return sym.reshape(dim, dim), asym.reshape(dim, dim)


MANY_BODY_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3), (6, 2), (7, 2)]


@pytest.mark.parametrize("n,d", MANY_BODY_CASES)
def test_coset_build_matches_the_index_map_oracle(n, d):
    for coset, oracle in zip(build_projectors(n, d), index_map_projectors(n, d)):
        assert coset.dtype == np.float64
        assert np.array_equal(coset, oracle)


def traced_peak(build, n, d):
    tracemalloc.start()
    try:
        build(n, d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3), (7, 2)])
def test_coset_build_peaks_no_higher_than_the_index_map_oracle(n, d):
    # The layers hold counts in the smallest integer type that holds n!, so
    # the two float64 results are most of the peak.
    assert traced_peak(build_projectors, n, d) <= traced_peak(index_map_projectors, n, d)


def test_projector_build_holds_one_block_of_index_maps():
    # All 5040 maps of (7, 2) at once held two 5 MiB index and weight arrays,
    # and the build peaked at 10.6 MiB; by cosets it peaks at 0.4 MiB.
    assert traced_peak(build_projectors, 7, 2) < 3 * 2**20


def dense_measures(s, a):
    """Oracle: ranks and the four idempotency and orthogonality residuals on
    the whole d^n x d^n arrays."""
    return (projector_rank(s), projector_rank(a), np.max(np.abs(s @ s - s)),
            np.max(np.abs(a @ a - a)), np.max(np.abs(s @ a)), np.max(np.abs(a @ s)))


def sector_measures(s, a):
    """The same measures as the symmetry suite takes them, on the blocks."""
    s_blocks, a_blocks = suites._sector_blocks(s, a)
    return dense_measures(s_blocks, a_blocks)


@pytest.mark.parametrize("n,d", MANY_BODY_CASES)
def test_sector_measures_equal_the_dense_ones(n, d):
    s, a = build_projectors(n, d)
    sector, dense = sector_measures(s, a), dense_measures(s, a)
    assert sector[:2] == (count_symmetric_basis(n, d), count_antisymmetric_basis(n, d))
    assert [float(v).hex() for v in sector] == [float(v).hex() for v in dense]


def test_sector_blocks_are_the_exchange_orbits():
    # Two basis tuples share a block when one permutes the other: at (4, 4)
    # the 35 multisets of four digits, the largest the 24 orderings of four
    # distinct ones.  Each block's rows show as its nonzero diagonal of S.
    s_blocks, a_blocks = suites._sector_blocks(*build_projectors(4, 4))
    assert s_blocks.shape == a_blocks.shape == (35, 24, 24)
    sizes = np.count_nonzero(np.diagonal(s_blocks, axis1=1, axis2=2), axis=1)
    orbits = [len(set(itertools.permutations(t)))
              for t in itertools.combinations_with_replacement(range(4), 4)]
    assert sorted(sizes) == sorted(orbits)


@pytest.mark.parametrize("spoiled", [0, 1], ids=["S", "A"])
@pytest.mark.parametrize("spoil", [1e-6, math.nan], ids=["coupling", "nan"])
def test_an_entry_between_sectors_reaches_the_residual(spoil, spoiled):
    # (0, 0, 0) and (0, 0, 1) lie in different sectors of the (3, 2) case.
    projectors = [p.copy() for p in build_projectors(3, 2)]
    projectors[spoiled][0, 1] = spoil
    sector = sector_measures(*projectors)
    assert [float(v).hex() for v in sector] == [float(v).hex() for v in dense_measures(*projectors)]
    assert not all(v <= 1e-7 for v in sector[2:])  # above any tolerance, or NaN


class TestProjectors:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_ranks_match_enumeration(self, n, d):
        s, a = build_projectors(n, d)
        assert projector_rank(s) == enumerate_symmetric_rank(n, d)
        assert projector_rank(a) == enumerate_antisymmetric_rank(n, d)
        # package counting helpers agree with the in-test oracles
        assert count_symmetric_basis(n, d) == enumerate_symmetric_rank(n, d)
        assert count_antisymmetric_basis(n, d) == enumerate_antisymmetric_rank(n, d)

    def test_known_small_ranks(self):
        s, a = build_projectors(2, 2)
        assert projector_rank(s) == 3
        assert projector_rank(a) == 1
        assert projector_rank(build_projectors(3, 2)[1]) == 0

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_projector_algebra(self, n, d):
        s, a = build_projectors(n, d)
        assert np.max(np.abs(s @ s - s)) <= 1e-12
        assert np.max(np.abs(a @ a - a)) <= 1e-12
        assert np.max(np.abs(s @ a)) <= 1e-12
        assert np.array_equal(s, s.T)
        assert np.array_equal(a, a.T)

    def test_two_factor_completeness(self):
        for d in (2, 3, 4):
            s, a = build_projectors(2, d)
            assert np.max(np.abs(s + a - np.eye(d * d))) <= 1e-12

    def test_rank_sum_strict_for_three_or_more(self):
        for n, d in ((3, 2), (3, 3), (4, 2)):
            s, a = build_projectors(n, d)
            assert projector_rank(s) + projector_rank(a) < d ** n

    def test_sector_orthogonality_random(self):
        s, a = build_projectors(3, 3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw_s = s @ (rng.standard_normal(27) + 1j * rng.standard_normal(27))
            raw_a = a @ (rng.standard_normal(27) + 1j * rng.standard_normal(27))
            psi_s = raw_s / np.linalg.norm(raw_s)
            psi_a = raw_a / np.linalg.norm(raw_a)
            assert abs(np.vdot(psi_s, psi_a)) <= 1e-12

    def test_physical_projector_is_sum(self):
        # S and A are orthogonal, so S + A projects onto the physical sectors
        s, a = build_projectors(3, 2)
        combined = s + a
        assert np.max(np.abs(combined @ combined - combined)) <= 1e-12
        assert projector_rank(combined) == (
            count_symmetric_basis(3, 2) + count_antisymmetric_basis(3, 2)
        )


def fixed_by(projector, psi):
    """Whether the projector leaves the state unchanged: it lies in that sector."""
    return np.linalg.norm(projector @ psi.amplitudes - psi.amplitudes) <= 1e-9


class TestClassify:
    def test_symmetric_and_antisymmetric_states(self):
        s, a = build_projectors(2, 2)
        sym = StateVector(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        singlet = StateVector(TWO_QUBITS, np.array([0, 1, -1, 0]) / math.sqrt(2))
        assert fixed_by(s, sym) and not fixed_by(a, sym)
        assert fixed_by(a, singlet) and not fixed_by(s, singlet)

    def test_product_state_is_mixed(self):
        s, a = build_projectors(2, 2)
        e01 = basis_state(TWO_QUBITS, 1)
        assert not fixed_by(s, e01)
        assert not fixed_by(a, e01)

    def test_transposition_eigenvalues(self):
        swap = permutation_operator((1, 0), TWO_QUBITS).entries
        sym = np.array([0, 1, 1, 0]) / math.sqrt(2)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(swap @ sym, sym)
        assert np.allclose(swap @ singlet, -singlet)
        # a product of distinct kets is no eigenvector of the exchange
        e01 = basis_state(TWO_QUBITS, 1).amplitudes
        assert abs(np.vdot(e01, swap @ e01)) <= 1e-12

    def test_requires_equal_factors(self):
        with pytest.raises(ValueError):
            permutation_operator((1, 0), SpaceSpec((2, 3)))

    def test_projected_states_classify_by_sector(self):
        s, a = build_projectors(3, 2)
        rng = np.random.default_rng(4)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sym_raw = s @ raw
        psi = StateVector(SpaceSpec((2, 2, 2)), sym_raw / np.linalg.norm(sym_raw))
        assert fixed_by(s, psi)
        assert not fixed_by(a, psi)


class TestExchangeExpectation:
    def test_total_observable_invariant_any_state(self):
        two_spins = build_additive_rep([build_spin_rep(0.5), build_spin_rep(0.5)])
        j_square = Operator(TWO_QUBITS, casimir_squared(two_spins))
        swap = (1, 0)
        for seed in range(6):
            psi = random_state(TWO_QUBITS, seed)
            assert exchange_expectation_check(j_square, psi, swap) <= 1e-10

    def test_one_sided_observable_on_symmetric_state(self):
        _, _, sz = pauli_matrices()
        obs = lift(Operator(SpaceSpec.single(2), sz), 0, TWO_QUBITS)
        sym = StateVector(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert exchange_expectation_check(obs, sym, (1, 0)) <= 1e-10

    def test_negative_control_one_sided_on_product_state(self):
        _, _, sz = pauli_matrices()
        obs = lift(Operator(SpaceSpec.single(2), sz), 0, TWO_QUBITS)
        e01 = basis_state(TWO_QUBITS, 1)
        swap = (1, 0)
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
