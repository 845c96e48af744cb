from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qsystems.hilbert import (
    Operator,
    SpaceSpec,
    StateVector,
    basis_state,
    connected_sets,
    eigh_phase_fixed,
    lift,
    pauli_matrices,
)

SX, SY, SZ = pauli_matrices()
QUBIT = SpaceSpec.single(2)
TWO_QUBITS = SpaceSpec((2, 2))


def op(matrix, space=QUBIT):
    return Operator(space, matrix)


def rng_state(space, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return StateVector(space, raw).normalized()


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


def test_space_spec_validation():
    assert SpaceSpec((2, 3)).total_dim == 6
    with pytest.raises(ValueError):
        SpaceSpec((0, 2))
    with pytest.raises(ValueError):
        SpaceSpec(())


def test_state_norm_and_rays():
    psi = StateVector(QUBIT, [1.0, 1.0]).normalized()
    assert psi.is_normalized()


def test_states_are_immutable():
    psi = basis_state(QUBIT, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0


def test_tensor_basis_bookkeeping():
    # product basis index of e_i x e_j is i * d2 + j, the np.kron ordering
    e0, e1 = basis_state(QUBIT, 0), basis_state(QUBIT, 1)
    combined = basis_state(TWO_QUBITS, 1)
    assert combined.space.factor_dims == (2, 2)
    assert np.array_equal(combined.amplitudes, np.kron(e0.amplitudes, e1.amplitudes))
    assert np.argmax(np.abs(combined.amplitudes)) == 1


def test_tensor_identity_operators():
    for which in (0, 1):
        eye4 = lift(op(np.eye(2)), which, TWO_QUBITS)
        assert np.array_equal(eye4.entries, np.eye(4))
        assert eye4.space.factor_dims == (2, 2)


def test_tensor_mixed_kinds_rejected():
    # an operator's matrix is not a state's amplitudes, nor the other way round
    with pytest.raises(ValueError):
        StateVector(QUBIT, np.eye(2))
    with pytest.raises(ValueError):
        Operator(TWO_QUBITS, basis_state(TWO_QUBITS, 0).amplitudes)


def test_tensor_associativity_bookkeeping():
    rng = np.random.default_rng(3)
    space = SpaceSpec((2, 3, 2))
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 2)]
    lifted = [lift(Operator(SpaceSpec.single(m.shape[0]), m), k, space).entries for k, m in enumerate(mats)]
    product = lifted[0] @ lifted[1] @ lifted[2]
    left = np.kron(np.kron(mats[0], mats[1]), mats[2])
    right = np.kron(mats[0], np.kron(mats[1], mats[2]))
    assert space.total_dim == 12
    assert np.allclose(product, left, atol=1e-12)
    assert np.allclose(product, right, atol=1e-12)


def test_tensor_operator_action_against_dense_oracle():
    # direct 4x4 multiplication oracle
    state = basis_state(TWO_QUBITS, 1)  # e0 x e1
    sz_i = lift(op(SZ), 0, TWO_QUBITS)
    oracle = np.kron(SZ, np.eye(2)) @ state.amplitudes
    assert np.allclose(sz_i.entries @ state.amplitudes, oracle)
    assert np.allclose(oracle, state.amplitudes)  # eigenvalue +1


def test_tensor_product_structure_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        left = np.kron(a, b) @ np.kron(u, v)
        right = np.kron(a @ u, b @ v)
        assert np.allclose(left, right, atol=1e-12)


def test_lift_places_operator_on_requested_factor():
    lifted0 = lift(op(SX), 0, TWO_QUBITS)
    lifted1 = lift(op(SX), 1, TWO_QUBITS)
    assert np.allclose(lifted0.entries, np.kron(SX, np.eye(2)))
    assert np.allclose(lifted1.entries, np.kron(np.eye(2), SX))


def test_lift_bounds_and_dims():
    with pytest.raises(IndexError):
        lift(op(SX), 2, TWO_QUBITS)
    with pytest.raises(ValueError):
        lift(Operator(SpaceSpec.single(3), np.eye(3)), 0, TWO_QUBITS)


def test_lifted_operators_on_distinct_factors_commute():
    rng = np.random.default_rng(5)
    space = SpaceSpec((2, 3))
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        la = lift(Operator(SpaceSpec.single(2), a), 0, space).entries
        lb = lift(Operator(SpaceSpec.single(3), b), 1, space).entries
        assert np.max(np.abs(la @ lb - lb @ la)) < 1e-13


def test_conjugate_by_identity_and_spectrum_preservation():
    obs = Operator(QUBIT, random_hermitian(2, seed=8))
    theta = 0.37
    u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SY
    rotated = op(u.conj().T @ obs.entries @ u)
    # eigenvalue sort-and-compare oracle
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(rotated.entries)),
        np.sort(np.linalg.eigvalsh(obs.entries)),
        atol=1e-9,
    )
    assert np.max(np.abs(rotated.entries - rotated.entries.conj().T)) <= 1e-12


def test_born_probability_equal_superposition():
    # projector oracle: |<e0|psi>|^2 = |<e1|psi>|^2 = 1/2
    psi = StateVector(QUBIT, [1.0, 1.0]).normalized()
    vals, vecs = eigh_phase_fixed(SZ)
    probs = np.abs(vecs.conj().T @ psi.amplitudes) ** 2
    assert np.allclose(vals, [-1.0, 1.0])
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_born_probability_full_spectrum_random():
    # the eigenbasis is orthonormal and complete: probabilities sum to one
    psi = rng_state(SpaceSpec.single(5), 4)
    _, vecs = eigh_phase_fixed(random_hermitian(5, seed=3))
    probs = np.abs(vecs.conj().T @ psi.amplitudes) ** 2
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-12)


def test_gauge_like_conjugation_fixes_commuting_operator():
    from qsystems.charge import ChargeModel, gauge_transform

    q = op(np.diag([0.0, 1.0]))
    model = ChargeModel(q_operator=q, observables=(), vacuum_index=0)
    a = np.diag([2.0, -1.0])
    for theta in (0.3, 1.2, 4.0):
        u = gauge_transform(model, theta).entries
        assert np.allclose(u, np.diag(np.exp(1j * theta * np.array([0.0, 1.0]))), atol=1e-12)
        assert np.allclose(u.conj().T @ a @ u, a, atol=1e-12)


def test_eigh_phase_convention_deterministic():
    mat = random_hermitian(4, seed=30)
    vals1, vecs1 = eigh_phase_fixed(mat)
    vals2, vecs2 = eigh_phase_fixed(mat.copy())
    assert np.array_equal(vecs1, vecs2)
    assert np.all(np.diff(vals1) >= -1e-12)
    for col in range(4):
        pivot = vecs1[np.argmax(np.abs(vecs1[:, col]) > 1e-12), col]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12


def loop_phase_fixed(matrix, zero_tol=1e-12):
    """Oracle: the per-column phase fix of eigh_phase_fixed, one column at a time."""
    vals, vecs = np.linalg.eigh(matrix)
    vecs = np.array(vecs)
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        pivot = v[np.argmax(np.abs(v) > zero_tol)]
        if abs(pivot) > zero_tol:
            vecs[:, col] = v * (pivot.conjugate() / abs(pivot))
    return vals, vecs


def test_eigh_phase_fix_matches_column_loop_oracle():
    # LAPACK returns real first components; coupling the first basis vector
    # at 1e-13 puts them below zero_tol, so the pivots are complex.
    weak = random_hermitian(6, seed=31)
    weak[0, 1:] *= 1e-13
    weak[1:, 0] *= 1e-13
    weak[0, 0] = 10.0
    for mat in (weak, random_hermitian(6, seed=32), random_hermitian(6, seed=32).real):
        vals, vecs = eigh_phase_fixed(mat)
        oracle_vals, oracle_vecs = loop_phase_fixed(mat)
        assert np.array_equal(vals, oracle_vals)
        # np.abs of a complex array and of a complex scalar may round apart by an ulp.
        np.testing.assert_allclose(vecs, oracle_vecs, rtol=0.0, atol=4 * np.finfo(float).eps)


def test_eigh_of_real_symmetric_is_real_with_positive_pivots():
    mat = random_hermitian(6, seed=33).real
    vals, vecs = eigh_phase_fixed(mat)
    assert vecs.dtype == np.float64
    pivots = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(6)]
    assert np.all(pivots > 0)
    complex_vals, complex_vecs = eigh_phase_fixed(mat.astype(np.complex128))
    assert np.allclose(vals, complex_vals, atol=1e-12)
    assert np.allclose(vecs, complex_vecs, atol=1e-12)


def test_operator_keeps_real_entries_real():
    assert Operator(QUBIT, np.eye(2, dtype=int)).entries.dtype == np.float64
    assert Operator(QUBIT, np.eye(2)).entries.dtype == np.float64
    assert Operator(QUBIT, np.eye(2, dtype=np.complex64)).entries.dtype == np.complex128
    assert op(SZ).entries.dtype == np.complex128


def test_expectation_matches_manual():
    # <a x b| A x 1 |a x b> = <a|A|a> for a normalized b
    a, b = rng_state(QUBIT, 44), rng_state(QUBIT, 45)
    joint = StateVector(TWO_QUBITS, np.kron(a.amplitudes, b.amplitudes))
    lifted = lift(op(SZ), 0, TWO_QUBITS)
    manual = a.amplitudes.conj() @ SZ @ a.amplitudes
    assert np.vdot(joint.amplitudes, lifted.entries @ joint.amplitudes) == pytest.approx(complex(manual))


def bfs_sets(coupled):
    """Oracle: the connected sets of the pattern, linked either way, by
    breadth-first search from each unvisited index in ascending order."""
    linked = coupled | coupled.T
    seen, sets = set(), []
    for start in range(len(coupled)):
        if start in seen:
            continue
        seen.add(start)
        found, queue = [start], deque([start])
        while queue:
            for other in np.flatnonzero(linked[queue.popleft()]):
                if other not in seen:
                    seen.add(other)
                    found.append(other)
                    queue.append(other)
        sets.append(sorted(found))
    return sets


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24).flatmap(
    lambda m: arrays(bool, (m, m), elements=st.sampled_from([False] * 7 + [True]))
))
def test_connected_sets_match_breadth_first_search(pattern):
    assert [ix.tolist() for ix in connected_sets(pattern)] == bfs_sets(pattern)


def test_connected_sets_follow_a_long_one_way_chain():
    # A path 0 -> 5 -> 1 -> 4 -> 2 -> 3, each link given in one direction only,
    # needs several passes to spread the least index.
    order = [0, 5, 1, 4, 2, 3]
    coupled = np.zeros((6, 6), dtype=bool)
    coupled[order[:-1], order[1:]] = True
    assert [ix.tolist() for ix in connected_sets(coupled)] == [list(range(6))]
