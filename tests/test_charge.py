import numpy as np
import pytest

from qsystems.charge import (
    ChargeModel,
    gauge_transform,
    relative_phase_spread,
    sector_decomposition,
    verify_central,
)
from qsystems.hilbert import Operator, SpaceSpec, basis_state, pauli_matrices

SX, SY, SZ = pauli_matrices()


def diag_model(charges, observables=(), vacuum=0):
    space = SpaceSpec.single(len(charges))
    return ChargeModel(
        q_operator=Operator(space, np.diag(np.asarray(charges, dtype=complex))),
        observables=tuple(Operator(space, m) for m in observables),
        vacuum_index=vacuum,
    )


class TestModelValidation:
    def test_rejects_identity_charge(self):
        with pytest.raises(ValueError):
            diag_model([1.0, 1.0])

    def test_rejects_non_integer_spectrum(self):
        with pytest.raises(ValueError):
            diag_model([0.0, 0.5])

    def test_rejects_non_hermitian(self):
        space = SpaceSpec.single(2)
        with pytest.raises(ValueError):
            ChargeModel(q_operator=Operator(space, np.triu(np.ones((2, 2)))), observables=(), vacuum_index=0)

    def test_charges_property(self):
        model = diag_model([0.0, 1.0, 1.0, 2.0])
        _, decomposition = sector_decomposition(model)
        assert decomposition["charges"] == [0, 1, 2]
        assert decomposition["dimensions"] == [1, 2, 1]


class TestCentrality:
    def test_diagonal_observables_commute(self):
        model = diag_model([0.0, 1.0], observables=[np.diag([3.0, -1.0])])
        residuals = verify_central(model)
        assert np.max(residuals) <= 1e-10
        assert np.max(residuals) <= 1e-14

    def test_sector_mixing_observable_fails(self):
        # explicit 2x2 commutator: [diag(0,1), sigma_x] has norm sqrt(2)
        model = diag_model([0.0, 1.0], observables=[SX])
        residuals = verify_central(model)
        assert not np.max(residuals) <= 1e-10
        assert residuals == pytest.approx([np.sqrt(2.0)], abs=1e-12)

    def test_identity_always_passes(self):
        model = diag_model([0.0, 1.0], observables=[np.eye(2)])
        assert np.max(verify_central(model)) <= 1e-10


class TestGauge:
    def test_theta_zero_is_identity(self):
        model = diag_model([0.0, 1.0, 2.0])
        u = gauge_transform(model, 0.0)
        assert np.allclose(u.entries, np.eye(3), atol=1e-14)

    def test_two_pi_returns_identity(self):
        # spectral exponentiation oracle: phases e^{2 pi i q} = 1 for integer q
        model = diag_model([-1.0, 0.0, 2.0, 5.0])
        u = gauge_transform(model, 2.0 * np.pi)
        assert np.max(np.abs(u.entries - np.eye(4))) <= 1e-10

    def test_gauge_is_unitary_and_fixes_central_observables(self):
        obs = np.diag([1.5, -0.5, 2.0])
        model = diag_model([0.0, 1.0, 1.0], observables=[obs])
        for theta in (0.3, 1.0, 2.2):
            u = gauge_transform(model, theta).entries
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10
            fixed = u.conj().T @ obs @ u
            assert np.max(np.abs(fixed - obs)) <= 1e-10

    def test_block_observable_in_degenerate_sector(self):
        # nondiagonal but sector-preserving observable still commutes
        mat = np.zeros((3, 3), dtype=complex)
        mat[1:, 1:] = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = diag_model([0.0, 1.0, 1.0], observables=[mat])
        assert np.max(verify_central(model)) <= 1e-10
        u = gauge_transform(model, 0.77)
        conj = u.entries.conj().T @ mat @ u.entries
        assert np.max(np.abs(conj - mat)) <= 1e-12


class TestSectors:
    def test_neutral_sector_unique(self):
        model = diag_model([0.0, 1.0, 1.0], vacuum=0)
        projectors, decomp = sector_decomposition(model)
        assert decomp["neutral_unique"]
        assert decomp["neutral_dimension"] == 1
        assert decomp["charges"] == [0, 1]
        assert decomp["dimensions"] == [1, 2]
        assert [round(np.trace(p).real) for p in projectors] == [1, 2]
        assert decomp["vacuum_invariant"] is True

    def test_degenerate_neutral_sector_flagged(self):
        model = diag_model([0.0, 0.0, 1.0])
        _, decomp = sector_decomposition(model)
        assert not decomp["neutral_unique"]
        assert decomp["neutral_dimension"] == 2

    def test_projectors_resolve_identity(self):
        model = diag_model([-1.0, 0.0, 1.0, 1.0])
        projectors, _ = sector_decomposition(model)
        total = sum(projectors)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_offdiagonal_blocks_vanish_for_central_observables(self):
        rng = np.random.default_rng(3)
        charges = [0.0, 1.0, 1.0, 2.0]
        blocks = np.zeros((4, 4), dtype=complex)
        blocks[0, 0] = 1.7
        sub = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blocks[1:3, 1:3] = 0.5 * (sub + sub.conj().T)
        blocks[3, 3] = -0.4
        model = diag_model(charges, observables=[blocks])
        _, decomp = sector_decomposition(model)
        assert decomp["offdiagonal_residual"] <= 1e-12

    def test_vacuum_not_invariant_when_charged(self):
        model = diag_model([0.0, 1.0], vacuum=1)
        _, decomp = sector_decomposition(model)
        assert decomp["vacuum_invariant"] is False


class TestSuperselection:
    def test_relative_phase_unobservable(self):
        rng = np.random.default_rng(5)
        charges = [0.0, 1.0, 2.0]
        mats = []
        for _ in range(3):
            d = rng.standard_normal(3)
            mats.append(np.diag(d.astype(complex)))
        model = diag_model(charges, observables=mats)
        spread = relative_phase_spread(
            model, basis_state(model.q_operator.space, 1), basis_state(model.q_operator.space, 2), n_phases=16
        )
        assert spread.shape == (3,)
        assert np.max(spread) <= 1e-10

    def test_phase_visible_for_non_central_observable(self):
        # negative control: sigma_x connects the two sectors
        model_space = SpaceSpec.single(2)
        model = ChargeModel(
            q_operator=Operator(model_space, np.diag([0.0 + 0j, 1.0])),
            observables=(Operator(model_space, SX),),
            vacuum_index=0,
        )
        spread = relative_phase_spread(
            model, basis_state(model_space, 0), basis_state(model_space, 1), n_phases=16
        )
        assert spread.tolist() == pytest.approx([2.0], abs=1e-10)
