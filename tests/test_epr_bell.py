import itertools
import math

import numpy as np
import pytest

from qsystems.epr_bell import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    CHSHSettings,
    EPRConfig,
    SHIPPED_LHV_MODELS,
    bell_report,
    build_epr_state,
    chsh_lhv,
    chsh_lhv_exact,
    chsh_quantum,
    commuting_pair_check,
    conditional_inference,
    correlation_lhv_exact,
    correlation_quantum,
    double_frequency_model,
    narrow_window_model,
    relative_position_values,
    sign_cosine_model,
    singlet_state,
)

OPTIMAL = CHSHSettings()


class TestEPRConfig:
    def test_width_below_resolution_rejected(self):
        with pytest.raises(ValueError):
            EPRConfig(n_sites=64, length=16.0, width=0.1)

    def test_width_against_box_and_separation_bounds(self):
        with pytest.raises(ValueError):
            EPRConfig(width=3.0)
        with pytest.raises(ValueError):
            EPRConfig(separation=9.0)

    def test_momentum_snapping(self):
        cfg = EPRConfig(total_momentum=2.3)
        unit = 4.0 * math.pi / 16.0
        assert cfg.snapped_momentum() == pytest.approx(unit * round(2.3 / unit))
        assert EPRConfig(total_momentum=0.0).snapped_momentum() == 0.0


class TestEPRState:
    def test_normalized(self):
        psi = build_epr_state(EPRConfig())
        assert abs(psi.norm() - 1.0) <= 1e-10

    def test_zero_separation_concentrates_on_diagonal(self):
        cfg = EPRConfig(separation=0.0, total_momentum=0.0)
        grid = build_epr_state(cfg).amplitudes.reshape(cfg.n_sites, cfg.n_sites)
        prob = np.abs(grid) ** 2
        diag_mass = np.trace(prob)
        assert diag_mass > 10 * prob.max()  # mass sits along x1 = x2
        d = relative_position_values(cfg)
        assert np.sum(prob[np.abs(d) > 8 * cfg.width]) <= 1e-12

    def test_mean_separation_and_momentum(self):
        p = 3 * 4.0 * math.pi / 16.0
        cfg = EPRConfig(separation=1.0, total_momentum=p)
        rep = commuting_pair_check(cfg)
        assert rep.mean_relative_position == pytest.approx(1.0, abs=1e-9)
        assert rep.mean_total_momentum == pytest.approx(p, abs=1e-9)

    def test_translation_invariance_at_zero_momentum(self):
        cfg = EPRConfig(total_momentum=0.0)
        grid = build_epr_state(cfg).amplitudes.reshape(cfg.n_sites, cfg.n_sites)
        shifted = np.roll(grid, 1, axis=(0, 1))
        overlap = abs(np.vdot(grid.reshape(-1), shifted.reshape(-1)))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestCommutingPair:
    def test_residuals_and_variances(self):
        cfg = EPRConfig()
        rep = commuting_pair_check(cfg)
        assert rep.commutator_state_residual <= 1e-10
        assert rep.shift_commutator_residual <= 1e-14
        assert rep.var_relative_position == pytest.approx(cfg.width ** 2, rel=0.01)
        assert rep.var_total_momentum <= 1e-20

    def test_relative_momentum_reciprocal_scaling(self):
        narrow = commuting_pair_check(EPRConfig(width=0.25))
        wide = commuting_pair_check(EPRConfig(width=0.5))
        assert narrow.var_relative_momentum == pytest.approx(1.0 / (4 * 0.25 ** 2), rel=0.01)
        assert wide.var_relative_momentum == pytest.approx(1.0 / (4 * 0.5 ** 2), rel=0.01)
        assert wide.var_relative_momentum < narrow.var_relative_momentum


def test_commuting_pair_simultaneously_sharp_dense():
    # Small grid so both observables fit as dense matrices: total momentum is
    # exactly sharp, relative position is sharp to the regularization width.
    from qsystems.hilbert import Operator, sharp_value
    from qsystems.grids import GridSpec, momentum_operator

    cfg = EPRConfig(n_sites=32, length=16.0, separation=1.0, width=1.0)
    psi = build_epr_state(cfg)
    d = relative_position_values(cfg)
    xrel = Operator(psi.space, np.diag(d.reshape(-1)))

    grid = GridSpec(32, 16.0)
    p1 = momentum_operator(grid)
    p_tot = np.kron(p1, np.eye(32)) + np.kron(np.eye(32), p1)
    p_op = Operator(psi.space, 0.5 * (p_tot + p_tot.conj().T))

    # The coarse 32-site grid leaves an aliased momentum tail at the 1e-7
    # level; the pair state is a momentum eigenvector at that resolution.
    assert sharp_value(psi, p_op, tol=1e-6) == pytest.approx(
        cfg.snapped_momentum(), abs=1e-9
    )
    sharp_x = sharp_value(psi, xrel, tol=cfg.width)
    assert sharp_x == pytest.approx(cfg.separation, abs=cfg.width)
    # at a tolerance far below the width the position is not sharp
    assert sharp_value(psi, xrel, tol=1e-10) is None


class TestConditionalInference:
    def test_documented_example(self):
        cfg = EPRConfig(separation=1.0)
        result = conditional_inference(cfg, measured_x1=0.3)
        assert abs(result.mode - (-0.7)) <= cfg.grid.spacing
        assert not result.negligible

    def test_zero_separation_mode_tracks_measurement(self):
        cfg = EPRConfig(separation=0.0)
        for x1 in (-1.2, 0.0, 2.4):
            result = conditional_inference(cfg, measured_x1=x1)
            assert abs(result.mode - x1) <= cfg.grid.spacing

    def test_conditional_width_matches_regularization(self):
        cfg = EPRConfig(width=0.3)
        result = conditional_inference(cfg, measured_x1=0.5)
        assert result.width == pytest.approx(0.3, rel=0.2)

    def test_distribution_normalized(self):
        result = conditional_inference(EPRConfig(), measured_x1=1.0)
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            conditional_inference(EPRConfig(), measured_x1=100.0)


class TestQuantumCHSH:
    def test_aligned_analyzers_anticorrelate(self):
        # 4x4 expectation oracle
        psi = singlet_state()
        from qsystems.epr_bell import analyzer_operator

        op = np.kron(analyzer_operator(0.0), analyzer_operator(0.0))
        oracle = np.real(np.vdot(psi, op @ psi))
        assert correlation_quantum(0.0, 0.0) == pytest.approx(oracle)
        assert oracle == pytest.approx(-1.0, abs=1e-12)

    def test_correlation_is_minus_cosine(self):
        for a in np.linspace(0, 2 * math.pi, 9):
            for b in np.linspace(0, 2 * math.pi, 9):
                assert correlation_quantum(a, b) == pytest.approx(
                    -math.cos(a - b), abs=1e-10
                )

    def test_optimal_settings_reach_tsirelson(self):
        s = chsh_quantum(OPTIMAL)
        assert abs(s) == pytest.approx(QUANTUM_BOUND, abs=1e-10)

    def test_grid_search_confirms_optimum(self):
        # coarse grid search over angle quadruples
        angles = np.linspace(0.0, math.pi, 9)
        best = max(
            abs(chsh_quantum(CHSHSettings(a, ap, b, bp)))
            for a, ap, b, bp in itertools.product(angles, repeat=4)
        )
        assert best <= QUANTUM_BOUND + 1e-10
        assert abs(chsh_quantum(OPTIMAL)) >= best - 1e-10

    def test_equal_angles_degenerate(self):
        s = chsh_quantum(CHSHSettings(0.7, 0.7, 0.7, 0.7))
        assert s == pytest.approx(2.0 * correlation_quantum(0.7, 0.7), abs=1e-12)
        assert abs(s) <= CLASSICAL_BOUND + 1e-12

    def test_rotation_invariance(self):
        base = chsh_quantum(OPTIMAL)
        for delta in (0.3, 1.1, 4.5):
            shifted = CHSHSettings(*(angle + delta for angle in OPTIMAL.as_tuple()))
            assert chsh_quantum(shifted) == pytest.approx(base, abs=1e-10)

    def test_settings_parse(self):
        parsed = CHSHSettings.from_string("0,1.5707963267948966,0.7853981633974483,2.356194490192345")
        assert abs(chsh_quantum(parsed)) == pytest.approx(QUANTUM_BOUND, abs=1e-10)
        with pytest.raises(ValueError):
            CHSHSettings.from_string("1,2,3")


class TestLHVModels:
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_responses_are_dichotomic(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        lam = np.linspace(0, 2 * math.pi, 1001)
        for setting in (0.0, 0.9, 2.0):
            assert set(np.unique(model.response_a(setting, lam))) <= {-1.0, 1.0}
            assert set(np.unique(model.response_b(setting, lam))) <= {-1.0, 1.0}

    def test_sign_cosine_exact_correlation(self):
        # closed form: E(a,b) = -(1 - 2|a-b|/pi) for |a-b| <= pi
        model = sign_cosine_model()
        for delta in (0.0, 0.4, math.pi / 4, math.pi / 2, 2.5):
            expected = -(1.0 - 2.0 * delta / math.pi)
            assert correlation_lhv_exact(model, 0.3, 0.3 + delta) == pytest.approx(
                expected, abs=1e-12
            )

    def test_exact_correlation_matches_dense_sampling(self):
        # independent quadrature oracle: midpoint rule on a fine grid
        lam = (np.arange(200001) + 0.5) * (2 * math.pi / 200001)
        for factory in (narrow_window_model, double_frequency_model):
            model = factory()
            sampled = float(
                np.mean(model.response_a(0.7, lam) * model.response_b(1.9, lam))
            )
            exact = correlation_lhv_exact(model, 0.7, 1.9)
            assert exact == pytest.approx(sampled, abs=1e-4)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_classical_bound_over_random_settings(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        rng = np.random.default_rng(17)
        for _ in range(40):
            settings = CHSHSettings(*rng.uniform(0, 2 * math.pi, size=4).tolist())
            assert abs(chsh_lhv_exact(model, settings)) <= CLASSICAL_BOUND + 1e-6

    def test_sign_cosine_saturates_at_optimal(self):
        assert abs(chsh_lhv_exact(sign_cosine_model(), OPTIMAL)) == pytest.approx(
            2.0, abs=1e-12
        )


class TestLHVSampling:
    def test_deterministic_given_seed(self):
        model = sign_cosine_model()
        a = chsh_lhv(model, OPTIMAL, 10_000, seed=42)
        b = chsh_lhv(model, OPTIMAL, 10_000, seed=42)
        assert a.s_value == b.s_value
        assert a.stderr == b.stderr

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(ValueError):
            chsh_lhv(sign_cosine_model(), OPTIMAL, 100, seed=0)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_estimate_within_five_sigma_of_exact(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        estimate = chsh_lhv(model, OPTIMAL, 100_000, seed=11)
        exact = chsh_lhv_exact(model, OPTIMAL)
        assert abs(estimate.s_value - exact) <= 5.0 * estimate.stderr

    def test_variance_halves_when_samples_double(self):
        # repeated-seed statistics: Var(S_hat) scales as 1/n
        model = sign_cosine_model()
        small = [chsh_lhv(model, OPTIMAL, 10_000, seed=s).s_value for s in range(160)]
        large = [
            chsh_lhv(model, OPTIMAL, 20_000, seed=s).s_value for s in range(160, 320)
        ]
        ratio = np.var(large, ddof=1) / np.var(small, ddof=1)
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_reported_stderr_is_calibrated(self):
        model = narrow_window_model()
        estimates = [chsh_lhv(model, OPTIMAL, 10_000, seed=s) for s in range(120)]
        empirical = np.std([e.s_value for e in estimates], ddof=1)
        nominal = np.mean([e.stderr for e in estimates])
        assert empirical == pytest.approx(nominal, rel=0.3)


class TestBellReport:
    def test_fields_and_violation_verdict(self):
        model = sign_cosine_model()
        doc = bell_report(OPTIMAL, model, chsh_lhv(model, OPTIMAL, 10_000, seed=1))
        for key in (
            "S_quantum",
            "S_lhv",
            "stderr_lhv",
            "bound_classical",
            "bound_quantum",
            "verdict",
        ):
            assert key in doc
        assert doc["bound_classical"] == 2.0
        assert doc["bound_quantum"] == pytest.approx(2.8284271247, abs=1e-9)
        assert doc["verdict"] == "Bell inequality violated by quantum prediction"
        assert abs(doc["S_quantum"]) > abs(doc["S_lhv_exact"])

    def test_no_violation_at_aligned_settings(self):
        aligned = CHSHSettings(0.0, 0.0, 0.0, 0.0)
        model = sign_cosine_model()
        doc = bell_report(aligned, model, chsh_lhv(model, aligned, 10_000, seed=1))
        assert doc["verdict"] == "no violation at these settings"
        assert doc["S_quantum"] == pytest.approx(-2.0, abs=1e-12)


def test_bell_suite_runs_the_monte_carlo_once_per_model(monkeypatch):
    from qsystems import epr_bell, suites

    calls = []
    original = epr_bell.chsh_lhv

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(epr_bell, "chsh_lhv", counted)
    report = suites.run_bell({"n_samples": 10_000, "n_random_settings": 2}, seed=3)
    assert report.to_dict()["pass"] is True
    assert sorted(calls) == sorted(m().name for m in epr_bell.SHIPPED_LHV_MODELS.values())
