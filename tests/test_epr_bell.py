import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qsystems import epr_bell, grids, suites
from qsystems.hilbert import norm, pauli_matrices
from test_negative_controls import (
    dropped_jump_a,
    relative_position_unwrapped,
    shifted_jumps_a,
    signalling_partner,
)
from qsystems.epr_bell import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    CHSHSettings,
    EPRConfig,
    SHIPPED_LHV_MODELS,
    analyzer_operator,
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
    momentum_moments,
    narrow_window_model,
    relative_position_values,
    sign_cosine_model,
    singlet_state,
)

OPTIMAL = CHSHSettings()

# The pair geometry that a test does not set: the shipped epr suite's, at zero
# momentum.
PAIR_GEOMETRY = {"n_sites": 256, "length": 16.0, "separation": 1.0, "momentum_mode": 0, "width": 0.25}


def pair_config(**fields):
    """An :class:`EPRConfig` of ``PAIR_GEOMETRY`` updated by ``fields``."""
    return EPRConfig(**{**PAIR_GEOMETRY, **fields})


# Oracles: the cos-form +/-1 responses and the one-shot float estimator that the
# arc tests and the agreement count of ``chsh_lhv`` replaced.  Side A answers
# ``COS_RESPONSES[name](setting, lam)``; side B answers its negation.
def _pm(condition):
    return np.where(condition, 1.0, -1.0)


COS_RESPONSES = {
    "sign-cosine": lambda s, lam: _pm(np.cos(lam - s) >= 0.0),
    "narrow-window": lambda s, lam: _pm(np.cos(lam - s) > np.cos(np.pi / 3.0)),
    "double-frequency": lambda s, lam: _pm(np.cos(2.0 * (lam - s)) >= 0.0),
}


def oracle_chsh_lhv(name, settings, n_samples, seed):
    """(S, stderr, correlations) from one full-length draw of the hidden
    variable shared by the four products: each correlation is its
    ``products.mean()``, S the mean of the per-draw S and the stderr from
    that per-draw S's ``var(ddof=1)``."""
    response = COS_RESPONSES[name]
    lam = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=n_samples)
    a, ap, b, bp = settings.as_tuple()
    products = [response(sa, lam) * -response(sb, lam) for sa, sb in ((a, b), (a, bp), (ap, b), (ap, bp))]
    per_draw = products[0] - products[1] + products[2] + products[3]
    correlations = tuple(float(p.mean()) for p in products)
    return float(per_draw.mean()), float(np.sqrt(per_draw.var(ddof=1) / n_samples)), correlations


# Oracles: the scalar forms that the batched singlet and arc integrals replaced.
def oracle_correlation_quantum(angle_a, angle_b):
    """<singlet| (n_a.sigma) x (n_b.sigma) |singlet> through the 4x4 kron."""
    psi = singlet_state()
    op = np.kron(analyzer_operator(angle_a), analyzer_operator(angle_b))
    return float(np.real(np.vdot(psi, op @ psi)))


def oracle_correlation_lhv_exact(model, angle_a, angle_b):
    """E(a,b) by a Python loop over the arcs between sorted jump angles, each
    setting first reduced mod 2 pi."""
    angle_a, angle_b = np.mod(angle_a, 2.0 * np.pi), np.mod(angle_b, 2.0 * np.pi)
    jumps = np.concatenate(
        (
            np.atleast_1d(model.jumps_a(angle_a)),
            np.atleast_1d(model.jumps_b(angle_b)),
            [0.0, 2.0 * np.pi],
        )
    )
    edges = np.unique(np.mod(jumps, 2.0 * np.pi))
    if edges[-1] < 2.0 * np.pi:
        edges = np.append(edges, 2.0 * np.pi)
    total = 0.0
    for t0, t1 in zip(edges[:-1], edges[1:]):
        if t1 <= t0:
            continue
        mid = np.array([(t0 + t1) / 2.0])
        agree = model.response_a(angle_a, mid)[0] == model.response_b(angle_b, mid)[0]
        total += (1.0 if agree else -1.0) * (t1 - t0)
    return total / (2.0 * np.pi)


def per_pair_correlation_lhv_exact(model, angles_a, angles_b):
    """:func:`correlation_lhv_exact` as a loop over the pairs, one sort and one
    running sum per pair, with scalar settings."""
    two_pi = 2.0 * np.pi
    out = np.empty(len(angles_a))
    for t, (a, b) in enumerate(zip(angles_a, angles_b)):
        jumps = np.concatenate((np.atleast_1d(model.jumps_a(a)), np.atleast_1d(model.jumps_b(b))))
        edges = np.sort(np.concatenate((np.mod(jumps, two_pi), [0.0, two_pi])))
        widths = np.diff(edges)
        mids = (edges[:-1] + edges[1:]) / 2.0
        agree = model.response_a(a, mids) == model.response_b(b, mids)
        out[t] = np.cumsum(np.where(agree, widths, -widths))[-1] / two_pi
    return out


def per_model_chsh_lhv(model, settings, n_samples, seed):
    """One model's :func:`chsh_lhv` estimate from a generator of its own: in
    blocks of ``_LHV_CHUNK`` draws, A(a), A(a'), B(b) and B(b') once each,
    and the four agreement counts read as the estimate."""
    rng = np.random.default_rng(seed)
    a, ap, b, bp = settings.as_tuple()
    agree = [0, 0, 0, 0]
    for start in range(0, n_samples, epr_bell._LHV_CHUNK):
        lam = rng.uniform(0.0, 2.0 * np.pi, size=min(epr_bell._LHV_CHUNK, n_samples - start))
        out_a, out_ap = model.response_a(a, lam), model.response_a(ap, lam)
        out_b, out_bp = model.response_b(b, lam), model.response_b(bp, lam)
        pairs = ((out_a, out_b), (out_a, out_bp), (out_ap, out_b), (out_ap, out_bp))
        agree = [k + int(np.count_nonzero(x == y)) for k, (x, y) in zip(agree, pairs)]
    plus = (agree[0] - agree[1] + agree[2] + agree[3]) // 2
    n = n_samples
    return {
        "s_value": (4 * plus - 2 * n) / n,
        "stderr": math.sqrt(16 * plus * (n - plus) / (n * n * (n - 1))),
        "correlations": tuple((2 * k - n) / n for k in agree),
        "n_samples": n,
        "seed": seed,
    }


def lone_estimate(model, settings, n_samples, seed):
    """One model's estimate from :func:`chsh_lhv`."""
    (only,) = chsh_lhv([model], settings, n_samples, seed)
    return only


def exact_correlation(model, angle_a, angle_b):
    """One pair's value of the batched :func:`correlation_lhv_exact`."""
    return float(correlation_lhv_exact(model, [angle_a], [angle_b])[0])


class TestEPRConfig:
    def test_width_below_resolution_rejected(self):
        with pytest.raises(ValueError):
            pair_config(n_sites=64, length=16.0, width=0.1)

    def test_width_against_box_and_separation_bounds(self):
        with pytest.raises(ValueError):
            pair_config(width=3.0)
        with pytest.raises(ValueError):
            pair_config(separation=9.0)

    def test_momentum_snapping(self):
        # The total momentum is momentum_mode steps of 4 pi / L: bit for bit
        # the mode's float momentum snapped back onto that lattice.
        for length in (8.0, 13.7, 16.0, 32.0):
            unit = 4.0 * math.pi / length
            cfg = pair_config(length=length)
            for mode in range(-5000, 5001):
                snapped = unit * round(float(mode) * 4.0 * math.pi / length / unit)
                assert replace(cfg, momentum_mode=mode).total_momentum == snapped
        assert pair_config().total_momentum == 0.0


class TestEPRState:
    def test_normalized(self):
        psi = build_epr_state(pair_config())
        assert abs(psi.norm() - 1.0) <= 1e-10

    def test_zero_separation_concentrates_on_diagonal(self):
        cfg = pair_config(separation=0.0, momentum_mode=0)
        grid = build_epr_state(cfg).amplitudes.reshape(cfg.n_sites, cfg.n_sites)
        prob = np.abs(grid) ** 2
        diag_mass = np.trace(prob)
        assert diag_mass > 10 * prob.max()  # mass sits along x1 = x2
        d = relative_position_values(cfg)
        assert np.sum(prob[np.abs(d) > 8 * cfg.width]) <= 1e-12

    def test_mean_separation_and_momentum(self):
        p = 3 * 4.0 * math.pi / 16.0
        cfg = pair_config(separation=1.0, momentum_mode=3)
        rep = commuting_pair_check(build_epr_state(cfg), cfg)
        assert rep["mean_relative_position"] == pytest.approx(1.0, abs=1e-9)
        assert rep["mean_total_momentum"] == pytest.approx(p, abs=1e-9)

    def test_translation_invariance_at_zero_momentum(self):
        cfg = pair_config(momentum_mode=0)
        grid = build_epr_state(cfg).amplitudes.reshape(cfg.n_sites, cfg.n_sites)
        shifted = np.roll(grid, 1, axis=(0, 1))
        overlap = abs(np.vdot(grid.reshape(-1), shifted.reshape(-1)))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestCommutingPair:
    def test_residuals_and_variances(self):
        cfg = pair_config()
        rep = commuting_pair_check(build_epr_state(cfg), cfg)
        assert rep["commutator_state_residual"] <= 1e-10
        assert rep["shift_commutator_residual"] <= 1e-14
        assert rep["var_relative_position"] == pytest.approx(cfg.width ** 2, rel=0.01)
        assert rep["var_total_momentum"] <= 1e-20

    def test_relative_momentum_reciprocal_scaling(self):
        narrow_cfg, wide_cfg = pair_config(width=0.25), pair_config(width=0.5)
        narrow = commuting_pair_check(build_epr_state(narrow_cfg), narrow_cfg)
        wide = commuting_pair_check(build_epr_state(wide_cfg), wide_cfg)
        assert narrow["var_relative_momentum"] == pytest.approx(1.0 / (4 * 0.25 ** 2), rel=0.01)
        assert wide["var_relative_momentum"] == pytest.approx(1.0 / (4 * 0.5 ** 2), rel=0.01)
        assert wide["var_relative_momentum"] < narrow["var_relative_momentum"]


# A config that the fuzz of ``main`` drew: its spacing L/n is not dyadic, and
# wrapping the difference of rounded site positions put the shift commutator
# at 3.05e-13, over its 1e-14.
NON_DYADIC_EPR = {"n_sites": 44, "length": 20.175156469359752, "width": 0.9170525667890796,
                  "wide_width": 1.7074550334015246, "separation": 0.0, "momentum_mode": 0}


def test_shift_commutator_is_exact_at_a_non_dyadic_spacing():
    report = suites.run_suite("epr", NON_DYADIC_EPR)
    record = next(c for c in report["checks"] if c["id"] == "shift-commutator")
    assert record["value"] == 0.0
    assert report["pass"] is True


@pytest.mark.parametrize("n_sites, length", [(44, NON_DYADIC_EPR["length"]), (45, 7.3), (256, 16.0)])
def test_relative_position_is_the_wrapped_site_offset(n_sites, length):
    cfg = pair_config(n_sites=n_sites, length=length, width=length / 10.0)
    d = relative_position_values(cfg)
    assert np.array_equal(d, np.roll(d, 1, axis=(0, 1)))  # exactly shift invariant
    assert d.min() >= -length / 2.0 and d.max() < length / 2.0
    # The wrapped difference of positions agrees up to rounding, on the
    # circle: at the seam, rounding may put it at +L/2 where d is -L/2.
    x = grids.position_values(cfg.grid)
    rounded = grids.wrap_displacement(x[:, None] - x[None, :], length)
    assert np.max(grids.periodic_distance(d - rounded, length)) <= 1e-12 * length


@pytest.mark.parametrize("n_sites", [256, 1024])
def test_relative_position_is_unchanged_on_the_shipped_dyadic_grids(n_sites):
    # At L = 16 every position is a multiple of a power of two, and the wrap
    # of their differences was exact already.
    cfg = pair_config(n_sites=n_sites)
    x = grids.position_values(cfg.grid)
    assert np.array_equal(relative_position_values(cfg),
                          grids.wrap_displacement(x[:, None] - x[None, :], cfg.length))


def test_commuting_pair_simultaneously_sharp_dense():
    # Small grid so both observables fit as dense matrices: total momentum is
    # exactly sharp, relative position is sharp to the regularization width.
    from qsystems.hilbert import Operator
    from qsystems.grids import GridSpec, momentum_operator

    cfg = pair_config(n_sites=32, length=16.0, separation=1.0, width=1.0)
    psi = build_epr_state(cfg)
    d = relative_position_values(cfg)
    xrel = Operator(psi.space, np.diag(d.reshape(-1)))

    grid = GridSpec(32, 16.0)
    p1 = momentum_operator(grid)
    p_tot = np.kron(p1, np.eye(32)) + np.kron(np.eye(32), p1)
    p_op = Operator(psi.space, 0.5 * (p_tot + p_tot.conj().T))

    def mean_and_residual(observable):
        """<A> and the sharpness residual ||A psi - <A> psi|| / max(1, ||A psi||)."""
        amps = psi.normalized().amplitudes
        image = observable.entries @ amps
        mean = float(np.real(np.vdot(amps, image)))
        scale = max(1.0, float(np.linalg.norm(image)))
        return mean, float(np.linalg.norm(image - mean * amps)) / scale

    # The coarse 32-site grid leaves an aliased momentum tail at the 1e-7
    # level; the pair state is a momentum eigenvector at that resolution.
    mean_p, residual_p = mean_and_residual(p_op)
    assert residual_p <= 1e-6
    assert mean_p == pytest.approx(cfg.total_momentum, abs=1e-9)
    mean_x, residual_x = mean_and_residual(xrel)
    assert residual_x <= cfg.width
    assert mean_x == pytest.approx(cfg.separation, abs=cfg.width)
    # at a tolerance far below the width the position is not sharp
    assert residual_x > 1e-10


class TestConditionalInference:
    def test_documented_example(self):
        cfg = pair_config(separation=1.0)
        _, mode, _ = conditional_inference(cfg, measured_x1=0.3)
        assert abs(mode - (-0.7)) <= cfg.grid.spacing

    def test_zero_separation_mode_tracks_measurement(self):
        cfg = pair_config(separation=0.0)
        for x1 in (-1.2, 0.0, 2.4):
            _, mode, _ = conditional_inference(cfg, measured_x1=x1)
            assert abs(mode - x1) <= cfg.grid.spacing

    def test_conditional_width_matches_regularization(self):
        cfg = pair_config(width=0.3)
        _, _, width = conditional_inference(cfg, measured_x1=0.5)
        assert width == pytest.approx(0.3, rel=0.2)

    def test_distribution_normalized(self):
        probabilities, _, _ = conditional_inference(pair_config(), measured_x1=1.0)
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            conditional_inference(pair_config(), measured_x1=100.0)


# Oracle: the dense builder that the factored one replaced, which evaluates
# the wrapped envelope and the phase at every (x1, x2).
def oracle_epr_grid(cfg):
    x = grids.position_values(cfg.grid)
    diff = grids.wrap_displacement(x[:, None] - x[None, :] - cfg.separation, cfg.length)
    envelope = np.exp(-(diff ** 2) / (4.0 * cfg.width ** 2))
    phase = np.exp(1j * cfg.total_momentum * (x[:, None] + x[None, :]) / 2.0)
    psi = envelope * phase
    return psi / np.linalg.norm(psi)


def oracle_conditional(cfg, measured_x1):
    """(probabilities, mode, width, slice weight) from the row of the dense
    state nearest ``measured_x1``."""
    x = grids.position_values(cfg.grid)
    row = int(np.argmin(np.abs(x - measured_x1)))
    prob = np.abs(oracle_epr_grid(cfg)[row, :]) ** 2
    weight = float(prob.sum())
    prob = prob / weight
    mode = float(x[int(np.argmax(prob))])
    deviations = grids.wrap_displacement(x - mode, cfg.length)
    width = float(np.sqrt(np.sum(prob * deviations ** 2)))
    return prob, mode, width, weight


def _oracle_config(n, separation, mode):
    # EPRConfig needs a width of two spacings within an eighth of the box, so
    # 16 and 17 are its smallest even and odd grids.
    length = 16.0
    return EPRConfig(
        n_sites=n,
        length=length,
        separation=separation,
        momentum_mode=mode,
        width=max(0.25, 2.0 * length / n),
    )


# Oracles: the pair layer that the strided, in-place one replaced.  Each
# circulant is gathered through (n, n) int64 index arrays, and every product
# and 2-d FFT is a fresh array.
def gathered_epr_state(cfg):
    envelope, phase = epr_bell._epr_factors(cfg)
    sites = np.arange(cfg.n_sites)
    psi = envelope[(sites[:, None] - sites[None, :]) % cfg.n_sites] * phase[:, None]
    psi *= phase[None, :]
    psi /= norm(psi)
    return psi.reshape(-1)


def gathered_relative_position(cfg):
    n, sites = cfg.n_sites, np.arange(cfg.n_sites)
    return ((sites[:, None] - sites[None, :] + n // 2) % n - n // 2) * cfg.grid.spacing


def gathered_total_momentum(cfg):
    k = grids.momentum_values(cfg.grid)
    return k[:, None] + k[None, :]


def gathered_spectral_moments(spectrum, cfg):
    k = grids.momentum_values(cfg.grid)
    ksum = gathered_total_momentum(cfg)
    krel = 0.5 * (k[:, None] - k[None, :])
    prob_k = np.abs(spectrum) ** 2
    mean_p = float(np.sum(prob_k * ksum))
    var_p = float(np.sum(prob_k * (ksum - mean_p) ** 2))
    mean_rel = float(np.sum(prob_k * krel))
    var_rel = float(np.sum(prob_k * (krel - mean_rel) ** 2))
    return mean_p, var_p, var_rel


def gathered_pair_check(psi, cfg, relative_position=gathered_relative_position):
    def total_momentum_apply(psi_grid):
        spectrum = np.fft.fft2(psi_grid, norm="ortho")
        return np.fft.ifft2(gathered_total_momentum(cfg) * spectrum, norm="ortho")

    psi = psi.amplitudes.reshape(cfg.n_sites, cfg.n_sites)
    spectrum = np.fft.fft2(psi, norm="ortho")
    mean_p, var_p, var_rel = gathered_spectral_moments(spectrum, cfg)
    p_psi = np.fft.ifft2(gathered_total_momentum(cfg) * spectrum, norm="ortho")
    d = relative_position(cfg)
    prob = np.abs(psi) ** 2
    mean_d = float(np.sum(prob * d))
    var_d = float(np.sum(prob * (d - mean_d) ** 2))
    state_residual = norm(d * p_psi - total_momentum_apply(d * psi))
    shifted = np.roll(psi, 1, axis=(0, 1))
    shift_comm = d * shifted - np.roll(d * psi, 1, axis=(0, 1))
    shift_scale = norm(d * shifted)
    return {
        "commutator_state_residual": state_residual,
        "shift_commutator_residual": norm(shift_comm) / shift_scale if shift_scale > 0 else 0.0,
        "mean_relative_position": mean_d,
        "var_relative_position": var_d,
        "mean_total_momentum": mean_p,
        "var_total_momentum": var_p,
        "var_relative_momentum": var_rel,
    }


def _gather_configs(n):
    """The pair config and its wide twin at ``n`` sites: at 44 the non-dyadic
    one that the fuzz of ``main`` found, elsewhere the oracle geometry."""
    if n == 44:
        geometry = {key: value for key, value in NON_DYADIC_EPR.items() if key != "wide_width"}
        cfg = EPRConfig(length=geometry.pop("length"), **geometry)
        return cfg, replace(cfg, width=NON_DYADIC_EPR["wide_width"])
    cfg = _oracle_config(n, 1.0, 3)
    return cfg, replace(cfg, width=min(2.0 * cfg.width, cfg.length / 8.0))


@pytest.mark.parametrize("n", [17, 44, 64, 255, 256, 1024])
def test_pair_layer_equals_the_index_gather_oracle_bit_for_bit(n):
    for cfg in _gather_configs(n):
        psi = build_epr_state(cfg)
        assert np.array_equal(psi.amplitudes, gathered_epr_state(cfg))
        assert np.array_equal(relative_position_values(cfg), gathered_relative_position(cfg))
        assert commuting_pair_check(psi, cfg) == gathered_pair_check(psi, cfg)
        assert momentum_moments(psi, cfg) == gathered_spectral_moments(
            np.fft.fft2(psi.amplitudes.reshape(n, n), norm="ortho"), cfg
        )


@pytest.mark.parametrize("n", [44, 256])
def test_unwrapped_relative_position_still_spoils_the_shift_commutator(monkeypatch, n):
    # The pair check reads any (n, n) relative position, strided or not: the
    # negative control's unwrapped x1 - x2 gives the oracle's values, and
    # breaks the exact shift invariance.
    cfg, _ = _gather_configs(n)
    psi = build_epr_state(cfg)
    relative_position_unwrapped(monkeypatch)
    spoiled = commuting_pair_check(psi, cfg)
    assert spoiled == gathered_pair_check(psi, cfg, epr_bell.relative_position_values)
    assert spoiled["shift_commutator_residual"] > 1e-14


@pytest.mark.parametrize("n", [16, 17, 64, 256])
@pytest.mark.parametrize("separation", [1.0, -3.3, 7.97, -7.97, 8.0, -8.0])
@pytest.mark.parametrize("mode", [0, 3, -5])
def test_factored_state_matches_the_dense_oracle(n, separation, mode):
    cfg = _oracle_config(n, separation, mode)
    built = build_epr_state(cfg).amplitudes.reshape(n, n)
    np.testing.assert_allclose(built, oracle_epr_grid(cfg), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [16, 17, 64, 256])
@pytest.mark.parametrize("separation", [1.3, -3.3, 7.97, -7.97])
@pytest.mark.parametrize("mode", [0, 3, -5])
def test_conditional_row_matches_the_dense_oracle(n, separation, mode):
    # No separation here sits halfway between two sites, where the mode
    # would be a tie that roundoff breaks.
    cfg = _oracle_config(n, separation, mode)
    for x1 in (-7.5, -0.3, 2.6, 7.9):
        probabilities, mode_x2, width = conditional_inference(cfg, x1)
        prob, oracle_mode, oracle_width, weight = oracle_conditional(cfg, x1)
        assert mode_x2 == oracle_mode
        assert width == pytest.approx(oracle_width, rel=1e-12)
        # Every row of the circulant carries 1/n of the probability, so no
        # slice is negligible.
        assert weight == pytest.approx(1.0 / n, rel=1e-12)
        np.testing.assert_allclose(probabilities, prob, rtol=0, atol=1e-15)


class TestQuantumCHSH:
    def test_aligned_analyzers_anticorrelate(self):
        oracle = oracle_correlation_quantum(0.0, 0.0)
        assert correlation_quantum(0.0, 0.0) == pytest.approx(oracle)
        assert oracle == pytest.approx(-1.0, abs=1e-12)

    def test_analyzer_stack_matches_the_pauli_form(self):
        sx, _, sz = pauli_matrices()
        angles = np.random.default_rng(4).uniform(-10.0, 10.0, size=(5, 7))
        stack = analyzer_operator(angles)
        assert stack.shape == (5, 7, 2, 2)
        for theta, op in zip(angles.ravel(), stack.reshape(-1, 2, 2)):
            np.testing.assert_array_equal(op, math.cos(theta) * sz.real + math.sin(theta) * sx.real)
            assert np.array_equal(analyzer_operator(theta), op)

    def test_batched_correlations_match_the_kron_oracle(self):
        # 200 random pairs, the 13 x 13 grid of correlation-cosine-law, and
        # aligned and opposite analyzers: the einsum on the state agrees with
        # the 4x4 kron to 1e-15, and a pair's value does not depend on the
        # batch it sits in.
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 2.0 * math.pi, 13)
        angles_a = np.concatenate((rng.uniform(0.0, 2.0 * math.pi, 200), np.repeat(grid, 13), [0.7, 0.7]))
        angles_b = np.concatenate((rng.uniform(0.0, 2.0 * math.pi, 200), np.tile(grid, 13), [0.7, 0.7 + math.pi]))
        batched = epr_bell.correlation_quantum(angles_a, angles_b)
        oracle = [oracle_correlation_quantum(a, b) for a, b in zip(angles_a, angles_b)]
        np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(batched, [correlation_quantum(a, b) for a, b in zip(angles_a, angles_b)])
        np.testing.assert_array_equal(
            epr_bell.correlation_quantum(grid[:, None], grid[None, :]).ravel(), batched[200:369]
        )

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


def test_rotated_settings_in_one_batch_are_the_per_setting_values():
    # The bell suite's seven common offsets as one (7, 4) batch of terms,
    # against chsh_quantum at each rotated setting, bit for bit.
    deltas = np.linspace(0.0, 2.0 * math.pi, 7)
    for angles in np.random.default_rng(26).uniform(0.0, 2.0 * math.pi, size=(20, 4)).tolist():
        settings = CHSHSettings(*angles)
        rotated = np.array(settings.terms()) + deltas[:, None, None]
        batched = epr_bell._chsh_sum(correlation_quantum(rotated[:, 0], rotated[:, 1]).T)
        per_setting = [chsh_quantum(CHSHSettings(*(a + d for a in angles))) for d in deltas]
        np.testing.assert_array_equal(batched, per_setting)

def test_chsh_terms_combine_as_the_written_out_sum_bit_for_bit():
    # S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), spelled out as the quantum
    # and the exact local values once were, and as sum(sign * E).
    rng = np.random.default_rng(0)
    model = sign_cosine_model()
    for angles in rng.uniform(0.0, 2.0 * math.pi, size=(50, 4)).tolist():
        a, ap, b, bp = angles
        settings = CHSHSettings(*angles)
        assert settings.terms() == ((a, a, ap, ap), (b, bp, b, bp))
        e = correlation_quantum
        assert chsh_quantum(settings) == e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)
        e = partial(exact_correlation, model)
        assert chsh_lhv_exact(model, settings) == e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)
    draws = rng.uniform(-1.0, 1.0, size=(100_000, 4))
    signed = sum(sign * column for sign, column in zip((1.0, -1.0, 1.0, 1.0), draws.T))
    np.testing.assert_array_equal(epr_bell._chsh_sum(draws.T), signed)


class TestLHVModels:
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_responses_are_dichotomic(self, name):
        # Boolean outcomes (True is +1) over the whole domain [0, 2*pi), and
        # both outcomes occur on each side.
        model = SHIPPED_LHV_MODELS[name]()
        lam = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
        for setting in (0.0, 0.9, 2.0):
            for response in (model.response_a, model.response_b):
                outcomes = response(setting, lam)
                assert outcomes.dtype == np.bool_
                assert outcomes.shape == lam.shape
                assert outcomes.any() and not outcomes.all()

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_arc_responses_match_the_cosine_forms(self, name):
        # 10^7 seeded draws per model, 2 * 10^6 at each setting; B's response is
        # the negation of the cos form at its own setting.
        model = SHIPPED_LHV_MODELS[name]()
        oracle = COS_RESPONSES[name]
        rng = np.random.default_rng(2024)
        for setting in (0.0, 0.9, 2.0, math.pi / 4, 3 * math.pi / 4):
            for _ in range(2):
                lam = rng.uniform(0.0, 2.0 * math.pi, size=1_000_000)
                plus = oracle(setting, lam) > 0
                assert np.array_equal(model.response_a(setting, lam), plus)
                assert np.array_equal(model.response_b(setting, lam), ~plus)

    def test_sign_cosine_exact_correlation(self):
        # closed form: E(a,b) = -(1 - 2|a-b|/pi) for |a-b| <= pi
        model = sign_cosine_model()
        for delta in (0.0, 0.4, math.pi / 4, math.pi / 2, 2.5):
            expected = -(1.0 - 2.0 * delta / math.pi)
            assert exact_correlation(model, 0.3, 0.3 + delta) == pytest.approx(
                expected, abs=1e-12
            )

    def test_exact_correlation_matches_dense_sampling(self):
        # independent quadrature oracle: midpoint rule on a fine grid
        lam = (np.arange(200001) + 0.5) * (2 * math.pi / 200001)
        for factory in (sign_cosine_model, narrow_window_model, double_frequency_model):
            model = factory()
            agree = model.response_a(0.7, lam) == model.response_b(1.9, lam)
            sampled = 2.0 * float(np.mean(agree)) - 1.0
            exact = exact_correlation(model, 0.7, 1.9)
            assert exact == pytest.approx(sampled, abs=1e-4)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_classical_bound_over_random_settings(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        rng = np.random.default_rng(17)
        for _ in range(40):
            settings = CHSHSettings(*rng.uniform(0, 2 * math.pi, size=4).tolist())
            assert abs(chsh_lhv_exact(model, settings)) <= CLASSICAL_BOUND + 1e-6

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_batched_arcs_match_the_arc_loop_bit_for_bit(self, name):
        # 200 random pairs, pairs whose A and B jumps coincide (a = b, a = b
        # + pi, a jump at 0), and the CHSH terms at aligned settings.
        model = SHIPPED_LHV_MODELS[name]()
        rng = np.random.default_rng(21)
        angles_a = rng.uniform(0.0, 2.0 * math.pi, 200).tolist()
        angles_b = rng.uniform(0.0, 2.0 * math.pi, 200).tolist()
        for a in (0.0, 0.4, math.pi / 2, math.pi, 3.0, 2.0 * math.pi):
            angles_a += [a, a, a]
            angles_b += [a, a + math.pi, -a]
        aligned_a, aligned_b = CHSHSettings(0.0, 0.0, 0.0, 0.0).terms()
        angles_a += list(aligned_a)
        angles_b += list(aligned_b)
        batched = correlation_lhv_exact(model, angles_a, angles_b)
        oracle = [oracle_correlation_lhv_exact(model, a, b) for a, b in zip(angles_a, angles_b)]
        np.testing.assert_array_equal(batched, oracle)
        assert chsh_lhv_exact(model, CHSHSettings(0.0, 0.0, 0.0, 0.0)) == -2.0

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_batched_arcs_match_the_arc_loop_on_a_shifted_jump_table(self, name):
        # The shifted A table of the negative controls: the arcs no longer
        # sit where the responses flip, and both forms read it alike.
        model = shifted_jumps_a(SHIPPED_LHV_MODELS[name]())
        angles = np.random.default_rng(22).uniform(0.0, 2.0 * math.pi, size=(2, 200))
        oracle = [oracle_correlation_lhv_exact(model, a, b) for a, b in angles.T]
        np.testing.assert_array_equal(correlation_lhv_exact(model, *angles), oracle)

    def test_batched_arcs_match_the_arc_loop_on_a_missing_jump(self):
        model = dropped_jump_a(sign_cosine_model())
        angles = np.random.default_rng(23).uniform(0.0, 2.0 * math.pi, size=(2, 200))
        oracle = [oracle_correlation_lhv_exact(model, a, b) for a, b in angles.T]
        np.testing.assert_array_equal(correlation_lhv_exact(model, *angles), oracle)
        assert abs(chsh_lhv_exact(model, OPTIMAL)) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("change", [None, signalling_partner, shifted_jumps_a, dropped_jump_a],
                             ids=["shipped", "signalling-partner", "shifted-jumps", "dropped-jump"])
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_batched_arcs_match_the_per_pair_loop(self, name, change):
        # Trial settings as the bell suite stacks them, (trials, 4) A angles
        # against (trials, 4) B angles, with coinciding and wrapping jumps.
        model = SHIPPED_LHV_MODELS[name]()
        if change is not None:
            model = change(model)
        rng = np.random.default_rng(24)
        settings = [*rng.uniform(0.0, 2.0 * math.pi, size=(40, 4)).tolist(),
                    [0.0, 0.0, 0.0, 0.0], [math.pi, 0.0, math.pi, 2.0 * math.pi - 1e-15],
                    OPTIMAL.as_tuple()]
        terms = np.array([CHSHSettings(*angles).terms() for angles in settings])
        batched = correlation_lhv_exact(model, terms[:, 0], terms[:, 1])
        assert batched.shape == (len(settings), 4)
        oracle = per_pair_correlation_lhv_exact(model, terms[:, 0].ravel(), terms[:, 1].ravel())
        np.testing.assert_array_equal(batched.ravel(), oracle)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_responses_to_an_array_of_settings_are_the_scalar_ones(self, name):
        # np.where picks each setting's wrap: arcs that wrap past 2 pi and
        # arcs that do not, in one call.
        model = SHIPPED_LHV_MODELS[name]()
        settings = np.array([0.0, 0.3, math.pi / 2, 3.0, 4.9, 2.0 * math.pi - 1e-12])
        lam = np.random.default_rng(25).uniform(0.0, 2.0 * math.pi, size=4096)
        for response, jumps in ((model.response_a, model.jumps_a), (model.response_b, model.jumps_b)):
            batched = response(settings[:, None], lam)
            assert batched.shape == (len(settings), lam.size)
            for row, setting in zip(batched, settings.tolist()):
                np.testing.assert_array_equal(row, response(setting, lam))
            np.testing.assert_array_equal(jumps(settings), [jumps(s) for s in settings.tolist()])

    def test_sign_cosine_saturates_at_optimal(self):
        assert abs(chsh_lhv_exact(sign_cosine_model(), OPTIMAL)) == pytest.approx(
            2.0, abs=1e-12
        )


class TestLHVSampling:
    def test_deterministic_given_seed(self):
        model = sign_cosine_model()
        a = lone_estimate(model, OPTIMAL, 10_000, seed=42)
        b = lone_estimate(model, OPTIMAL, 10_000, seed=42)
        assert a["s_value"] == b["s_value"]
        assert a["stderr"] == b["stderr"]

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(ValueError):
            chsh_lhv([sign_cosine_model()], OPTIMAL, 100, seed=0)

    @pytest.mark.parametrize("n_samples", [10_000, 100_003, 1_000_000])
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_estimate_matches_the_one_shot_cosine_oracle(self, name, n_samples):
        # Blocks of draws, arc tests and the agreement count give the oracle's
        # correlations and S exactly; the closed-form stderr agrees to 2 ulp.
        settings = CHSHSettings(0.3, 1.4, 0.9, 2.6)
        estimate = lone_estimate(SHIPPED_LHV_MODELS[name](), settings, n_samples, seed=n_samples)
        s_value, stderr, correlations = oracle_chsh_lhv(name, settings, n_samples, n_samples)
        assert estimate["correlations"] == correlations
        assert estimate["s_value"] == s_value
        assert abs(estimate["stderr"] - stderr) <= 2 * np.spacing(stderr)

    # 10^6 + 1 samples end in a block of 16,961 draws.
    @pytest.mark.parametrize("n_samples", [10_000, 1_000_001])
    @pytest.mark.parametrize("change", [None, signalling_partner, shifted_jumps_a],
                             ids=["shipped", "signalling-partner", "shifted-jumps"])
    def test_shared_draw_matches_the_per_model_loop(self, change, n_samples):
        # One draw for every model gives each model the estimate that its
        # own generator would, field by field and bit for bit.
        models = [factory() for factory in SHIPPED_LHV_MODELS.values()]
        if change is not None:
            models = [change(model) for model in models]
        settings = CHSHSettings(0.5, 1.1, 0.1, 0.9)
        shared = chsh_lhv(models, settings, n_samples, seed=n_samples)
        assert shared == [per_model_chsh_lhv(model, settings, n_samples, n_samples) for model in models]

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_sampler_never_reads_the_jump_tables(self, name):
        def refuse(setting):
            raise AssertionError("the sampler read a jump table")

        model = SHIPPED_LHV_MODELS[name]()
        blind = replace(model, jumps_a=refuse, jumps_b=refuse)
        assert chsh_lhv([blind], OPTIMAL, 10_000, seed=3) == chsh_lhv([model], OPTIMAL, 10_000, seed=3)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_estimate_within_five_sigma_of_exact(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        estimate = lone_estimate(model, OPTIMAL, 100_000, seed=11)
        exact = chsh_lhv_exact(model, OPTIMAL)
        assert abs(estimate["s_value"] - exact) <= 5.0 * estimate["stderr"]

    @pytest.mark.parametrize("far", [1e15, 1e308])
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_setting_far_outside_the_circle_reads_as_its_reduction(self, name, far):
        # From about 1e15 rad, a - offset and a + offset once rounded apart
        # from the arcs taken from a, and the sampled and the integrated
        # correlations disagreed.  Both reduce each setting mod 2 pi first.
        model = SHIPPED_LHV_MODELS[name]()
        settings = CHSHSettings(far, 0.0, 0.0, 0.0)
        reduced = CHSHSettings(float(np.mod(far, 2.0 * np.pi)), 0.0, 0.0, 0.0)
        exact = correlation_lhv_exact(model, *settings.terms())
        assert np.array_equal(exact, correlation_lhv_exact(model, *reduced.terms()))
        (estimate,) = chsh_lhv([model], settings, 10_000, seed=5)
        assert [estimate] == chsh_lhv([model], reduced, 10_000, seed=5)
        deviation = np.abs(np.array(estimate["correlations"]) - exact)
        assert np.all(deviation <= 5.0 * np.sqrt((1.0 - np.clip(exact, -1.0, 1.0) ** 2) / 10_000))

    def test_saturated_model_reads_minus_two_with_no_error(self):
        # Every draw of the hemisphere model at the canonical settings gives
        # S = -2, so the counts give S = -2.0 and the stderr 0.0 exactly.
        for seed in range(5):
            estimate = lone_estimate(sign_cosine_model(), OPTIMAL, 100_003, seed=seed)
            assert (estimate["s_value"], estimate["stderr"]) == (-2.0, 0.0)

    def test_one_draw_serves_the_four_terms(self, monkeypatch):
        # n_samples hidden variables per call, in blocks of at most
        # _LHV_CHUNK, and on each block every model, in order, evaluates
        # A(a), A(a'), B(b) and B(b') once.
        drawn, evaluated = [], []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, low, high, size):
                drawn.append(size)
                return self.rng.uniform(low, high, size=size)

        def counted(model, side, response):
            def answer(setting, lam):
                evaluated.append((model, side, setting, lam.size))
                return response(setting, lam)
            return answer

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        names = list(SHIPPED_LHV_MODELS)
        models = [
            replace(model, response_a=counted(name, "A", model.response_a),
                    response_b=counted(name, "B", model.response_b))
            for name, model in ((name, SHIPPED_LHV_MODELS[name]()) for name in names)
        ]
        chsh_lhv(models, OPTIMAL, 200_001, seed=6)
        assert sum(drawn) == 200_001
        assert max(drawn) == epr_bell._LHV_CHUNK
        a, ap, b, bp = OPTIMAL.as_tuple()
        assert evaluated == [
            (name, side, setting, size)
            for size in drawn
            for name in names
            for side, setting in (("A", a), ("A", ap), ("B", b), ("B", bp))
        ]

    def test_variance_halves_when_samples_double(self):
        # repeated-seed statistics: Var(S_hat) scales as 1/n, at settings
        # where the hemisphere model is not saturated (exact S = -1.236)
        model = sign_cosine_model()
        settings = CHSHSettings(0.5, 1.1, 0.1, 0.9)
        small = [lone_estimate(model, settings, 10_000, seed=s)["s_value"] for s in range(160)]
        large = [
            lone_estimate(model, settings, 20_000, seed=s)["s_value"] for s in range(160, 320)
        ]
        ratio = np.var(large, ddof=1) / np.var(small, ddof=1)
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_reported_stderr_is_calibrated(self):
        model = narrow_window_model()
        estimates = [lone_estimate(model, OPTIMAL, 10_000, seed=s) for s in range(120)]
        empirical = np.std([e["s_value"] for e in estimates], ddof=1)
        nominal = np.mean([e["stderr"] for e in estimates])
        assert empirical == pytest.approx(nominal, rel=0.3)


class TestBellReport:
    def test_fields_and_violation_verdict(self):
        model = sign_cosine_model()
        doc = bell_report(OPTIMAL, model, lone_estimate(model, OPTIMAL, 10_000, seed=1))
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
        doc = bell_report(aligned, model, lone_estimate(model, aligned, 10_000, seed=1))
        assert doc["verdict"] == "no violation at these settings"
        assert doc["S_quantum"] == pytest.approx(-2.0, abs=1e-12)


def test_bell_suite_runs_one_monte_carlo_for_every_model(monkeypatch):
    calls = []
    original = epr_bell.chsh_lhv

    def counted(models, *args, **kwargs):
        calls.append([model.name for model in models])
        return original(models, *args, **kwargs)

    monkeypatch.setattr(epr_bell, "chsh_lhv", counted)
    report = suites.run_suite("bell", {"n_samples": 10_000, "n_random_settings": 2}, seed=3)
    assert report["pass"] is True
    assert calls == [suites._BELL_DEFAULTS["models"]]


def test_the_benchmark_harness_finds_the_monte_carlo_and_every_bell_check():
    # perfbench/layers.py times epr_bell.chsh_lhv and counts its n_samples
    # argument; perfbench/workloads.json lists the bell check ids a run must
    # report.
    import inspect
    import json
    from pathlib import Path

    from qsystems import suites

    assert "n_samples" in inspect.signature(epr_bell.chsh_lhv).parameters
    workloads = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text(encoding="utf-8")
    )
    listed = [c for c in workloads["workloads"]["default"]["expected_checks"] if c.startswith("bell/")]
    report = suites.run_suite("bell", {"n_samples": 10_000, "n_random_settings": 1}, seed=0)
    assert [f"bell/{c['id']}" for c in report["checks"]] == listed


def test_pair_check_drops_its_grid_temporaries():
    # At the default 256 sites one (n, n) complex array is 1 MiB.  Building
    # the state and checking it peaks at 4.13 MiB, when the state, two
    # complex and two real work arrays are live.  With index gathers
    # and a fresh array per product the peak was 7.5 MiB.  A first call
    # plans the FFTs, so the test reads the same peak alone and in the suite.
    cfg = pair_config(n_sites=256, length=16.0, separation=1.0, width=0.25)
    commuting_pair_check(build_epr_state(cfg), cfg)
    tracemalloc.start()
    try:
        commuting_pair_check(build_epr_state(cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.63 * 2**20


def test_epr_suite_stays_small_at_the_defaults():
    # The suite holds the pair state while it builds the wide one and reads
    # its moments: 5.13 MiB at 256 sites, where it was 7.5 MiB.
    suites.run_suite("epr")
    tracemalloc.start()
    try:
        suites.run_suite("epr")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.63 * 2**20


def test_lhv_batches_do_not_overlap_in_memory():
    # The Monte Carlo draws blocks of 2**16 hidden variables (0.5 MiB), which
    # every model reads in turn, and peaks near 1.0 MiB whatever the sample
    # count and the number of models; one full-length batch of 10^6 samples
    # held 7.6 MiB per float array and peaked at 31 MiB.
    models = [factory() for factory in SHIPPED_LHV_MODELS.values()]
    # The first draw imports modules (about 0.7 MiB); a small call loads
    # them, so that the test reads the same peak alone and in the suite.
    chsh_lhv(models, OPTIMAL, epr_bell.MIN_LHV_SAMPLES, 5)
    tracemalloc.start()
    try:
        chsh_lhv(models, OPTIMAL, 1_000_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_epr_suite_builds_each_pair_state_once(monkeypatch):
    # The pair state and the wide-envelope state; each inference case reads
    # one row from the envelope factors and builds no state.
    from qsystems import epr_bell, suites

    builds = []
    original = epr_bell.build_epr_state

    def counted(cfg):
        builds.append(cfg.width)
        return original(cfg)

    monkeypatch.setattr(epr_bell, "build_epr_state", counted)
    report = suites.run_suite("epr", {"n_sites": 128, "n_inference": 3})
    assert report["pass"] is True
    assert builds == [0.25, 0.5]


@pytest.mark.parametrize("width", [0.25, 0.5])
def test_momentum_moments_are_the_pair_checks_bit_for_bit(width):
    cfg = pair_config(n_sites=128, width=width)
    psi = build_epr_state(cfg)
    full = commuting_pair_check(psi, cfg)
    assert momentum_moments(psi, cfg) == (
        full["mean_total_momentum"], full["var_total_momentum"], full["var_relative_momentum"]
    )


def test_epr_suite_runs_one_pair_check_and_reads_only_the_wide_moments(monkeypatch):
    from qsystems import epr_bell, suites

    checked = []
    original = epr_bell.commuting_pair_check

    def counted(psi, cfg):
        checked.append(cfg.width)
        return original(psi, cfg)

    monkeypatch.setattr(epr_bell, "commuting_pair_check", counted)
    report = suites.run_suite("epr", {"n_sites": 128, "n_inference": 2})
    defaults = suites._EPR_DEFAULTS
    assert checked == [defaults["width"]]
    wide_cfg = pair_config(
        n_sites=128, width=defaults["wide_width"], momentum_mode=defaults["momentum_mode"]
    )
    wide = original(build_epr_state(wide_cfg), wide_cfg)
    narrowing = next(c for c in report["checks"] if c["id"] == "momentum-narrowing")
    assert narrowing["detail"]["var_relative_momentum_wide_envelope"] == wide["var_relative_momentum"]
