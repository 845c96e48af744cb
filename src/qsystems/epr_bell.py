"""Correlated pairs: the sharp relative-position / total-momentum state on a
two-particle grid, the conditional inference it licenses, the spin-singlet
CHSH value, and local hidden-variable models for the classical bound.

The pair state carries a Gaussian of width ``w`` in the relative coordinate
(a normalizable stand-in for a sharp separation) times a plane wave in the
center of mass.  The CHSH machinery is purely spin-1/2: correlations are
contracted with the singlet for a stack of analyzer pairs at once, classical
models by exact arc integration over the hidden variable and by seeded Monte
Carlo.  Units have hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import grids
from .grids import GridSpec
from .hilbert import SpaceSpec, StateVector, norm

__all__ = [
    "EPRConfig",
    "build_epr_state",
    "relative_position_values",
    "total_momentum_apply",
    "momentum_moments",
    "PairSharpnessReport",
    "commuting_pair_check",
    "ConditionalDistribution",
    "conditional_inference",
    "CHSHSettings",
    "singlet_state",
    "analyzer_operator",
    "correlation_quantum",
    "chsh_quantum",
    "LHVModel",
    "sign_cosine_model",
    "narrow_window_model",
    "double_frequency_model",
    "SHIPPED_LHV_MODELS",
    "correlation_lhv_exact",
    "chsh_lhv_exact",
    "LHVEstimate",
    "chsh_lhv",
    "bell_report",
    "CLASSICAL_BOUND",
    "QUANTUM_BOUND",
    "MIN_LHV_SAMPLES",
]

CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = 2.0 * math.sqrt(2.0)

# The Monte Carlo needs this many samples per correlation for its normal
# error bar to mean anything.
MIN_LHV_SAMPLES = 10_000
# Hidden variables drawn and compared per block: the Monte Carlo holds a few
# arrays of this length at once, whatever the sample count.  The blocks draw
# the same doubles as one call of the full length.
_LHV_CHUNK = 2 ** 16


# --------------------------------------------------------------------------
# Position-space pair state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EPRConfig:
    """Two particles on one periodic axis with sharp separation and total
    momentum.

    ``width`` is the standard deviation of the relative-separation
    distribution.  The total momentum is ``momentum_mode`` steps of 4 pi / L,
    so each particle's half lies on the reciprocal lattice and the constructed
    state is an exact eigenvector of the discrete total momentum.  The moments
    of that momentum are exact only while the envelope's momentum spread stays
    inside the lattice's band (:func:`_largest_momentum_mode`).
    """

    n_sites: int = 256
    length: float = 16.0
    separation: float = 1.0
    momentum_mode: int = 0
    width: float = 0.25

    def __post_init__(self):
        grid = self.grid  # validates n_sites/length
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.width < 2.0 * grid.spacing:
            raise ValueError(
                f"width {self.width:g} is below grid resolution 2*{grid.spacing:g}"
            )
        if self.width > self.length / 8.0:
            raise ValueError("width must be small against the box")
        if abs(self.separation) > self.length / 2.0:
            raise ValueError("separation must fit in the box")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(n_sites=self.n_sites, length=self.length)

    @property
    def total_momentum(self) -> float:
        return (4.0 * math.pi / self.length) * self.momentum_mode


# A relative-momentum step whose weight in the envelope's spectrum is below
# this counts as empty: at 1e-30 the commutator and the total-momentum
# variance of a pair state at the largest mode stay at roundoff.
_ALIAS_WEIGHT = 1e-30


def _largest_momentum_mode(cfg: EPRConfig) -> int:
    """The largest momentum mode |m| (the total momentum over 4 pi / L) whose
    pair state keeps its total momentum on the lattice, as the momentum checks
    need; the state itself is exact at any m.

    Particle momenta sit at m + q and m - q lattice steps (of 2 pi / L),
    with q spread by the envelope with weight exp(-2 (2 pi w q / L)^2).  The
    band holds the steps from -(n // 2) to (n - 1) // 2; a particle step past
    it aliases to the other edge and moves the total by n steps.  One of the
    two particles can leave the band from |q| = (n + 1) // 2 - |m| on, so
    every such q must weigh less than ``_ALIAS_WEIGHT``.
    """
    reach = math.sqrt(math.log(1.0 / _ALIAS_WEIGHT) / 2.0) * cfg.length / (2.0 * math.pi * cfg.width)
    return math.floor((cfg.n_sites + 1) // 2 - reach)


def _epr_factors(cfg: EPRConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the unnormalized pair state: the envelope column
    ``g[k] = exp(-wrap(k dx - a)^2 / 4 w^2)`` over the n site offsets, and
    the n phases ``exp(i p x / 2)``.

    Sites i and j sit ``(i - j) dx`` apart, up to a multiple of the box that
    the wrap removes, so ``psi[i, j] = g[(i - j) % n] * phase[i] * phase[j]``.
    """
    grid = cfg.grid
    offsets = np.arange(cfg.n_sites) * grid.spacing
    envelope = np.exp(-(grids.wrap_displacement(offsets - cfg.separation, cfg.length) ** 2)
                      / (4.0 * cfg.width ** 2))
    phase = np.exp(1j * cfg.total_momentum * grids.position_values(grid) / 2.0)
    return envelope, phase


def build_epr_state(cfg: EPRConfig) -> StateVector:
    """Normalized pair state g_w(x1 - x2 - a) * exp(i p (x1 + x2) / 2).

    The Gaussian argument is wrapped to the principal interval, so the
    relative-separation distribution has mean ``a`` and standard deviation
    ``w`` regardless of where the box seam sits.  The state is a circulant
    envelope times an outer product of phases, so it is gathered from the n
    values of :func:`_epr_factors` and normalized by the norm of the array
    built.
    """
    envelope, phase = _epr_factors(cfg)
    sites = np.arange(cfg.n_sites)
    psi = envelope[(sites[:, None] - sites[None, :]) % cfg.n_sites] * phase[:, None]
    psi *= phase[None, :]
    psi /= norm(psi)
    return StateVector(SpaceSpec((cfg.n_sites, cfg.n_sites)), psi.reshape(-1))


def relative_position_values(cfg: EPRConfig) -> np.ndarray:
    """Diagonal of the wrapped relative-position observable, as an (n, n) array: the
    site offset (i - j) mod n in [-n//2, n - n//2) times the spacing, exactly shift invariant."""
    n, sites = cfg.n_sites, np.arange(cfg.n_sites)
    return ((sites[:, None] - sites[None, :] + n // 2) % n - n // 2) * cfg.grid.spacing


def _total_momentum(cfg: EPRConfig) -> np.ndarray:
    """The total momentum k1 + k2 at each point of the (n, n) momentum grid."""
    k = grids.momentum_values(cfg.grid)
    return k[:, None] + k[None, :]


def total_momentum_apply(psi_grid: np.ndarray, cfg: EPRConfig) -> np.ndarray:
    """Apply the total momentum spectrally to an (n, n) pair wavefunction."""
    return np.fft.ifft2(_total_momentum(cfg) * np.fft.fft2(psi_grid, norm="ortho"), norm="ortho")


def _pair_grid(psi: StateVector, cfg: EPRConfig) -> np.ndarray:
    return psi.amplitudes.reshape(cfg.n_sites, cfg.n_sites)


def momentum_moments(psi: StateVector, cfg: EPRConfig) -> tuple[float, float, float]:
    """The mean and variance of the total momentum and the variance of the
    relative momentum on the pair state ``psi``, read from its one 2-d FFT."""
    return _spectral_moments(np.fft.fft2(_pair_grid(psi, cfg), norm="ortho"), cfg)


def _spectral_moments(spectrum: np.ndarray, cfg: EPRConfig) -> tuple[float, float, float]:
    """:func:`momentum_moments` from the pair state's unitary 2-d FFT."""
    k = grids.momentum_values(cfg.grid)
    ksum = _total_momentum(cfg)
    krel = 0.5 * (k[:, None] - k[None, :])
    prob_k = np.abs(spectrum) ** 2
    mean_p = float(np.sum(prob_k * ksum))
    var_p = float(np.sum(prob_k * (ksum - mean_p) ** 2))
    mean_rel = float(np.sum(prob_k * krel))
    var_rel = float(np.sum(prob_k * (krel - mean_rel) ** 2))
    return mean_p, var_p, var_rel


@dataclass(frozen=True)
class PairSharpnessReport:
    commutator_state_residual: float
    shift_commutator_residual: float
    mean_relative_position: float
    var_relative_position: float
    mean_total_momentum: float
    var_total_momentum: float
    var_relative_momentum: float


def commuting_pair_check(psi: StateVector, cfg: EPRConfig) -> PairSharpnessReport:
    """How compatible the relative position and total momentum are on the pair
    state ``psi``, as :func:`build_epr_state` builds it from ``cfg``.

    Two residuals: the absolute norm of the commutator of the two observables
    applied to the unit pair state (the state is a simultaneous
    near-eigenvector, so both orderings act identically), and the exact
    structural statement that the relative position commutes with the
    one-site simultaneous translation (the discrete exponential of total
    momentum).  Alongside, the first two moments: the relative position is
    sharp to the regularization width, the total momentum is exactly sharp by
    construction, and the conjugate spread of order 1/w^2 sits entirely in
    the relative momentum.  The moments and ``P_total psi`` share one 2-d FFT
    of the state.
    """
    psi = _pair_grid(psi, cfg)
    spectrum = np.fft.fft2(psi, norm="ortho")
    mean_p, var_p, var_rel = _spectral_moments(spectrum, cfg)
    p_psi = np.fft.ifft2(_total_momentum(cfg) * spectrum, norm="ortho")
    del spectrum
    d = relative_position_values(cfg)
    prob = np.abs(psi) ** 2

    mean_d = float(np.sum(prob * d))
    var_d = float(np.sum(prob * (d - mean_d) ** 2))
    del prob  # each (n, n) temporary goes after its last use, to keep the peak low

    commutator = d * p_psi - total_momentum_apply(d * psi, cfg)
    state_residual = norm(commutator)
    del p_psi, commutator

    shifted = np.roll(psi, 1, axis=(0, 1))
    shift_comm = d * shifted - np.roll(d * psi, 1, axis=(0, 1))
    shift_scale = norm(d * shifted)
    shift_residual = norm(shift_comm) / shift_scale if shift_scale > 0 else 0.0

    return PairSharpnessReport(
        commutator_state_residual=state_residual,
        shift_commutator_residual=shift_residual,
        mean_relative_position=mean_d,
        var_relative_position=var_d,
        mean_total_momentum=mean_p,
        var_total_momentum=var_p,
        var_relative_momentum=var_rel,
    )


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    probabilities: np.ndarray
    mode: float
    width: float


def conditional_inference(cfg: EPRConfig, measured_x1: float) -> ConditionalDistribution:
    """Distribution over the partner position after reading off particle 1.

    Slices the joint probability of :func:`build_epr_state` at the grid row
    nearest ``measured_x1``, computed from that one row alone, and
    normalizes.  The mode sits one grid spacing or less from
    ``measured_x1 - a`` (wrapped into the box).
    """
    if abs(measured_x1) > cfg.length / 2.0:
        raise ValueError("measured position must lie inside the box")
    # Row r of the state has |psi[r, j]|^2 = g[(r - j) % n]^2 / (n sum g^2):
    # the phases have unit modulus, and each row of the circulant holds every
    # g once, so every row carries 1/n of the probability.
    envelope, _ = _epr_factors(cfg)
    x = grids.position_values(cfg.grid)
    row = int(np.argmin(np.abs(x - measured_x1)))
    squared = envelope ** 2
    slice_prob = squared[(row - np.arange(cfg.n_sites)) % cfg.n_sites] / (cfg.n_sites * squared.sum())
    slice_prob = slice_prob / float(slice_prob.sum())
    mode = float(x[int(np.argmax(slice_prob))])
    deviations = grids.wrap_displacement(x - mode, cfg.length)
    width = float(np.sqrt(np.sum(slice_prob * deviations ** 2)))
    return ConditionalDistribution(probabilities=slice_prob, mode=mode, width=width)


# --------------------------------------------------------------------------
# Spin-singlet CHSH
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CHSHSettings:
    """Analyzer angles: (alpha, alpha') for one side, (beta, beta') for the other."""

    alpha: float = 0.0
    alpha_prime: float = math.pi / 2.0
    beta: float = math.pi / 4.0
    beta_prime: float = 3.0 * math.pi / 4.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.alpha_prime, self.beta, self.beta_prime)

    def terms(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The A angles and the B angles of the four correlations of S,
        (a, a, a', a') and (b, b', b, b'), in the order that
        :func:`_chsh_sum` combines them."""
        a, ap, b, bp = self.as_tuple()
        return (a, a, ap, ap), (b, bp, b, bp)


def _chsh_sum(correlations) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from the four correlations of
    :meth:`CHSHSettings.terms`."""
    e0, e1, e2, e3 = correlations
    return e0 - e1 + e2 + e3


def singlet_state() -> np.ndarray:
    """(|01> - |10>)/sqrt(2) on two qubits."""
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return psi


def analyzer_operator(theta):
    """Spin measurement along the unit vector at angle theta in the x-z plane,
    cos(theta) sigma_z + sin(theta) sigma_x, a real matrix; an array of angles
    gives the stack of operators, shape ``theta.shape + (2, 2)``."""
    theta = np.asarray(theta)
    cos, sin = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = cos, sin, sin, -cos
    return out


def correlation_quantum(angles_a, angles_b) -> np.ndarray:
    """<singlet| (n_a.sigma) x (n_b.sigma) |singlet> for each pair of the
    broadcast angle arrays: the stacked analyzers contracted with the state,
    read as the 2x2 amplitude matrix psi[i, j] of |i j>, in one einsum.  Each
    pair's value is the same at any batch size."""
    psi = singlet_state().reshape(2, 2)
    ops_a, ops_b = analyzer_operator(angles_a), analyzer_operator(angles_b)
    return np.einsum("ij,...ik,...jl,kl->...", psi.conj(), ops_a, ops_b, psi).real


def chsh_quantum(settings: CHSHSettings) -> float:
    """S on the singlet (signed), its four correlations in one batch."""
    return float(_chsh_sum(correlation_quantum(*np.array(settings.terms()))))


# --------------------------------------------------------------------------
# Local hidden-variable models
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LHVModel:
    """Deterministic local responses on a shared circular hidden variable.

    ``response_a(setting, lam)`` and ``response_b(setting, lam)`` take
    setting angles and hidden-variable angles ``lam`` in [0, 2*pi), which
    broadcast against each other, and return a boolean array: True is
    outcome +1, False is -1.  Each response depends only on its own setting
    and the hidden variable.  ``jumps_a`` and ``jumps_b`` list the
    discontinuity angles of the responses in [0, 2*pi) along a new last axis
    of the settings' shape, which lets expectations be integrated arc-exactly.
    The responses are written independently of the jump lists, so the sampled
    and the integrated correlations are two descriptions of one model.
    """

    name: str
    response_a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    response_b: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jumps_a: Callable[[np.ndarray], np.ndarray]
    jumps_b: Callable[[np.ndarray], np.ndarray]


def _on_arcs(lam: np.ndarray, starts, width: float) -> np.ndarray:
    """Whether each angle of ``lam`` (in [0, 2*pi)) lies on one of the arcs
    [start, start + width) taken mod 2*pi, for ``width`` in (0, 2*pi); each
    start broadcasts against ``lam``.

    With lo = start mod 2*pi and hi = lo + width, an arc that stays below
    2*pi holds lo <= lam < hi; one that wraps holds lo <= lam or lam < hi -
    2*pi.  In both, ``lam >= lo`` differs from ``lam >= end`` (end = hi, or
    hi - 2*pi past the wrap) exactly on the arc or exactly off it, so two
    comparisons and the wrap flag, chosen per start by ``np.where``, decide.
    """
    two_pi = 2.0 * np.pi
    inside = None
    for start in starts:
        lo = np.mod(start, two_pi)
        hi = lo + width
        wrap = hi > two_pi
        arc = lam >= lo
        arc ^= lam >= np.where(wrap, hi - two_pi, hi)
        arc ^= wrap
        inside = arc if inside is None else inside | arc
    return inside


def _at(setting, offsets) -> np.ndarray:
    """The angles setting + offset mod 2*pi, along a new last axis."""
    return np.mod(np.asarray(setting)[..., None] + offsets, 2.0 * np.pi)


def sign_cosine_model() -> LHVModel:
    """Hemisphere responses: each side answers with the sign of cos(lam - setting),
    that is, +1 on the half circle centred on its setting; B answers the
    opposite, so aligned analyzers reproduce the singlet's E = -1."""
    jumps = np.array([-np.pi / 2, np.pi / 2])
    return LHVModel(
        name="sign-cosine",
        response_a=lambda a, lam: _on_arcs(lam, [a - np.pi / 2], np.pi),
        response_b=lambda b, lam: ~_on_arcs(lam, [b - np.pi / 2], np.pi),
        jumps_a=lambda a: _at(a, jumps),
        jumps_b=lambda b: _at(b, jumps),
    )


# The narrow-window model answers +1 within this angle of its setting.
_WINDOW_HALF_WIDTH = np.pi / 3.0


def narrow_window_model() -> LHVModel:
    """Window responses: +1 only when the hidden variable falls within
    ``_WINDOW_HALF_WIDTH`` of the setting; biased marginals, still local."""
    w = _WINDOW_HALF_WIDTH
    jumps = np.array([-w, w])
    return LHVModel(
        name="narrow-window",
        response_a=lambda a, lam: _on_arcs(lam, [a - w], 2.0 * w),
        response_b=lambda b, lam: ~_on_arcs(lam, [b - w], 2.0 * w),
        jumps_a=lambda a: _at(a, jumps),
        jumps_b=lambda b: _at(b, jumps),
    )


def double_frequency_model() -> LHVModel:
    """Responses flipping at twice the analyzer rate around the circle: the
    sign of cos(2 (lam - setting)), +1 on the two quarter circles centred on
    the setting and on its opposite."""
    quarters = np.array([1.0, 3.0, 5.0, 7.0]) * np.pi / 4.0
    return LHVModel(
        name="double-frequency",
        response_a=lambda a, lam: _on_arcs(lam, [a - np.pi / 4, a + 3 * np.pi / 4], np.pi / 2),
        response_b=lambda b, lam: ~_on_arcs(lam, [b - np.pi / 4, b + 3 * np.pi / 4], np.pi / 2),
        jumps_a=lambda a: _at(a, quarters),
        jumps_b=lambda b: _at(b, quarters),
    )


SHIPPED_LHV_MODELS = {
    "sign-cosine": sign_cosine_model,
    "narrow-window": narrow_window_model,
    "double-frequency": double_frequency_model,
}


def correlation_lhv_exact(model: LHVModel, angles_a, angles_b) -> np.ndarray:
    """E(a, b) of the model for each pair of the broadcast setting arrays
    ``angles_a`` and ``angles_b``, by exact piecewise-constant arc
    integration, all pairs in one array pass.

    Per pair, the jump angles of both sides, 0 and 2 pi, sorted, cut the
    circle into arcs; the responses are evaluated at every arc midpoint of
    every pair in one call per side, A before B, and the signed arc lengths
    are summed in circle order.  A repeated angle makes an arc of zero
    length, which adds nothing.  Each pair's row is sorted and summed along
    the last axis alone, so its value is the same at any batch size.
    """
    two_pi = 2.0 * np.pi
    angles_a, angles_b = np.broadcast_arrays(np.asarray(angles_a, dtype=float),
                                             np.asarray(angles_b, dtype=float))
    circle = np.broadcast_to([0.0, two_pi], angles_a.shape + (2,))
    jumps = np.concatenate((model.jumps_a(angles_a), model.jumps_b(angles_b)), axis=-1)
    edges = np.sort(np.concatenate((np.mod(jumps, two_pi), circle), axis=-1), axis=-1)
    widths = np.diff(edges, axis=-1)
    mids = (edges[..., :-1] + edges[..., 1:]) / 2.0
    agree = model.response_a(angles_a[..., None], mids) == model.response_b(angles_b[..., None], mids)
    # A running sum adds the arcs one by one in circle order, where np.sum
    # would add them pairwise.
    return np.cumsum(np.where(agree, widths, -widths), axis=-1)[..., -1] / two_pi


def chsh_lhv_exact(model: LHVModel, settings: CHSHSettings) -> float:
    return float(_chsh_sum(correlation_lhv_exact(model, *settings.terms())))


@dataclass(frozen=True)
class LHVEstimate:
    s_value: float
    stderr: float
    correlations: tuple[float, float, float, float]
    n_samples: int
    seed: int


def _agreement_counts(model: LHVModel, settings: CHSHSettings, lam: np.ndarray) -> list[int]:
    """On how many hidden variables of ``lam`` each term's two outcomes agree,
    in the order of :meth:`CHSHSettings.terms`: A(a), A(a'), B(b) and B(b')
    are each evaluated once."""
    a, ap, b, bp = settings.as_tuple()
    out_a, out_ap = model.response_a(a, lam), model.response_a(ap, lam)
    out_b, out_bp = model.response_b(b, lam), model.response_b(bp, lam)
    pairs = ((out_a, out_b), (out_a, out_bp), (out_ap, out_b), (out_ap, out_bp))
    return [int(np.count_nonzero(x == y)) for x, y in pairs]


def chsh_lhv(
    models: Sequence[LHVModel], settings: CHSHSettings, n_samples: int, seed: int
) -> list[LHVEstimate]:
    """Monte-Carlo CHSH estimates for local models, one per model in order;
    reproducible given the seed.

    The hidden variable of a local model depends neither on the analyzer
    settings nor on the model, so one draw of ``n_samples`` values serves
    every model and all four correlations.  In blocks of ``_LHV_CHUNK``
    draws from one seeded generator, each model in turn evaluates each of
    A(a), A(a'), B(b) and B(b') once and counts the samples on which each
    term's two outcomes agree: E = (2 agree - n) / n.  A model's estimate is
    the one it would get alone from this seed.  On each draw the four +/-1
    products combine to S = +/-2, so S is read from the integer counts, (2
    (a0 - a1 + a2 + a3) - 2 n) / n, and its ddof=1 standard error is sqrt((4
    - S^2) / (n - 1)).  A model that saturates the bound on every draw reads
    S = +/-2.0 with error 0.0.
    """
    if n_samples < MIN_LHV_SAMPLES:
        raise ValueError(f"use at least {MIN_LHV_SAMPLES} samples per correlation")
    rng = np.random.default_rng(seed)
    agree = np.zeros((len(models), 4), dtype=np.int64)
    for start in range(0, n_samples, _LHV_CHUNK):
        lam = rng.uniform(0.0, 2.0 * np.pi, size=min(_LHV_CHUNK, n_samples - start))
        agree += [_agreement_counts(model, settings, lam) for model in models]
        del lam  # freed before the next block is drawn
    return [_estimate(counts, n_samples, seed) for counts in agree.tolist()]


def _estimate(agree: list[int], n: int, seed: int) -> LHVEstimate:
    """The estimate of one model from its four agreement counts over n draws."""
    # a0 - a1 + a2 + a3 is twice the number of draws whose S is +2.
    plus = _chsh_sum(agree) // 2
    return LHVEstimate(
        s_value=(4 * plus - 2 * n) / n,
        # (4 - S^2) / (n - 1) in integers, free of the cancellation near |S| = 2
        stderr=math.sqrt(16 * plus * (n - plus) / (n * n * (n - 1))),
        correlations=tuple((2 * k - n) / n for k in agree),
        n_samples=n,
        seed=seed,
    )


def bell_report(settings: CHSHSettings, model: LHVModel, estimate: LHVEstimate) -> dict:
    """Side-by-side quantum vs local-model CHSH record.

    The verdict compares the magnitude of the quantum value against the
    classical bound 2; the local model's sampled value ``estimate`` (from
    ``chsh_lhv``) comes with its exact arc-integrated counterpart and the
    Monte-Carlo standard error.
    """
    s_quantum = chsh_quantum(settings)
    s_exact = chsh_lhv_exact(model, settings)
    if abs(s_quantum) > CLASSICAL_BOUND:
        verdict = "Bell inequality violated by quantum prediction"
    else:
        verdict = "no violation at these settings"
    return {
        "settings": list(settings.as_tuple()),
        "model": model.name,
        "n_samples": estimate.n_samples,
        "seed": estimate.seed,
        "S_quantum": s_quantum,
        "S_quantum_abs": abs(s_quantum),
        "S_lhv": estimate.s_value,
        "S_lhv_exact": s_exact,
        "stderr_lhv": estimate.stderr,
        "bound_classical": CLASSICAL_BOUND,
        "bound_quantum": QUANTUM_BOUND,
        "verdict": verdict,
    }
