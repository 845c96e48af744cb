"""Negative controls: each row injects one defect into the code under one
check, runs that check's suite runner at its defaults, and asserts that the
check fails.  A check that no defect can flip would pass vacuously.  The
axioms suite runs on a small config (a 64-site grid, 4 test states and 4
atoms), the epr suite on 128 sites and 3 inference cases, and the bell suite
on 10^5 samples, 2 random settings and analyzer angles at which every
model's Monte Carlo is sensitive to a misplaced jump; every check still
passes there before injection.

Rows cover every check of all six suites.  A check that no numerical defect
can reach has a written reason in ``REASONS`` in place of a row, and a test
keeps every check id of ``tests/data/report_structure.json`` in one of the
two.

``NAN_ROWS`` does the same for NaN: each row makes one measurement, not the
first, of a check that reduces several NaN, and asserts that the check fails
and is marked ``non_finite``.
"""

import itertools
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qsystems import charge, dynamics, epr_bell, galilei, grids, mereology, suites, symmetry
from qsystems.hilbert import Operator

CHANNELS = dynamics.PotentialSpec.channels
CHARGE_MODEL = suites._build_charge_model
CHARGE_EIGH = charge.eigh_phase_fixed
GAUGE = charge.gauge_transform
APPLY = dynamics._apply_product_hamiltonian
SPIN_PAIR_OPERATORS = dynamics.spin_pair_operators
EIGH = dynamics.eigh_phase_fixed
PROJECTORS = symmetry.build_projectors
PERMUTATION_OPERATOR = symmetry.permutation_operator
PERMUTATION_ROWS = symmetry._permutation_rows
ANTISYMMETRIC_COUNT = symmetry.count_antisymmetric_basis
ADDITIVE_REP = galilei.build_additive_rep
SPIN_REP = galilei.build_spin_rep
GRID_REP = galilei.build_grid_rep
ADDITIVE_GRID_PAIR = galilei.verify_additive_grid_pair

ANALYZER = epr_bell.analyzer_operator
EPR_FACTORS = epr_bell._epr_factors
EPR_STATE = epr_bell.build_epr_state
CONDITIONAL = epr_bell.conditional_inference
TOTAL_MOMENTUM = epr_bell.EPRConfig.total_momentum

SMALL_AXIOMS = {"grid_sites": 64, "n_test_states": 4, "atom_pool": ["a", "b", "c", "d"]}
# At these angles the four A-B angle differences do not cancel in S, so a jump
# table shifted by 0.05 rad moves every model's exact S by about 0.13, over
# 20 standard errors of its 10^5-sample estimate.
SMALL_BELL = {"angles": [0.5, 1.1, 0.1, 0.9], "n_samples": 100_000, "n_random_settings": 2}
SMALL_EPR = {"n_sites": 128, "n_inference": 3}
CONFIGS = {"axioms": SMALL_AXIOMS, "epr": SMALL_EPR, "bell": SMALL_BELL}


def associate_drops_an_atom(monkeypatch):
    """Association loses the atom "d", bit 3 of the masks over a, b, c, d,
    so it is no longer idempotent."""
    monkeypatch.setattr(mereology, "associate", lambda x, y: (x | y) & ~np.uint64(1 << 3))


def _structure_with(monkeypatch, *entries):
    """The structure constants with each ``(a, b, c, value)`` entry C[a, b, c] set."""
    constants = galilei._STRUCTURE.copy()
    for *labels, value in entries:
        constants[tuple(galilei.LABELS.index(label) for label in labels)] = value
    monkeypatch.setattr(galilei, "_STRUCTURE", constants)


def one_sided_structure_constant(monkeypatch):
    """[K1, H] reads 2 P1 while [H, K1] still reads -P1."""
    _structure_with(monkeypatch, ("K1", "H", "P1", 2))


def doubled_rotation_bracket(monkeypatch):
    """[J1, J2] = 2 ihbar J3, antisymmetric but inconsistent with the other
    rotation brackets, so J1, J2, K1 break the Jacobi identity."""
    _structure_with(monkeypatch, ("J1", "J2", "J3", 2), ("J2", "J1", "J3", -2))


def _scaled_image(rep, label, factor=1.001):
    return replace(rep, images={**rep.images, label: factor * rep.images[label]})


def scaled_spin_j3(monkeypatch):
    """Every spin representation's J3 is 0.1% too large."""
    monkeypatch.setattr(
        galilei, "build_spin_rep", lambda *a, **k: _scaled_image(SPIN_REP(*a, **k), "J3")
    )


def scaled_grid_momentum(monkeypatch):
    """Every grid representation's momentum is 0.1% too large."""
    monkeypatch.setattr(
        galilei, "build_grid_rep", lambda *a, **k: _scaled_image(GRID_REP(*a, **k), "P1")
    )


def scaled_pair_momentum(monkeypatch):
    """The additive pair reads part b's momentum 0.1% too large; the grid
    representations themselves stay correct."""

    def verify(part_a, part_b, *args, **kwargs):
        return ADDITIVE_GRID_PAIR(part_a, _scaled_image(part_b, "P1"), *args, **kwargs)

    monkeypatch.setattr(galilei, "verify_additive_grid_pair", verify)


def scaled_pair_boost(monkeypatch):
    """The additive pair reads part a's boost 0.1% too large, and with it the
    position K/m, so every leg-a word with K or X is spoiled."""

    def verify(part_a, part_b, *args, **kwargs):
        return ADDITIVE_GRID_PAIR(_scaled_image(part_a, "K1"), part_b, *args, **kwargs)

    monkeypatch.setattr(galilei, "verify_additive_grid_pair", verify)


def _composite_with(monkeypatch, label):
    monkeypatch.setattr(
        galilei, "build_additive_rep", lambda *a, **k: _scaled_image(ADDITIVE_REP(*a, **k), label)
    )


def composite_mass_off(monkeypatch):
    """The composite's mass image is 0.1% off the sum of the part masses."""
    _composite_with(monkeypatch, "M")


def composite_j3_off(monkeypatch):
    """The composite's J3 image is 0.1% off the sum of the parts' J3."""
    _composite_with(monkeypatch, "J3")


def antisymmetric_count_off_by_one(monkeypatch):
    """The enumeration oracle counts one antisymmetric basis vector too many."""
    monkeypatch.setattr(
        symmetry, "count_antisymmetric_basis", lambda n, d: ANTISYMMETRIC_COUNT(n, d) + 1
    )


def _projectors_with(monkeypatch, change):
    """build_projectors returns ``change(S, A)`` in place of (S, A)."""

    monkeypatch.setattr(symmetry, "build_projectors", lambda n, d: change(*PROJECTORS(n, d)))


def scaled_symmetrizer(monkeypatch):
    """The symmetrizer is 1% too large, so it is no longer idempotent."""
    _projectors_with(monkeypatch, lambda s, a: (1.01 * s, a))


def leaky_antisymmetrizer(monkeypatch):
    """The antisymmetrizer keeps 1% of the symmetric sector."""
    _projectors_with(monkeypatch, lambda s, a: (s, a + 0.01 * s))


def rank_counts_every_eigenvalue(monkeypatch):
    """The projector rank counts the zero eigenvalues too."""
    monkeypatch.setattr(symmetry, "_RANK_THRESHOLD", -0.5)


def inverse_image_permutation_operator(monkeypatch):
    """U(p) is built from the inverse image, which reverses products."""

    monkeypatch.setattr(
        symmetry, "permutation_operator",
        lambda image, space: PERMUTATION_OPERATOR(np.argsort(image), space),
    )


def exclusion_with_symmetrizer(monkeypatch):
    """The exclusion check projects with the symmetrizer."""
    _projectors_with(monkeypatch, lambda s, a: (s, s))


def scaled_antisymmetrizer(monkeypatch):
    """The antisymmetrizer is 1% too large."""
    _projectors_with(monkeypatch, lambda s, a: (s, 1.01 * a))


def rotated_second_spin_frame(monkeypatch):
    """The second spin's frame is turned 90 degrees about z before the sum,
    so the summed J^2 is no longer symmetric in the two components."""

    def build(parts, *args, **kwargs):
        first, second = parts
        images = dict(second.images, J1=second.images["J2"], J2=-second.images["J1"])
        return ADDITIVE_REP([first, replace(second, images=images)], *args, **kwargs)

    monkeypatch.setattr(galilei, "build_additive_rep", build)


def permutation_rows_off_by_one(monkeypatch):
    """Every column of a permutation operator lands one row too far down."""

    def rows(images, dims):
        out = PERMUTATION_ROWS(images, dims)
        return (out + 1) % out.shape[-1]

    monkeypatch.setattr(symmetry, "_permutation_rows", rows)


def nonlinear_sample(monkeypatch):
    """Every channel v of the pair potential becomes v + 5 v^2."""

    def channels(self, r):
        return tuple(v + 5.0 * v ** 2 for v in CHANNELS(self, r))

    monkeypatch.setattr(dynamics.PotentialSpec, "channels", channels)


def wrong_second_mass(monkeypatch):
    """The product-space Hamiltonian takes body 2's mass 10% too large, at
    every coupling."""

    def apply(grid, masses, pots, vectors):
        m1, m2 = masses
        return APPLY(grid, (m1, 1.1 * m2), pots, vectors)

    monkeypatch.setattr(dynamics, "_apply_product_hamiltonian", apply)


def _spin_pair_with(monkeypatch, change):
    """spin_pair_operators returns ``change(dot, tensor)`` in place of
    (s1.s2, tensor term)."""
    monkeypatch.setattr(dynamics, "spin_pair_operators", lambda: change(*SPIN_PAIR_OPERATORS()))


def asymmetric_tensor_term(monkeypatch):
    """The tensor term is built from s1z alone, which the swap does not fix."""

    def change(dot, tensor):
        sz = 0.5 * np.diag([1.0, -1.0])
        return dot, 3.0 * np.kron(sz, 0.5 * np.eye(2)) - dot

    _spin_pair_with(monkeypatch, change)


def unmirrored_tensor_entry(monkeypatch):
    """The tensor term gains 1e-10 above its diagonal and nothing below, so
    the Hamiltonian's spin blocks are not hermitian.  Evolution's own guard,
    relative to the largest entry of H, still lets it run."""

    def change(dot, tensor):
        tensor = tensor.copy()
        tensor[0, 3] += 1e-10
        return dot, tensor

    _spin_pair_with(monkeypatch, change)


def scaled_spin_dot(monkeypatch):
    """s1.s2 is 0.1% too large."""
    _spin_pair_with(monkeypatch, lambda dot, tensor: (1.001 * dot, tensor))


def damped_propagator(monkeypatch):
    """Spectral evolution exponentiates energies E - 1e-6 i E, so the
    propagator damps each mode by its energy and is not unitary."""

    def eigh(h):
        vals, vecs = EIGH(h)
        return vals * (1.0 - 1e-6j), vecs

    monkeypatch.setattr(dynamics, "eigh_phase_fixed", eigh)


def potential_of_first_position(monkeypatch):
    """A pair potential sampled on a (site 1, site 2) grid reads only its
    first column, so it depends on x1 alone."""

    def channels(self, r):
        r = np.asarray(r)
        if r.ndim == 2:
            r = np.broadcast_to(r[:, :1], r.shape)
        return CHANNELS(self, r)

    monkeypatch.setattr(dynamics.PotentialSpec, "channels", channels)


def _charge_model_with(monkeypatch, change):
    """The charge suite runs on ``change(model, charges)`` in place of its model."""

    def build(charges, *args):
        return change(CHARGE_MODEL(charges, *args), charges)

    monkeypatch.setattr(suites, "_build_charge_model", build)


def cross_sector_observable(monkeypatch):
    """The first observable couples the first charge-1 and charge-2 basis
    vectors by 1e-3, so it does not commute with the charge."""

    def change(model, charges):
        a, b = charges.index(1), charges.index(2)
        entries = model.observables[0].entries.copy()
        entries[a, b] += 1e-3
        entries[b, a] += 1e-3
        leaky = Operator(model.q_operator.space, entries)
        return replace(model, observables=(leaky, *model.observables[1:]))

    _charge_model_with(monkeypatch, change)


def vacuum_one_vector_on(monkeypatch):
    """The designated vacuum is the basis vector after the neutral one, a
    charged vector that the gauge family turns."""
    _charge_model_with(
        monkeypatch, lambda model, charges: replace(model, vacuum_index=model.vacuum_index + 1)
    )


def half_angle_gauge(monkeypatch):
    """The gauge family is exp(i theta Q / 2), whose period is 4 pi."""
    monkeypatch.setattr(charge, "gauge_transform", lambda model, theta: GAUGE(model, theta / 2.0))


def long_charge_eigenvectors(monkeypatch):
    """The charge's eigenvectors come out 0.1% too long, so the sector
    projectors sum to 1.002 times the identity."""

    def eigh(matrix):
        vals, vecs = CHARGE_EIGH(matrix)
        return vals, 1.001 * vecs

    monkeypatch.setattr(charge, "eigh_phase_fixed", eigh)


def halved_charge_spectrum(monkeypatch):
    """The charge's eigenvalues come out halved, so rounding puts the charges
    -1, 0 and 1 in one sector with the neutral vector."""

    def eigh(matrix):
        vals, vecs = CHARGE_EIGH(matrix)
        return vals / 2.0, vecs

    monkeypatch.setattr(charge, "eigh_phase_fixed", eigh)


def _epr_factors_with(monkeypatch, change):
    """The pair state and the inference read ``change(envelope, phase, cfg)``
    in place of the envelope column and the phases."""
    monkeypatch.setattr(
        epr_bell, "_epr_factors", lambda cfg: change(*EPR_FACTORS(cfg), cfg)
    )


def _pushed_phase(phase, cfg, steps):
    """``phase`` with each particle's momentum ``steps`` lattice steps on."""
    x = grids.position_values(cfg.grid)
    return phase * np.exp(2j * np.pi * steps * x / cfg.length)


def stale_normalization(monkeypatch):
    """The built pair state comes out 0.1% long, as if divided by a stale norm."""

    def build(cfg):
        psi = EPR_STATE(cfg)
        return replace(psi, amplitudes=1.001 * psi.amplitudes)

    monkeypatch.setattr(epr_bell, "build_epr_state", build)


def envelope_shifted_one_site(monkeypatch):
    """The envelope column is rolled one site, so the separation is one
    spacing off."""
    _epr_factors_with(monkeypatch, lambda g, phase, cfg: (np.roll(g, 1), phase))


def phase_one_step_on(monkeypatch):
    """Each particle's phase runs one lattice step faster than the snapped
    momentum: still a total-momentum eigenvector, at the wrong value."""
    _epr_factors_with(monkeypatch, lambda g, phase, cfg: (g, _pushed_phase(phase, cfg, 1)))


def phase_past_the_band(monkeypatch):
    """Each particle's phase runs half the lattice faster, so the envelope's
    momentum spread wraps past the band edge."""
    _epr_factors_with(
        monkeypatch, lambda g, phase, cfg: (g, _pushed_phase(phase, cfg, cfg.n_sites // 2))
    )


def relative_position_unwrapped(monkeypatch):
    """The relative position is x1 - x2, not wrapped at the box seam."""

    def values(cfg):
        x = grids.position_values(cfg.grid)
        return x[:, None] - x[None, :]

    monkeypatch.setattr(epr_bell, "relative_position_values", values)


def envelope_ten_percent_wide(monkeypatch):
    """The envelope is built at 1.1 times the configured width."""
    monkeypatch.setattr(
        epr_bell, "_epr_factors",
        lambda cfg: EPR_FACTORS(replace(cfg, width=1.1 * cfg.width)),
    )


def unsnapped_momentum(monkeypatch):
    """The total momentum sits 1e-3 off the reciprocal lattice, so the phase
    does not close around the box."""
    shifted = property(lambda self: TOTAL_MOMENTUM.fget(self) + 1e-3)
    monkeypatch.setattr(epr_bell.EPRConfig, "total_momentum", shifted)


def width_read_from_the_default(monkeypatch):
    """The builder reads the epr suite's default width, so the wide envelope
    is no wider."""
    monkeypatch.setattr(
        epr_bell, "build_epr_state",
        lambda cfg: EPR_STATE(replace(cfg, width=suites._EPR_DEFAULTS["width"])),
    )


def inference_of_the_mirrored_separation(monkeypatch):
    """The inference slices the state of separation -a."""
    monkeypatch.setattr(
        epr_bell, "conditional_inference",
        lambda cfg, x1: CONDITIONAL(replace(cfg, separation=-cfg.separation), x1),
    )


def square_root_envelope(monkeypatch):
    """The envelope column is the square root of the Gaussian, so every
    distribution read from it is sqrt(2) times too wide."""
    _epr_factors_with(monkeypatch, lambda g, phase, cfg: (np.sqrt(g), phase))


def product_state_for_singlet(monkeypatch):
    """The "singlet" is the product state |01>, whose correlations
    -cos(a) cos(b) depend on the absolute analyzer angles."""

    def product():
        psi = np.zeros(4, dtype=np.complex128)
        psi[1] = 1.0
        return psi

    monkeypatch.setattr(epr_bell, "singlet_state", product)


def chsh_sign_slip(monkeypatch):
    """S adds E(a, b') where it should subtract it."""

    def chsh(settings):
        a, ap, b, bp = settings.as_tuple()
        corr = epr_bell.correlation_quantum
        return corr(a, b) + corr(a, bp) + corr(ap, b) + corr(ap, bp)

    monkeypatch.setattr(epr_bell, "chsh_quantum", chsh)


def analyzer_dial_wraps_at_pi(monkeypatch):
    """The analyzer reads its angle mod pi, so a setting past pi flips sign."""
    monkeypatch.setattr(epr_bell, "analyzer_operator", lambda theta: ANALYZER(theta % math.pi))


def _shipped_model_with(monkeypatch, name, change):
    """The bell suite builds ``change(model)`` in place of the shipped model ``name``."""
    factory = epr_bell.SHIPPED_LHV_MODELS[name]
    monkeypatch.setitem(epr_bell.SHIPPED_LHV_MODELS, name, lambda: change(factory()))


def signalling_partner(model):
    """B answers the opposite of A's own outcome, and the same outcome once
    A's setting is more than pi/2 from B's: E(a, b) = -sign cos(a - b), which
    reaches |S| = 4 at the canonical settings.  B reads the setting A last
    answered for, so the model is not local."""
    last = [0.0]

    def response_a(a, lam):
        last[0] = a
        return model.response_a(a, lam)

    def response_b(b, lam):
        outcome = model.response_a(last[0], lam)
        return np.where(np.cos(last[0] - b) >= 0.0, ~outcome, outcome)

    return replace(model, response_a=response_a, response_b=response_b)


def shifted_jumps_a(model):
    """The A jump table sits 0.05 rad past A's true jumps.  Only exact
    integration reads the table, so the sampled S stays where it was."""
    return replace(model, jumps_a=lambda a: np.mod(model.jumps_a(a) + 0.05, 2.0 * np.pi))


def dropped_jump_a(model):
    """The A jump table keeps only its first jump; the hemisphere model loses
    its jump at a + pi/2, so exact integration reads |S| = 3 at the canonical
    settings."""
    return replace(model, jumps_a=lambda a: model.jumps_a(a)[..., :1])


ROWS = [
    ("axioms", "mereology-monoid-parthood", associate_drops_an_atom),
    ("axioms", "algebra-antisymmetry", one_sided_structure_constant),
    ("axioms", "algebra-jacobi", doubled_rotation_bracket),
    *[
        ("axioms", f"spin-{kind}-j{j:g}", scaled_spin_j3)
        for j in suites._AXIOMS_DEFAULTS["spin_values"]
        for kind in ("brackets", "casimir")
    ],
    ("axioms", "grid-position-momentum", scaled_grid_momentum),
    ("axioms", "grid-brackets", scaled_grid_momentum),
    ("axioms", "additive-pair-relations", scaled_pair_momentum),
    ("axioms", "additive-spin-mass", composite_mass_off),
    ("axioms", "additive-spin-j3-spectrum", composite_j3_off),
    *[
        ("symmetry", f"projector-ranks-n{n}-d{d}", antisymmetric_count_off_by_one)
        for n, d in suites._SYMMETRY_DEFAULTS["cases"]
    ],
    ("symmetry", "projector-idempotency-orthogonality", scaled_symmetrizer),
    ("symmetry", "sector-orthogonality", leaky_antisymmetrizer),
    ("symmetry", "sector-sum-dimension", rank_counts_every_eigenvalue),
    ("symmetry", "permutation-homomorphism", inverse_image_permutation_operator),
    ("symmetry", "pauli-exclusion-duplicates", exclusion_with_symmetrizer),
    ("symmetry", "slater-survival", scaled_antisymmetrizer),
    ("symmetry", "exchange-invariant-total-observable", rotated_second_spin_frame),
    ("symmetry", "exchange-invariance-symmetric-state", permutation_rows_off_by_one),
    ("dynamics", "hamiltonian-hermiticity", unmirrored_tensor_entry),
    ("dynamics", "singlet-triplet-split", scaled_spin_dot),
    ("dynamics", "tensor-term-spectrum", asymmetric_tensor_term),
    ("dynamics", "evolution-norm-drift", damped_propagator),
    ("dynamics", "evolution-energy-drift", damped_propagator),
    ("dynamics", "weak-coupling-linearity", nonlinear_sample),
    ("dynamics", "weak-coupling-zero", wrong_second_mass),
    ("dynamics", "exchange-symmetry", asymmetric_tensor_term),
    ("dynamics", "momentum-conservation", potential_of_first_position),
    ("charge", "central-commutators", cross_sector_observable),
    ("charge", "gauge-period", half_angle_gauge),
    ("charge", "gauge-invariance", cross_sector_observable),
    ("charge", "sector-resolution", long_charge_eigenvectors),
    ("charge", "neutral-sector-unique", halved_charge_spectrum),
    ("charge", "superselection-offdiagonal", cross_sector_observable),
    ("charge", "vacuum-invariance", vacuum_one_vector_on),
    ("charge", "relative-phase-invisibility", cross_sector_observable),
    ("epr", "state-normalized", stale_normalization),
    ("epr", "mean-separation", envelope_shifted_one_site),
    ("epr", "mean-total-momentum", phase_one_step_on),
    ("epr", "commuting-pair", phase_past_the_band),
    ("epr", "shift-commutator", relative_position_unwrapped),
    ("epr", "variance-relative-position", envelope_ten_percent_wide),
    ("epr", "total-momentum-sharp", unsnapped_momentum),
    ("epr", "momentum-narrowing", width_read_from_the_default),
    ("epr", "conditional-inference-mode", inference_of_the_mirrored_separation),
    ("epr", "conditional-inference-width", square_root_envelope),
    ("bell", "chsh-quantum-optimal", product_state_for_singlet),
    ("bell", "chsh-quantum-tsirelson", chsh_sign_slip),
    ("bell", "correlation-cosine-law", analyzer_dial_wraps_at_pi),
    ("bell", "chsh-rotation-invariance", product_state_for_singlet),
    *[
        row
        for name in suites._BELL_DEFAULTS["models"]
        for row in (
            ("bell", f"lhv-classical-bound-{name}",
             partial(_shipped_model_with, name=name, change=signalling_partner)),
            ("bell", f"lhv-sampling-consistency-{name}",
             partial(_shipped_model_with, name=name, change=shifted_jumps_a)),
        )
    ],
    ("bell", "lhv-sign-cosine-saturation",
     partial(_shipped_model_with, name="sign-cosine", change=dropped_jump_a)),
]

# Checks with no row, each with the reason no numerical defect can flip it.
REASONS = {
    ("bell", "bell-report-schema"): "it asks whether bell_report's dict literal holds six "
    "literal keys; only an edit of that literal can fail it, and TestBellReport pins them",
}

# Suites whose every check id needs a row or a reason.
COVERED_SUITES = ("axioms", "symmetry", "dynamics", "charge", "epr", "bell")


def verdicts(suite: str) -> dict:
    return {c["id"]: c["pass"] for c in suites.run_suite(suite, CONFIGS.get(suite))["checks"]}


@pytest.mark.parametrize("suite, check_id, inject", ROWS, ids=[row[1] for row in ROWS])
def test_injected_defect_fails_its_check(suite, check_id, inject, monkeypatch):
    inject(monkeypatch)
    assert verdicts(suite)[check_id] is False


def test_shifted_jump_table_fails_sampling_consistency_at_the_shipped_angles(monkeypatch):
    # At the canonical angles the four terms' errors cancel in S, whose exact
    # value stays -2.0; the term-by-term z-scores still read 11.4 and 12.2.
    _shipped_model_with(monkeypatch, "sign-cosine", shifted_jumps_a)
    checks = suites.run_suite("bell", {"n_samples": 100_000, "n_random_settings": 2})["checks"]
    record = next(c for c in checks if c["id"] == "lhv-sampling-consistency-sign-cosine")
    assert suites._BELL_DEFAULTS["angles"] == [0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0]
    assert (record["pass"], "non_finite" in record) == (False, False)
    assert record["value"] > 10.0


@pytest.mark.parametrize("inject, law", [
    (scaled_pair_momentum, "[K_total, P_part] = ihbar*m_part"),
    (scaled_pair_boost, "[K,P] = ihbar*M (totals)"),
])
def test_a_spoiled_word_on_either_leg_fails_the_additive_pair(inject, law, monkeypatch):
    inject(monkeypatch)
    record = next(c for c in suites.run_suite("axioms", SMALL_AXIOMS)["checks"]
                  if c["id"] == "additive-pair-relations")
    residuals = {entry["law"]: entry["residual"] for entry in record["detail"]["checks"]}
    assert record["pass"] is False
    assert residuals[law] > 100 * record["tolerance"]
    assert residuals["[K,P] = ihbar*M (totals)"] > 100 * record["tolerance"]


def test_every_check_of_a_covered_suite_has_a_control_or_a_reason():
    path = Path(__file__).parent / "data" / "report_structure.json"
    structure = {(entry["suite"], entry["id"]) for entry in json.loads(path.read_text())}
    controlled = {(suite, check_id) for suite, check_id, _ in ROWS}
    assert not controlled & set(REASONS)
    assert (controlled | set(REASONS)) <= structure  # no row outlives its check
    missing = sorted(
        key for key in structure
        if key[0] in COVERED_SUITES and key not in controlled and key not in REASONS
    )
    assert not missing, f"checks with neither a negative control nor a reason: {missing}"


# --------------------------------------------------------------------------
# NaN measurements: a running maximum such as max(worst, x) would drop them.
# --------------------------------------------------------------------------

NAN = math.nan


def nan_on_call(target, name, call, spoil=lambda result: NAN):
    """Call ``call`` (from 0) of ``target.name`` returns ``spoil(result)``."""

    def inject(monkeypatch):
        original, calls = getattr(target, name), itertools.count()

        def spoiled(*args, **kwargs):
            result = original(*args, **kwargs)
            return spoil(result) if next(calls) == call else result

        monkeypatch.setattr(target, name, spoiled)

    return inject


def nan_at(array, index=1):
    out = np.array(array, dtype=np.result_type(np.asarray(array), float))
    out.flat[index] = NAN
    return out


def nan_second_law(detail):
    """A bracket verification whose second law reads NaN."""
    laws = [dict(law) for law in detail["checks"]]
    laws[1]["residual"] = NAN
    return {**detail, "checks": laws}


def nan_symmetrizer_entry(projectors):
    """Projectors whose symmetrizer has a NaN above the diagonal, which the
    rank's eigensolver (lower triangle) does not read."""
    s, a = projectors
    return nan_at(s), a


def nan_operator_entry(op):
    return Operator(op.space, nan_at(op.entries))


def nan_second_sector(decomposition):
    projectors, detail = decomposition
    return [projectors[0], nan_at(projectors[1]), *projectors[2:]], detail


def nan_in_second_observable(monkeypatch):
    build = suites._build_charge_model

    def model(*args):
        built = build(*args)
        observables = list(built.observables)
        observables[1] = nan_operator_entry(observables[1])
        return replace(built, observables=tuple(observables))

    monkeypatch.setattr(suites, "_build_charge_model", model)


def nan_gauge_at_quarter_turn(monkeypatch):
    """exp(i theta Q) has a NaN entry at theta = pi/4, the second of the
    gauge-invariance angles."""
    gauge = charge.gauge_transform

    def transform(model, theta):
        u = gauge(model, theta)
        return nan_operator_entry(u) if theta == math.pi / 4 else u

    monkeypatch.setattr(charge, "gauge_transform", transform)


def nan_quantum_correlation(shape, index):
    """The batch of singlet correlations of shape ``shape`` reads NaN at
    ``index``; every other batch, such as the four correlations of S, is
    untouched."""

    def inject(monkeypatch):
        correlation = epr_bell.correlation_quantum

        def spoiled(angles_a, angles_b):
            out = correlation(angles_a, angles_b)
            if out.shape == shape:
                out[index] = NAN
            return out

        monkeypatch.setattr(epr_bell, "correlation_quantum", spoiled)

    return inject


def nan_exact_correlation_at_canonical_settings(monkeypatch):
    """Each model's batch of exact correlations reads NaN at E(a, b') of the
    canonical settings, the second trial setting of every classical-bound
    check; the other three terms and the other settings are untouched."""
    exact = epr_bell.correlation_lhv_exact
    canonical = np.array(epr_bell.CHSHSettings().terms())

    def spoiled(model, angles_a, angles_b):
        out = exact(model, angles_a, angles_b)
        rows = np.all(np.stack((angles_a, angles_b), axis=-2) == canonical, axis=(-2, -1))
        out[rows, 1] = NAN
        return out

    monkeypatch.setattr(epr_bell, "correlation_lhv_exact", spoiled)


_SPIN_VALUES = suites._AXIOMS_DEFAULTS["spin_values"]

NAN_ROWS = [
    *[
        ("axioms", f"spin-brackets-j{j:g}", nan_on_call(galilei, "verify_rep", i, nan_second_law))
        for i, j in enumerate(_SPIN_VALUES)
    ],
    ("axioms", "grid-position-momentum",
     nan_on_call(galilei, "position_momentum_residual", 0)),
    ("axioms", "grid-brackets", nan_on_call(galilei, "verify_rep", len(_SPIN_VALUES), nan_second_law)),
    ("axioms", "additive-pair-relations",
     nan_on_call(galilei, "verify_additive_grid_pair", 0, nan_second_law)),
    ("symmetry", "projector-idempotency-orthogonality",
     nan_on_call(symmetry, "build_projectors", 1, nan_symmetrizer_entry)),
    ("symmetry", "sector-orthogonality",
     nan_on_call(symmetry, "build_projectors", 1, nan_symmetrizer_entry)),
    ("symmetry", "permutation-homomorphism",
     nan_on_call(symmetry, "permutation_operator", 4, nan_operator_entry)),
    ("symmetry", "pauli-exclusion-duplicates", nan_on_call(symmetry, "pauli_exclusion_check", 1)),
    ("symmetry", "exchange-invariant-total-observable",
     nan_on_call(symmetry, "exchange_expectation_check", 2)),
    # One call applies H(0) and then H(lambda) of every coupling: entry 2 is
    # the second coupling's, so its deviation reads NaN.
    ("dynamics", "weak-coupling-linearity",
     nan_on_call(dynamics, "_apply_product_hamiltonian", 0,
                 lambda applied: [*applied[:2], np.full_like(applied[2], NAN), *applied[3:]])),
    # Flat index 1 of the first (dim, n_states) draw: a NaN in test state 1.
    ("dynamics", "momentum-conservation", nan_on_call(grids.DomainMask, "random_states", 0, nan_at)),
    ("charge", "central-commutators", nan_on_call(charge, "verify_central", 0, nan_at)),
    ("charge", "gauge-invariance", nan_gauge_at_quarter_turn),
    ("charge", "sector-resolution", nan_on_call(charge, "sector_decomposition", 0, nan_second_sector)),
    ("charge", "superselection-offdiagonal", nan_in_second_observable),
    ("charge", "relative-phase-invisibility", nan_in_second_observable),
    ("epr", "conditional-inference-mode",
     nan_on_call(epr_bell, "conditional_inference", 1, lambda c: (c[0], NAN, c[2]))),
    ("epr", "conditional-inference-width",
     nan_on_call(epr_bell, "conditional_inference", 1, lambda c: (c[0], c[1], NAN))),
    # Entry [2, 5] of the 13 x 13 grid, off its origin.
    ("bell", "correlation-cosine-law", nan_quantum_correlation((13, 13), (2, 5))),
    # The first term at the second of the seven common offsets.
    ("bell", "chsh-rotation-invariance", nan_quantum_correlation((7, 4), (1, 0))),
    *[
        ("bell", f"lhv-classical-bound-{name}", nan_exact_correlation_at_canonical_settings)
        for name in suites._BELL_DEFAULTS["models"]
    ],
]


@pytest.mark.parametrize("suite, check_id, inject", NAN_ROWS, ids=[row[1] for row in NAN_ROWS])
def test_nan_measurement_fails_its_check(suite, check_id, inject, monkeypatch):
    inject(monkeypatch)
    with np.errstate(invalid="ignore"):  # arithmetic on NaN is the point here
        report = suites.run_suite(suite, CONFIGS.get(suite))
    record = next(c for c in report["checks"] if c["id"] == check_id)
    assert (record["pass"], record.get("non_finite")) == (False, True)
    json.dumps(record, allow_nan=False)


@pytest.mark.parametrize("suite", sorted({suite for suite, _, _ in ROWS + NAN_ROWS}))
def test_controls_start_from_passing_checks(suite):
    checks = verdicts(suite)
    assert all(checks[check_id] for s, check_id, _ in ROWS + NAN_ROWS if s == suite)
