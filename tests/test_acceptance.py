"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
``pytest -v tests/test_acceptance.py -s`` to see them).  Tolerances are
pinned here and match the documented values of the library.
"""

import itertools
import json
import math
import time

import numpy as np

from qsystems import epr_bell, galilei, symmetry
from qsystems.cli import main
from qsystems.dynamics import (
    PotentialSpec,
    RadialTable,
    build_hamiltonian,
    evolve,
    spin_pair_operators,
    weak_coupling_check,
)
from qsystems.grids import GridSpec
from qsystems.hilbert import SpaceSpec, StateVector, basis_state
from qsystems.charge import relative_phase_spread, verify_central
from qsystems.suites import _build_charge_model, _mereology_law_failures

_MODULE_T0 = time.perf_counter()


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_01_mereology_randomized_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = _mereology_law_failures(rng, list("abcdefgh"), 10_000)
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 5.0
    _report(1, f"10^4 monoid/parthood law instances exact in {elapsed:.2f}s")


def test_criterion_02_structure_constants_exact():
    t0 = time.perf_counter()
    antisymmetry_failures, jacobi_failures = galilei.verify_structure()
    elapsed = time.perf_counter() - t0
    assert math.comb(len(galilei.LABELS), 2) == 55 and not antisymmetry_failures
    assert math.comb(len(galilei.LABELS), 3) == 165 and not jacobi_failures
    assert elapsed < 1.0
    _report(2, f"antisymmetry (55 pairs) and Jacobi (165 triples) exact in {elapsed:.3f}s")


def test_criterion_03_spin_representations():
    for j in (0.5, 1.0, 1.5):
        rep = galilei.build_spin_rep(j)
        verification = galilei.verify_rep(rep)
        assert np.max([c["residual"] for c in verification["checks"]]) <= 1e-12, verification
        expected = j * (j + 1)
        casimir_dev = np.max(
            np.abs(galilei.casimir_squared(rep) - expected * np.eye(rep.space.total_dim))
        )
        assert casimir_dev <= 1e-12
    _report(3, "spin j in {1/2, 1, 3/2}: bracket residuals and Casimir within 1e-12")


def test_criterion_04_grid_and_additive_representation():
    rep = galilei.build_grid_rep(128, 16.0, 1.0)
    residuals = galilei.position_momentum_residuals(rep, n_states=20, seed=0)
    assert residuals.shape == (20,)
    assert residuals.max() <= 1e-6
    partner = galilei.build_grid_rep(128, 16.0, 1.5)
    pair = galilei.verify_additive_grid_pair(rep, partner, n_states=20, seed=0)
    pair_max = np.max([c["residual"] for c in pair["checks"]])
    assert pair_max <= 1e-6, pair
    _report(
        4,
        f"n=128 grid: [X,P] relative error {residuals.max():.2e} <= 1e-6 on 20 states; "
        f"two-particle additivity max residual {pair_max:.2e} <= 1e-6",
    )


def test_criterion_05_symmetrization_projectors():
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        s, a = symmetry.build_projectors(n, d)
        enum_s = len({tuple(sorted(t)) for t in itertools.product(range(d), repeat=n)})
        enum_a = sum(
            1
            for t in itertools.product(range(d), repeat=n)
            if all(x < y for x, y in zip(t, t[1:]))
        )
        assert symmetry.projector_rank(s) == enum_s
        assert symmetry.projector_rank(a) == enum_a
        assert np.max(np.abs(s @ s - s)) <= 1e-12
        assert np.max(np.abs(a @ a - a)) <= 1e-12
        assert np.max(np.abs(s @ a)) <= 1e-12
    rng = np.random.default_rng(7)
    qubit = SpaceSpec.single(2)
    phi = StateVector(qubit, rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
    chi = StateVector(qubit, rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
    assert symmetry.pauli_exclusion_check([phi, phi]) <= 1e-12
    assert symmetry.pauli_exclusion_check([phi, phi, chi]) <= 1e-12
    _report(5, "projector ranks match enumeration for all five (n,d); algebra and exclusion within 1e-12")


def test_criterion_06_dynamics():
    dot, _ = spin_pair_operators()
    eigs = np.sort(np.linalg.eigvalsh(dot))
    assert np.max(np.abs(eigs - np.array([-0.75, 0.25, 0.25, 0.25]))) <= 1e-12

    grid = GridSpec(64, 16.0)
    r = np.linspace(0.0, 8.0, 513)
    shape = np.exp(-(r ** 2) / (2.0 * 1.5 ** 2))
    pot = PotentialSpec(
        v=RadialTable(r, -2.0 * shape),
        v2=RadialTable(r, 0.8 * shape),
        v3=RadialTable(r, 0.5 * shape),
    )
    h = build_hamiltonian(grid, (1.0, 1.0), pot)
    rng = np.random.default_rng(6)
    psi0 = StateVector(
        h.space,
        rng.standard_normal(h.space.total_dim) + 1j * rng.standard_normal(h.space.total_dim),
    ).normalized()
    result = evolve(psi0, h, t_final=2.0, n_steps=100)
    assert result.norm_drift <= 1e-10
    assert result.energy_drift <= 1e-9

    check = weak_coupling_check(GridSpec(16, 16.0), (1.0, 1.3), pot, [0.1, 0.2, 0.5, 1.0])
    assert check["zero_coupling_residual"] <= 1e-12
    assert check["linearity_spread"] <= 1e-6
    _report(
        6,
        "singlet/triplet split exact to 1e-12; drifts (norm, energy) = "
        f"({result.norm_drift:.1e}, {result.energy_drift:.1e}); coupling linear to 1e-6",
    )


def test_criterion_07_superselection():
    rng = np.random.default_rng(12)
    model = _build_charge_model([-1, 0, 1, 1, 2, 2], 3, rng)
    central = np.max(verify_central(model))
    assert central <= 1e-10
    spread = np.max(relative_phase_spread(
        model, basis_state(model.space, 2), basis_state(model.space, 4), n_phases=16
    ))
    assert spread <= 1e-10
    _report(
        7,
        f"central commutators max {central:.1e} <= 1e-10; "
        f"16-phase expectation spread {spread:.1e} <= 1e-10",
    )


def test_criterion_08_epr_inference():
    cfg = epr_bell.EPRConfig(n_sites=256, length=16.0, width=0.25)
    rng = np.random.default_rng(99)
    from dataclasses import replace

    spacing = cfg.grid.spacing
    for _ in range(10):
        a = float(rng.uniform(-4.0, 4.0))
        x1 = float(rng.uniform(-2.0, 2.0))
        case = replace(cfg, separation=a)
        conditional = epr_bell.conditional_inference(case, x1)
        assert abs(conditional.mode - (x1 - a)) <= spacing + 1e-12
    sharp = epr_bell.commuting_pair_check(epr_bell.build_epr_state(cfg), cfg)
    assert sharp.commutator_state_residual <= 1e-10
    _report(
        8,
        "conditional mode within one grid spacing for 10 random (a, x1) pairs; "
        f"commuting-pair residual {sharp.commutator_state_residual:.1e} <= 1e-10",
    )


def test_criterion_09_bell():
    settings = epr_bell.CHSHSettings(0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
    s_quantum = epr_bell.chsh_quantum(settings)
    assert abs(abs(s_quantum) - 2.0 * math.sqrt(2.0)) <= 1e-10
    rng = np.random.default_rng(31)
    models = [factory() for _, factory in sorted(epr_bell.SHIPPED_LHV_MODELS.items())]
    estimates = epr_bell.chsh_lhv(models, settings, 100_000, seed=5)
    for model, estimate in zip(models, estimates):
        assert abs(epr_bell.chsh_lhv_exact(model, settings)) <= 2.0 + 1e-6
        for _ in range(5):
            random_settings = epr_bell.CHSHSettings(*rng.uniform(0, 2 * math.pi, 4).tolist())
            assert abs(epr_bell.chsh_lhv_exact(model, random_settings)) <= 2.0 + 1e-6
        exact = epr_bell.chsh_lhv_exact(model, settings)
        assert abs(estimate.s_value - exact) <= 5.0 * estimate.stderr
    _report(
        9,
        f"|S_quantum| = 2*sqrt(2) within 1e-10; all 3 local models bounded by 2 + 1e-6 "
        "in exact quadrature and consistent under 10^5-sample Monte Carlo",
    )


def test_criterion_10_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "all1.json", tmp_path / "all2.json"
    rc1 = main(["all", "--seed", "3", "--out", str(out1)])
    rc2 = main(["all", "--seed", "3", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    bytes1, bytes2 = out1.read_bytes(), out2.read_bytes()
    assert bytes1 == bytes2
    doc = json.loads(bytes1)
    assert doc["pass"] is True
    assert [s["suite"] for s in doc["suites"]] == [
        "axioms",
        "symmetry",
        "dynamics",
        "charge",
        "epr",
        "bell",
    ]
    _report(10, "two seeded `all` runs byte-identical, exit status 0")


def test_total_runtime_budget():
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0
    _report("(runtime)", f"acceptance suite completed in {elapsed:.1f}s < 60s")
