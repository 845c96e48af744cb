"""Verification suites behind the command-line subcommands.

Every suite merges its config section over its defaults, builds its fixtures
from an explicit seed, measures each law at a pinned tolerance (scaled by
``tolerance_scale`` for exploratory runs), and returns a
:class:`~qsystems.report.SuiteReport`.  Each check is one call to the
``check`` made by :func:`_checks`, which applies the one verdict policy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from . import __version__, charge, dynamics, epr_bell, galilei, mereology, symmetry
from .grids import GridSpec, wrap_displacement
from .hilbert import Operator, SpaceSpec, StateVector, basis_state, lift, pauli_matrices
from .report import CheckRecord, SuiteReport

__all__ = ["SUITE_RUNNERS", "run_suite", "run_all"]

# Config keys that have no default and may be given as a JSON object.
_OPTIONAL_OBJECTS = {"dynamics.relative.potential"}

# Config keys whose number must be positive.
_POSITIVE_NUMBERS = {"axioms.hbar", "dynamics.hbar", "epr.hbar"}

_FLOAT_MAX = float(np.finfo(np.float64).max)

_JSON_TYPES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def _check_type(path: str, default, value) -> None:
    """Raise ValueError, naming ``path``, unless ``value`` has the JSON type of
    ``default`` and, if a number, is finite and within the float range."""
    expected = type(default)
    if not (type(value) is expected or (expected is float and type(value) is int)):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{path} must be {_JSON_TYPES[expected]}, not {got}")
    if type(value) in (int, float) and not (-_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise ValueError(f"{path} must be finite and within the float range")
    if expected is list and default:
        for i, item in enumerate(value):
            _check_type(f"{path}[{i}]", default[0], item)


def _merge(defaults: dict, override, path: str) -> dict:
    """``defaults`` updated by ``override`` at every depth.

    Raises ValueError, naming the dotted path, for an unknown key or for a
    value whose JSON type differs from its default's (an integer may stand
    for a number, and every element of a list must match the default's first).
    """
    if override is None:
        override = {}
    if not isinstance(override, dict):
        raise ValueError(f"{path} must be a JSON object")
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}"
        if where in _OPTIONAL_OBJECTS:
            _check_type(where, {}, value)  # any JSON object
            out[key] = value
        elif key not in defaults:
            raise ValueError(f"unknown config key {where}")
        elif isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            _check_type(where, defaults[key], value)
            if where in _POSITIVE_NUMBERS and not value > 0:
                raise ValueError(f"{where} must be positive")
            out[key] = value
    return out


def _checks(report: SuiteReport, tolerance_scale: float):
    """The suite's one verdict policy: ``(check, tol)``.

    ``tol(tolerance)`` scales a config key of the report's config, or a
    number, by ``tolerance_scale``.  ``check(id, law, value, tolerance,
    detail)`` adds a record: a residual passes when ``value <= tol(tolerance)``;
    with no tolerance, a count passes when it is 0 and a flag when it is true.
    A residual or tolerance that is NaN or infinite fails and is marked
    ``non_finite``.
    """

    def tol(tolerance) -> float:
        if isinstance(tolerance, str):
            tolerance = report.config[tolerance]
        return float(tolerance) * tolerance_scale

    def check(check_id: str, law: str, value, tolerance=None, detail=None) -> None:
        if tolerance is None:
            if isinstance(value, (bool, np.bool_)):
                value = passed = bool(value)
            else:
                value = int(value)
                passed = value == 0
            report.add(CheckRecord(check_id, law, value, None, passed, detail))
            return
        value, tolerance = float(value), tol(tolerance)
        finite = math.isfinite(value) and math.isfinite(tolerance)
        passed = finite and value <= tolerance
        report.add(CheckRecord(check_id, law, value, tolerance, passed, detail, not finite))

    return check, tol


# --------------------------------------------------------------------------
# axioms
# --------------------------------------------------------------------------

_AXIOMS_DEFAULTS = {
    "mereology_instances": 10_000,
    "atom_pool": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "spin_values": [0.5, 1.0, 1.5],
    "spin_tolerance": 1e-12,
    "grid_sites": 128,
    "grid_length": 16.0,
    "grid_masses": [1.0, 1.5],
    "grid_tolerance": 1e-6,
    "n_test_states": 20,
    "hbar": 1.0,
}


# Pools of up to this many distinct atoms are checked over every triple of
# their finite model: 2**8 = 256 individuals index a uint8 table, and the
# 256**3 triples cost less than 10**4 sampled ones.  Larger pools are sampled.
_EXHAUSTIVE_MAX_ATOMS = 8
# Rows of x per block of (x, y, z) triples: every per-block temporary has
# 16 * 256**2 one-byte entries (1 MB) over an 8-atom pool.
_TRIPLE_BLOCK_ROWS = 16


def _random_individual(rng: np.random.Generator, pool: list[str]) -> mereology.Individual:
    size = int(rng.integers(0, len(pool) + 1))
    atoms = rng.choice(pool, size=size, replace=False) if size else []
    return mereology.Individual(frozenset(str(a) for a in atoms))


def _mereology_is_exhaustive(pool: list[str]) -> bool:
    return len(set(pool)) <= _EXHAUSTIVE_MAX_ATOMS


def _exhaustive_law_failures(pool: list[str]) -> int:
    """Failing triples over the whole finite model of ``pool``.

    The association and parthood tables come from one library call per
    ordered pair of individuals; numpy then checks every law on them.  A
    triple (x, y, z) fails when a law instantiated at x, at (x, y) or at
    (x, y, z) fails.  An association outside the model fails every triple
    that starts with its pair.
    """
    individuals = sorted(mereology.composition(mereology.Individual(frozenset(pool))))
    index = {ind: i for i, ind in enumerate(individuals)}.get
    associate, is_part_of = mereology.associate, mereology.is_part_of
    codes = np.array([[index(associate(x, y), -1) for y in individuals] for x in individuals])
    part = np.array([[is_part_of(x, y) for y in individuals] for x in individuals], dtype=bool)
    closed = codes >= 0
    assoc = np.where(closed, codes, 0).astype(np.uint8)

    n = len(individuals)
    ids = np.arange(n)
    null = index(mereology.NULL)
    unary_bad = (assoc[ids, ids] != ids) | (assoc[:, null] != ids) | ~part[ids, ids]
    pair_bad = (
        ~closed
        | (assoc != assoc.T)
        | ~part[ids[:, None], assoc]
        | (part & part.T & (ids[:, None] != ids[None, :]))
        | unary_bad[:, None]
    )
    failures = n * int(np.count_nonzero(pair_bad))
    for start in range(0, n, _TRIPLE_BLOCK_ROWS):
        rows = slice(start, start + _TRIPLE_BLOCK_ROWS)
        triple_bad = assoc[assoc[rows]] != assoc[rows][:, assoc]  # (x|y)|z vs x|(y|z)
        triple_bad |= part[rows, :, None] & part[None, :, :] & ~part[rows, None, :]
        triple_bad &= ~pair_bad[rows, :, None]
        failures += int(np.count_nonzero(triple_bad))
    return failures


def _mereology_law_failures(rng: np.random.Generator, pool: list[str], instances: int) -> int:
    """Failing (x, y, z) triples of the monoid and partial-order laws.

    Pools of at most ``_EXHAUSTIVE_MAX_ATOMS`` distinct atoms are checked over
    every triple and draw nothing from ``rng``; larger pools are checked on
    ``instances`` random triples drawn from ``rng``.
    """
    if _mereology_is_exhaustive(pool):
        return _exhaustive_law_failures(pool)
    failures = 0
    assoc = mereology.associate
    part = mereology.is_part_of
    for _ in range(instances):
        x = _random_individual(rng, pool)
        y = _random_individual(rng, pool)
        z = _random_individual(rng, pool)
        ok = (
            assoc(assoc(x, y), z) == assoc(x, assoc(y, z))
            and assoc(x, y) == assoc(y, x)
            and assoc(x, x) == x
            and assoc(x, mereology.NULL) == x
            and part(x, x)
            and part(x, assoc(x, y))
            and part(x, assoc(assoc(x, y), z))
        )
        # Antisymmetry, exercised on a guaranteed two-way pair half the time.
        if part(x, y) and part(y, x) and x != y:
            ok = False
        w = assoc(x, y) if rng.integers(2) else x
        if part(x, w) and part(w, x) and w != x:
            ok = False
        if not ok:
            failures += 1
    return failures


def run_axioms(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_AXIOMS_DEFAULTS, config, "axioms")
    hbar = float(cfg["hbar"])
    report = SuiteReport("axioms", seed=seed, config=cfg, tool_version=__version__)
    check, tol = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)

    pool = list(cfg["atom_pool"])
    instances = int(cfg["mereology_instances"])
    if instances < 1:
        raise ValueError("axioms.mereology_instances must be at least 1")
    exhaustive = _mereology_is_exhaustive(pool)
    check("mereology-monoid-parthood",
          "association is a commutative idempotent monoid with neutral null; "
          "parthood is a partial order",
          _mereology_law_failures(rng, pool, instances),
          detail={"instances": (2 ** len(set(pool))) ** 3 if exhaustive else instances,
                  "exhaustive": exhaustive})

    antisymmetry_failures, jacobi_failures = galilei.verify_structure()
    check("algebra-antisymmetry",
          "[x,y] = -[y,x] over all 55 generator pairs (exact rational arithmetic)",
          len(antisymmetry_failures))
    check("algebra-jacobi", "[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 over all 165 triples (exact)",
          len(jacobi_failures))

    for j in cfg["spin_values"]:
        rep = galilei.build_spin_rep(j, hbar=hbar)
        rep.validate()
        brackets = galilei.verify_rep(rep, tol("spin_tolerance"))
        check(f"spin-brackets-j{j:g}",
              "rotation brackets [J_i,J_j] = ihbar*eps_ijk*J_k and centrality of M",
              brackets["max_residual"], "spin_tolerance", brackets)
        jv = float(j)
        expected = hbar * hbar * jv * (jv + 1.0) * np.eye(rep.space.total_dim)
        check(f"spin-casimir-j{j:g}", "J^2 = hbar^2 j(j+1) * identity",
              np.max(np.abs(galilei.casimir_squared(rep) - expected)), "spin_tolerance")

    n_states = int(cfg["n_test_states"])
    rep_a, rep_b = (
        galilei.build_grid_rep(int(cfg["grid_sites"]), float(cfg["grid_length"]), float(m), hbar)
        for m in cfg["grid_masses"][:2]
    )
    rep_a.validate()
    xp_residuals = galilei.position_momentum_residuals(rep_a, n_states=n_states, seed=seed)
    check("grid-position-momentum", "([X,P] - ihbar) applied to band-limited interior states",
          np.max(xp_residuals), "grid_tolerance",
          {"n_states": n_states, "residuals": xp_residuals})
    brackets = galilei.verify_rep(rep_a, tol("grid_tolerance"))
    check("grid-brackets", "free-subalgebra brackets on the masked subspace",
          brackets["max_residual"], "grid_tolerance", brackets)
    pair = galilei.verify_additive_grid_pair(
        rep_a, rep_b, tolerance=tol("grid_tolerance"), n_states=n_states, seed=seed
    )
    check("additive-pair-relations",
          "two-particle additivity: total P, K, H, M relations and mixed "
          "total-vs-part brackets on masked product states",
          pair["max_residual"], "grid_tolerance", pair)

    total = galilei.build_additive_rep(
        [galilei.build_spin_rep(0.5, hbar=hbar, mass=m) for m in (1.0, 1.5)]
    )
    check("additive-spin-mass", "total mass image is the sum of part masses",
          np.max(np.abs(total.image("M") - 2.5 * np.eye(4))), "spin_tolerance")
    j3_eigs = np.sort(np.linalg.eigvalsh(total.image("J3")))
    check("additive-spin-j3-spectrum", "two spin-1/2 parts: total J3 spectrum {-hbar, 0, 0, +hbar}",
          np.max(np.abs(j3_eigs - hbar * np.array([-1.0, 0.0, 0.0, 1.0]))), "spin_tolerance")
    return report


# --------------------------------------------------------------------------
# symmetry
# --------------------------------------------------------------------------

_SYMMETRY_DEFAULTS = {
    "cases": [[2, 2], [2, 3], [3, 2], [3, 3], [4, 2]],
    "projector_tolerance": 1e-12,
    "exclusion_tolerance": 1e-12,
    "homomorphism_tolerance": 1e-12,
    "exchange_tolerance": 1e-10,
    "n_random": 8,
}


def run_symmetry(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_SYMMETRY_DEFAULTS, config, "symmetry")
    report = SuiteReport("symmetry", seed=seed, config=cfg, tool_version=__version__)
    check, _ = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)
    n_random = int(cfg["n_random"])

    idem_worst = 0.0
    overlap_worst = 0.0
    rank_sum_ok = True
    rank_details = {}
    for n, d in cfg["cases"]:
        pair = symmetry.build_projectors(n, d)
        s, a = pair.symmetrizer.entries, pair.antisymmetrizer.entries
        rank_s = symmetry.projector_rank(pair.symmetrizer)
        rank_a = symmetry.projector_rank(pair.antisymmetrizer)
        oracle_s = symmetry.count_symmetric_basis(n, d)
        oracle_a = symmetry.count_antisymmetric_basis(n, d)
        rank_details[f"n{n}d{d}"] = {
            "rank_symmetric": rank_s,
            "rank_antisymmetric": rank_a,
            "enumerated_symmetric": oracle_s,
            "enumerated_antisymmetric": oracle_a,
        }
        check(f"projector-ranks-n{n}-d{d}",
              "projector ranks equal brute-force basis enumeration counts",
              rank_s == oracle_s and rank_a == oracle_a, detail=rank_details[f"n{n}d{d}"])
        idem_worst = max(
            idem_worst,
            float(np.max(np.abs(s @ s - s))),
            float(np.max(np.abs(a @ a - a))),
            float(np.max(np.abs(s @ a))),
            float(np.max(np.abs(a @ s))),
        )
        if n == 2:
            idem_worst = max(idem_worst, float(np.max(np.abs(s + a - np.eye(s.shape[0])))))
        total = rank_s + rank_a
        if total > d ** n or (n == 2) != (total == d ** n):
            rank_sum_ok = False
        if rank_a >= 1 and rank_s >= 1:
            for _ in range(n_random):
                dim = s.shape[0]
                psi_s = s @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                psi_a = a @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                if np.linalg.norm(psi_s) > 1e-9 and np.linalg.norm(psi_a) > 1e-9:
                    psi_s /= np.linalg.norm(psi_s)
                    psi_a /= np.linalg.norm(psi_a)
                    overlap_worst = max(overlap_worst, float(abs(np.vdot(psi_s, psi_a))))
    check("projector-idempotency-orthogonality",
          "S and A are idempotent, mutually orthogonal, and complete for n=2",
          idem_worst, "projector_tolerance")
    check("sector-orthogonality", "random symmetric and antisymmetric states are orthogonal",
          overlap_worst, "projector_tolerance")
    check("sector-sum-dimension", "rank(S) + rank(A) <= d^n with equality exactly when n = 2",
          rank_sum_ok, detail=rank_details)

    hom_worst = 0.0
    for n, d in ((3, 2), (4, 2)):
        space = SpaceSpec((d,) * n)
        for _ in range(n_random):
            p = symmetry.Permutation(tuple(rng.permutation(n).tolist()))
            q = symmetry.Permutation(tuple(rng.permutation(n).tolist()))
            u_pq = symmetry.permutation_operator(p.compose(q), space).entries
            u_p = symmetry.permutation_operator(p, space).entries
            u_q = symmetry.permutation_operator(q, space).entries
            hom_worst = max(hom_worst, float(np.max(np.abs(u_pq - u_p @ u_q))))
    check("permutation-homomorphism", "U(p.q) = U(p) U(q) over random permutation pairs",
          hom_worst, "homomorphism_tolerance")

    qubit = SpaceSpec.single(2)
    phi_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = StateVector(qubit, phi_raw).normalized()
    chi = StateVector(qubit, chi_raw).normalized()
    pair_norm = symmetry.pauli_exclusion_check([phi, phi])
    triple_norm = symmetry.pauli_exclusion_check([phi, phi, chi])
    check("pauli-exclusion-duplicates",
          "antisymmetrized products with a repeated single-component state vanish",
          max(pair_norm, triple_norm), "exclusion_tolerance",
          {"pair_norm": pair_norm, "triple_norm": triple_norm})
    slater_norm = symmetry.pauli_exclusion_check([basis_state(qubit, 0), basis_state(qubit, 1)])
    check("slater-survival", "antisymmetrized product of orthogonal states has norm 1/sqrt(2)",
          abs(slater_norm - 1.0 / math.sqrt(2.0)), "exclusion_tolerance")

    two_spins = galilei.build_additive_rep([galilei.build_spin_rep(0.5)] * 2)
    j_square = Operator(SpaceSpec((2, 2)), galilei.casimir_squared(two_spins))
    swap = symmetry.Permutation((1, 0))
    exch_worst = 0.0
    for _ in range(n_random):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = StateVector(SpaceSpec((2, 2)), raw).normalized()
        exch_worst = max(exch_worst, symmetry.exchange_expectation_check(j_square, psi, swap))
    check("exchange-invariant-total-observable",
          "expectation of the total J^2 is unchanged under component exchange",
          exch_worst, "exchange_tolerance")
    sym_state = StateVector(SpaceSpec((2, 2)), np.array([0, 1, 1, 0]) / math.sqrt(2.0))
    _, _, sz = pauli_matrices()
    one_sided = lift(Operator(qubit, sz), 0, SpaceSpec((2, 2)))
    check("exchange-invariance-symmetric-state",
          "one-sided observable still balances on an exchange-symmetric state",
          symmetry.exchange_expectation_check(one_sided, sym_state, swap), "exchange_tolerance")
    return report


# --------------------------------------------------------------------------
# dynamics
# --------------------------------------------------------------------------

_DYNAMICS_DEFAULTS = {
    "hbar": 1.0,
    "relative": {
        "n_sites": 64,
        "length": 16.0,
        "masses": [1.0, 1.0],
        "well_depth": 2.0,
        "well_width": 1.5,
        "v2_scale": 0.8,
        "v3_scale": 0.5,
    },
    "evolution": {"t_final": 2.0, "n_steps": 100},
    "weak_coupling": {"n_sites": 16, "masses": [1.0, 1.3], "lambdas": [0.125, 0.25, 0.5, 1.0]},
    "momentum": {"n_sites": 64, "masses": [1.0, 1.5]},
    "hermiticity_tolerance": 1e-12,
    "spin_spectrum_tolerance": 1e-12,
    "norm_drift_tolerance": 1e-10,
    "energy_drift_tolerance": 1e-9,
    "linearity_tolerance": 1e-6,
    "exchange_tolerance": 1e-10,
    "momentum_tolerance": 1e-6,
}


# Relative residual of the zero-coupling product Hamiltonian against the
# matrix-free lifted kinetic terms: rounding only, summed in another order.
_ZERO_COUPLING_RTOL = 1e-12


def _gaussian_well_tables(length: float, depth: float, width: float, v2: float, v3: float):
    r = np.linspace(0.0, length / 2.0, 257)
    shape = np.exp(-(r ** 2) / (2.0 * width ** 2))
    return dynamics.PotentialSpec(
        v=dynamics.RadialTable(r, -depth * shape),
        v1=None,
        v2=dynamics.RadialTable(r, v2 * shape),
        v3=dynamics.RadialTable(r, v3 * shape),
    )


def _two_bodies(masses, spin_half: bool, grid: GridSpec | None) -> dynamics.BodyConfig:
    return dynamics.BodyConfig(
        n_bodies=2, masses=tuple(float(m) for m in masses), spin_half=spin_half, grid=grid
    )


def run_dynamics(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_DYNAMICS_DEFAULTS, config, "dynamics")
    hbar = float(cfg["hbar"])
    report = SuiteReport("dynamics", seed=seed, config=cfg, tool_version=__version__)
    check, tol = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)

    rel = cfg["relative"]
    length = float(rel["length"])
    if rel.get("potential"):
        pot = dynamics.PotentialSpec.from_config(rel["potential"], r_max=length / 2.0)
    else:
        pot = _gaussian_well_tables(
            length,
            float(rel["well_depth"]),
            float(rel["well_width"]),
            float(rel["v2_scale"]),
            float(rel["v3_scale"]),
        )
    body = _two_bodies(rel["masses"], True, GridSpec(int(rel["n_sites"]), length))
    h = dynamics.build_hamiltonian(body, pot, hbar)
    check("hamiltonian-hermiticity", "kinetic + central + spin-spin Hamiltonian is hermitian",
          np.max(np.abs(h.entries - h.entries.conj().T)), "hermiticity_tolerance")

    spin_only = _two_bodies((1.0, 1.0), True, None)
    dot_h = dynamics.build_hamiltonian(
        spin_only, dynamics.PotentialSpec.from_constants(v2=1.0), hbar
    )
    eigs = np.sort(np.linalg.eigvalsh(dot_h.entries))
    check("singlet-triplet-split", "s1.s2 spectrum: -3 hbar^2/4 once, +hbar^2/4 threefold",
          np.max(np.abs(eigs - (hbar ** 2) * np.array([-0.75, 0.25, 0.25, 0.25]))),
          "spin_spectrum_tolerance")
    tensor_h = dynamics.build_hamiltonian(
        spin_only, dynamics.PotentialSpec.from_constants(v3=1.0), hbar
    )
    sx, sy, sz = (0.5 * hbar * m for m in pauli_matrices())
    dot = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    oracle = np.sort(np.linalg.eigvalsh(3.0 * np.kron(sz, sz) - dot))
    check("tensor-term-spectrum", "3(s1.n)(s2.n) - s1.s2 spectrum matches the explicit 4x4 oracle",
          np.max(np.abs(np.sort(np.linalg.eigvalsh(tensor_h.entries)) - oracle)),
          "spin_spectrum_tolerance")

    evo = cfg["evolution"]
    dim = h.space.total_dim
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 = StateVector(h.space, raw).normalized()
    result = dynamics.evolve(psi0, h, float(evo["t_final"]), int(evo["n_steps"]), hbar)
    check("evolution-norm-drift", "spectral propagation keeps the norm constant",
          result.norm_drift, "norm_drift_tolerance",
          {"times": result.times, "norms": result.norms, "energies": result.energies})
    check("evolution-energy-drift", "spectral propagation keeps the energy constant",
          result.energy_drift, "energy_drift_tolerance")

    weak = cfg["weak_coupling"]
    weak_grid = GridSpec(int(weak["n_sites"]), length)
    coupling = dynamics.weak_coupling_check(
        _two_bodies(weak["masses"], True, weak_grid),
        pot,
        [float(v) for v in weak["lambdas"]],
        hbar,
        tolerance=tol("linearity_tolerance"),
        zero_tolerance=tol(_ZERO_COUPLING_RTOL),
        seed=seed,
    )
    check("weak-coupling-zero",
          "at zero coupling the product Hamiltonian acts on seeded vectors as the "
          "one-body kinetic terms applied along their own site axes",
          coupling["zero_coupling_residual"], _ZERO_COUPLING_RTOL, coupling)
    check("weak-coupling-linearity", "deviation norm divided by the coupling is a single constant",
          coupling["linearity_spread"], "linearity_tolerance")

    exch_body = _two_bodies((1.0, 1.0), True, weak_grid)
    check("exchange-symmetry", "[H, U_swap] vanishes for identical bodies",
          dynamics.exchange_symmetry_residual(exch_body, pot, hbar), "exchange_tolerance")

    mom = cfg["momentum"]
    mom_body = _two_bodies(mom["masses"], False, GridSpec(int(mom["n_sites"]), length))
    central_only = dynamics.PotentialSpec(v=pot.v)
    check("momentum-conservation",
          "[H, P_total] vanishes on masked states for separation-only potentials",
          dynamics.momentum_conservation_residual(mom_body, central_only, hbar, seed=seed),
          "momentum_tolerance")
    return report


# --------------------------------------------------------------------------
# charge
# --------------------------------------------------------------------------

_CHARGE_DEFAULTS = {
    "charges": [-1, 0, 1, 1, 2, 2],
    "n_observables": 3,
    "n_phases": 16,
    "central_tolerance": 1e-10,
    "projector_tolerance": 1e-12,
    "offdiagonal_tolerance": 1e-12,
    "phase_tolerance": 1e-10,
}


def _build_charge_model(charges: list[int], n_observables: int, rng: np.random.Generator) -> charge.ChargeModel:
    dim = len(charges)
    space = SpaceSpec.single(dim)
    q = Operator(space, np.diag(np.asarray(charges, dtype=np.complex128)))
    charges_arr = np.asarray(charges)
    observables = []
    for _ in range(n_observables):
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for value in sorted(set(charges)):
            idx = np.flatnonzero(charges_arr == value)
            block = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal(
                (idx.size, idx.size)
            )
            block = 0.5 * (block + block.conj().T)
            mat[np.ix_(idx, idx)] = block
        observables.append(Operator(space, mat))
    observables.append(Operator(space, np.eye(dim, dtype=np.complex128)))
    vacuum_index = int(np.flatnonzero(charges_arr == 0)[0])
    return charge.ChargeModel(
        space=space,
        q_operator=q,
        observables=tuple(observables),
        symmetry_unitaries=(),
        vacuum_index=vacuum_index,
    )


def run_charge(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_CHARGE_DEFAULTS, config, "charge")
    charges = cfg["charges"]
    # 0 labels the vacuum; 1 and 2 carry the relative-phase pair.
    missing = [q for q in (0, 1, 2) if q not in charges]
    if missing:
        raise ValueError(f"charge.charges must contain 0, 1 and 2; missing {missing}")
    report = SuiteReport("charge", seed=seed, config=cfg, tool_version=__version__)
    check, tol = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)
    model = _build_charge_model(charges, int(cfg["n_observables"]), rng)
    dim = model.space.total_dim

    central = charge.verify_central(model, tolerance=tol("central_tolerance"))
    check("central-commutators", "the charge commutes with every registered observable",
          central["max_residual"], "central_tolerance", central)
    period = charge.gauge_transform(model, 2.0 * math.pi)
    check("gauge-period", "integer spectrum makes exp(2*pi*i*Q) the identity",
          np.max(np.abs(period.entries - np.eye(dim))), "central_tolerance")
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        u = charge.gauge_transform(model, float(theta))
        for obs in model.observables:
            conj = u.entries.conj().T @ obs.entries @ u.entries
            worst = max(worst, float(np.max(np.abs(conj - obs.entries))))
    check("gauge-invariance", "first-kind gauge conjugation fixes every registered observable",
          worst, "central_tolerance")

    decomp = charge.sector_decomposition(model)
    resolution = sum(s.projector for s in decomp.sectors) - np.eye(dim)
    ortho = 0.0
    for sa, sb in itertools.combinations(decomp.sectors, 2):
        ortho = max(ortho, float(np.max(np.abs(sa.projector @ sb.projector))))
    check("sector-resolution", "charge sector projectors resolve the identity and are orthogonal",
          max(float(np.max(np.abs(resolution))), ortho), "projector_tolerance")
    check("neutral-sector-unique", "the charge-zero sector is one-dimensional",
          decomp.neutral_unique, detail=decomp.to_dict())
    check("superselection-offdiagonal",
          "registered observables have no matrix elements between sectors",
          decomp.offdiagonal_residual, "offdiagonal_tolerance")
    check("vacuum-invariance", "the designated neutral vector is fixed by the gauge family",
          bool(decomp.vacuum_invariant))

    spread = charge.relative_phase_spread(
        model,
        basis_state(model.space, charges.index(1)),
        basis_state(model.space, charges.index(2)),
        n_phases=int(cfg["n_phases"]),
    )
    check("relative-phase-invisibility",
          "expectations are independent of the phase between charge sectors",
          spread, "phase_tolerance")
    return report


# --------------------------------------------------------------------------
# epr
# --------------------------------------------------------------------------

_EPR_DEFAULTS = {
    "n_sites": 256,
    "length": 16.0,
    "separation": 1.0,
    "momentum_mode": 3,
    "width": 0.25,
    "wide_width": 0.5,
    "n_inference": 10,
    "hbar": 1.0,
    "norm_tolerance": 1e-10,
    "mean_tolerance": 1e-6,
    "commutator_tolerance": 1e-10,
    "width_rtol": 0.2,
    "variance_rtol": 0.05,
}


def run_epr(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_EPR_DEFAULTS, config, "epr")
    n_inference = int(cfg["n_inference"])
    if n_inference < 1:
        raise ValueError("epr.n_inference must be at least 1")
    hbar = float(cfg["hbar"])
    report = SuiteReport("epr", seed=seed, config=cfg, tool_version=__version__)
    check, _ = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)
    length = float(cfg["length"])
    momentum = float(cfg["momentum_mode"]) * 4.0 * math.pi * hbar / length
    pair_cfg = epr_bell.EPRConfig(
        n_sites=int(cfg["n_sites"]),
        length=length,
        separation=float(cfg["separation"]),
        total_momentum=momentum,
        width=float(cfg["width"]),
    )
    psi = epr_bell.build_epr_state(pair_cfg, hbar)
    check("state-normalized", "the regularized pair state is a unit vector",
          abs(psi.norm() - 1.0), "norm_tolerance")

    sharp = epr_bell.commuting_pair_check(pair_cfg, hbar)
    check("mean-separation", "the relative position averages to the configured separation",
          abs(sharp.mean_relative_position - pair_cfg.separation), "mean_tolerance",
          sharp.to_dict())
    check("mean-total-momentum", "the total momentum averages to the configured (snapped) value",
          abs(sharp.mean_total_momentum - pair_cfg.snapped_momentum(hbar)), "mean_tolerance")
    check("commuting-pair", "relative position and total momentum commute on the pair state",
          sharp.commutator_state_residual, "commutator_tolerance")
    check("shift-commutator", "relative position commutes exactly with simultaneous translation",
          sharp.shift_commutator_residual, 1e-14)
    width_sq = pair_cfg.width ** 2
    check("variance-relative-position",
          "relative-position variance equals the regularization width squared",
          abs(sharp.var_relative_position - width_sq) / width_sq, "variance_rtol")
    check("total-momentum-sharp",
          "the pair state is an exact eigenvector of the total momentum "
          "(variance at roundoff level)",
          sharp.var_total_momentum, 1e-20)
    wide_cfg = replace(pair_cfg, width=float(cfg["wide_width"]))
    wide = epr_bell.commuting_pair_check(wide_cfg, hbar)
    check("momentum-narrowing",
          "a wider separation envelope narrows the conjugate relative-momentum "
          "spread (order hbar^2 / 4 w^2)",
          wide.var_relative_momentum < sharp.var_relative_momentum,
          detail={
              "var_relative_momentum_narrow_envelope": sharp.var_relative_momentum,
              "var_relative_momentum_wide_envelope": wide.var_relative_momentum,
              "reciprocal_prediction_narrow": hbar ** 2 / (4.0 * pair_cfg.width ** 2),
              "reciprocal_prediction_wide": hbar ** 2 / (4.0 * wide_cfg.width ** 2),
          })

    spacing = pair_cfg.grid.spacing
    worst_mode = 0.0
    worst_width = 0.0
    for _ in range(n_inference):
        a = float(rng.uniform(-length / 4.0, length / 4.0))
        x1 = float(rng.uniform(-length / 8.0, length / 8.0))
        case = replace(pair_cfg, separation=a)
        conditional = epr_bell.conditional_inference(case, x1, hbar)
        target = float(wrap_displacement(np.array([x1 - a]), length)[0])
        mode_err = abs(float(wrap_displacement(np.array([conditional.mode - target]), length)[0]))
        worst_mode = max(worst_mode, mode_err)
        worst_width = max(worst_width, abs(conditional.width - case.width) / case.width)
    check("conditional-inference-mode",
          "reading one position pins the partner at the measured value minus "
          "the separation, within one grid spacing",
          worst_mode, spacing + 1e-9, {"n_cases": n_inference, "grid_spacing": spacing})
    check("conditional-inference-width",
          "the conditional distribution's width matches the regularization width",
          worst_width, "width_rtol")
    return report


# --------------------------------------------------------------------------
# bell
# --------------------------------------------------------------------------

_BELL_DEFAULTS = {
    "angles": [0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0],
    "n_samples": 100_000,
    "models": ["sign-cosine", "narrow-window", "double-frequency"],
    "n_random_settings": 5,
    "mc_sigmas": 5.0,
    "quantum_tolerance": 1e-10,
    "lhv_tolerance": 1e-6,
}


def run_bell(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    cfg = _merge(_BELL_DEFAULTS, config, "bell")
    if not cfg["models"]:
        raise ValueError("bell needs at least one hidden-variable model")
    if len(cfg["angles"]) != 4:
        raise ValueError(f"bell needs four angles, got {len(cfg['angles'])}")
    report = SuiteReport("bell", seed=seed, config=cfg, tool_version=__version__)
    check, _ = _checks(report, tolerance_scale)
    rng = np.random.default_rng(seed)
    settings = epr_bell.CHSHSettings(*[float(a) for a in cfg["angles"]])

    optimal = epr_bell.CHSHSettings()
    check("chsh-quantum-optimal", "|S| at the canonical settings equals 2*sqrt(2)",
          abs(abs(epr_bell.chsh_quantum(optimal)) - epr_bell.QUANTUM_BOUND), "quantum_tolerance")
    s_quantum = epr_bell.chsh_quantum(settings)
    check("chsh-quantum-tsirelson", "|S| at the configured settings stays within 2*sqrt(2)",
          max(0.0, abs(s_quantum) - epr_bell.QUANTUM_BOUND), "quantum_tolerance",
          {"S_quantum": s_quantum})
    grid = np.linspace(0.0, 2.0 * math.pi, 13)
    cosine_worst = max(
        abs(epr_bell.correlation_quantum(a, b) + math.cos(a - b)) for a in grid for b in grid
    )
    check("correlation-cosine-law", "singlet correlation E(a,b) equals -cos(a-b)",
          cosine_worst, "quantum_tolerance")
    rotated = (
        epr_bell.CHSHSettings(*(angle + delta for angle in settings.as_tuple()))
        for delta in np.linspace(0.0, 2.0 * math.pi, 7)
    )
    check("chsh-rotation-invariance", "a common analyzer offset leaves S unchanged",
          max(abs(epr_bell.chsh_quantum(r) - s_quantum) for r in rotated), "quantum_tolerance")

    trial_settings = [settings, optimal]
    for _ in range(int(cfg["n_random_settings"])):
        trial_settings.append(
            epr_bell.CHSHSettings(*rng.uniform(0.0, 2.0 * math.pi, size=4).tolist())
        )
    first = None
    for name in cfg["models"]:
        model = epr_bell.SHIPPED_LHV_MODELS[name]()
        exact_worst = max(abs(epr_bell.chsh_lhv_exact(model, s)) for s in trial_settings)
        check(f"lhv-classical-bound-{name}",
              "exact hidden-variable CHSH magnitude stays within the classical bound 2",
              max(0.0, exact_worst - epr_bell.CLASSICAL_BOUND), "lhv_tolerance",
              {"worst_magnitude": exact_worst})
        estimate = epr_bell.chsh_lhv(model, settings, int(cfg["n_samples"]), seed)
        if first is None:
            first = (model, estimate)
        exact_here = epr_bell.chsh_lhv_exact(model, settings)
        check(f"lhv-sampling-consistency-{name}",
              "the seeded Monte-Carlo CHSH estimate agrees with exact arc "
              "integration within the sampling error",
              abs(estimate.s_value - exact_here), float(cfg["mc_sigmas"]) * estimate.stderr,
              {
                  "S_sampled": estimate.s_value,
                  "S_exact": exact_here,
                  "stderr": estimate.stderr,
                  "n_samples": estimate.n_samples,
              })

    check("lhv-sign-cosine-saturation",
          "the hemisphere model saturates (does not exceed) the classical bound "
          "at the canonical settings",
          abs(abs(epr_bell.chsh_lhv_exact(epr_bell.sign_cosine_model(), optimal)) - 2.0), 1e-9)
    doc = epr_bell.bell_report(settings, *first)
    required = {"S_quantum", "S_lhv", "stderr_lhv", "bound_classical", "bound_quantum", "verdict"}
    check("bell-report-schema", "the side-by-side record carries every documented field",
          required <= set(doc), detail=doc)
    return report


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

SUITE_RUNNERS = {
    "axioms": run_axioms,
    "symmetry": run_symmetry,
    "dynamics": run_dynamics,
    "charge": run_charge,
    "epr": run_epr,
    "bell": run_bell,
}


def run_suite(name: str, config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    runner = SUITE_RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}")
    return runner(config, seed=seed, tolerance_scale=tolerance_scale)


def run_all(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> list[SuiteReport]:
    config = config or {}
    return [
        SUITE_RUNNERS[name](config.get(name), seed=seed, tolerance_scale=tolerance_scale)
        for name in ("axioms", "symmetry", "dynamics", "charge", "epr", "bell")
    ]
