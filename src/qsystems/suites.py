"""Verification suites behind the command-line subcommands.

:func:`run_suite` merges one config section over its suite's defaults, and
:func:`run_all` merges every section before the first suite runs; either way
each section is merged once.  A suite's body, ``run_<suite>``, then builds its
fixtures from the seeded generator, measures each law at a pinned tolerance
(scaled by ``tolerance_scale`` for exploratory runs), and records it in the
:class:`~qsystems.report.SuiteReport` that :func:`_run` returns.  Each check is
one call to the ``check`` made by :func:`_checks`, which applies the one
verdict policy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, replace

import numpy as np

from . import __version__, charge, dynamics, epr_bell, galilei, mereology, symmetry
from .grids import MIN_SITES, GridSpec, wrap_displacement
from .hilbert import Operator, SpaceSpec, StateVector, basis_state, connected_sets, lift, pauli_matrices
from .report import CheckRecord, SuiteReport

__all__ = ["SUITE_RUNNERS", "run_suite", "run_all"]

# Config keys whose number must be positive.
_POSITIVE_NUMBERS = {
    "axioms.grid_length",
    "dynamics.relative.length",
    "dynamics.relative.well_width",
    "dynamics.evolution.t_final",
    "epr.length",
    "epr.width",
}

# The pair envelope, wrapped on the periodic box, is cut at the seam L/2 - |a|
# from its centre; the pair checks read 25-65 times its amplitude there, so
# at this bound ``commuting-pair`` stays below 1e-11, against its 1e-10.
_SEAM_AMPLITUDE = 1e-13

# Integer size and count keys, each mapped to its (least, most) value.  A count
# of 0 would pass a check over no samples, and a huge one would never finish;
# each most value is at least ten times the largest value the shipped configs
# use.  A least value above 1 is the sites a grid needs, or the samples per
# correlation that the Monte Carlo's normal error bar needs.
_COUNT_RANGES = {
    "axioms.mereology_instances": (1, 1_000_000),
    # The band-limited grid checks of the shipped axioms config pass on seeds
    # 0-9 from 49 sites; at 48 they read 6.8 times their tolerance.
    "axioms.grid_sites": (49, 4096),
    "axioms.n_test_states": (1, 1000),
    "symmetry.n_random": (1, 1000),
    "dynamics.relative.n_sites": (MIN_SITES, 2048),
    "dynamics.evolution.n_steps": (1, 100_000),
    "dynamics.weak_coupling.n_sites": (MIN_SITES, 256),
    # momentum-conservation of the shipped dynamics config first passes on
    # seeds 0-9 at 51 sites, and at every size up to 300; at 50 it reads 1.4
    # times its tolerance.
    "dynamics.momentum.n_sites": (51, 4096),
    "charge.n_observables": (1, 100),
    "charge.n_phases": (1, 1000),
    # A width of at least two spacings, 2L/n, whose envelope stays below
    # _SEAM_AMPLITUDE on the seam even at zero separation, w <= L / (4
    # sqrt(ln(1 / _SEAM_AMPLITUDE))), needs n >= 44, whatever the box.
    "epr.n_sites": (math.ceil(8.0 * math.sqrt(math.log(1.0 / _SEAM_AMPLITUDE))), 16_384),
    "epr.n_inference": (1, 1000),
    "bell.n_samples": (epr_bell.MIN_LHV_SAMPLES, 10_000_000),
    "bell.n_random_settings": (1, 1000),
}

# An individual is one uint64 mask, one bit per distinct atom of the pool.
_POOL_ATOMS_BOUND = 64

# Each ``axioms.spin_values`` entry j builds dense (2j+1)-dimensional images;
# j is bounded at ten times the largest shipped value, 1.5.
_SPIN_BOUND = 15

# exp(2 pi i q) is the identity up to a roundoff of about 2 pi |q| ulp, so at
# this bound on |q| gauge-period reads near 1e-12, against its 1e-10.
_CHARGE_BOUND = 1000

# Each ``symmetry.cases`` entry [n, d] builds d^n x d^n projectors by n(n - 1)/2
# row gathers.  d^n and n! * d^n, the group action's size, are bounded at ten times
# the largest shipped case, [4, 4] and [7, 2]; at d >= 2 the second keeps n <= 7.
_CASE_DIM_BOUND = 2560
_CASE_INDEX_BOUND = 6_451_200

# List keys whose every entry adds its own check ids, each by the label here;
# a repeated label would write two records under one id.
_ID_LABELS = {
    "axioms.spin_values": lambda j: f"{j:g}",
    "symmetry.cases": lambda case: f"n{case[0]}-d{case[1]}",
    "bell.models": str,
}

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


def _check_value(path: str, value) -> None:
    """Raise ValueError, naming ``path``, unless ``value`` keeps its key's rule."""
    if path in _POSITIVE_NUMBERS and not value > 0:
        raise ValueError(f"{path} must be positive")
    if path in _COUNT_RANGES:
        least, most = _COUNT_RANGES[path]
        if value < least:
            raise ValueError(f"{path} must be at least {least}")
        if value > most:
            raise ValueError(f"{path} must be at most {most}")
    if path in ("symmetry.cases", "bell.models") and not value:
        raise ValueError(f"{path} must not be empty")
    if path == "symmetry.cases":
        for i, case in enumerate(value):
            # At d = 1, rank(S) + rank(A) = 1 = d^n for every n, against the
            # law that equality holds exactly when n = 2.
            if len(case) != 2 or case[0] < 2 or case[1] < 2:
                raise ValueError(f"{path}[{i}] must be [n, d] with n >= 2 and d >= 2, got {case}")
            n, d = case
            if max(n, d) > _CASE_DIM_BOUND or d ** n > _CASE_DIM_BOUND:
                raise ValueError(
                    f"{path}[{i}] must have n, d and d^n at most {_CASE_DIM_BOUND}, got {case}"
                )
            if math.factorial(n) * d ** n > _CASE_INDEX_BOUND:
                raise ValueError(
                    f"{path}[{i}] must have n! * d^n at most {_CASE_INDEX_BOUND}, got {case}"
                )
    if path == "bell.models":
        for i, name in enumerate(value):
            if name not in epr_bell.SHIPPED_LHV_MODELS:
                raise ValueError(
                    f"{path}[{i}] must be one of {', '.join(epr_bell.SHIPPED_LHV_MODELS)}, got {name!r}"
                )
    if path == "axioms.atom_pool" and len(set(value)) > _POOL_ATOMS_BOUND:
        raise ValueError(
            f"{path} must hold at most {_POOL_ATOMS_BOUND} distinct atoms, got {len(set(value))}"
        )
    if path == "bell.angles" and len(value) != 4:
        raise ValueError(f"{path} must hold four angles, got {len(value)}")
    if path == "charge.charges":
        # 0 labels the vacuum; 1 and 2 carry the relative-phase pair.
        missing = [q for q in (0, 1, 2) if q not in value]
        if missing:
            raise ValueError(f"{path} must contain 0, 1 and 2; missing {missing}")
        # The neutral sector must be one-dimensional (neutral-sector-unique).
        if value.count(0) > 1:
            raise ValueError(f"{path} must contain 0 exactly once, got it {value.count(0)} times")
        for i, q in enumerate(value):
            if abs(q) > _CHARGE_BOUND:
                raise ValueError(f"{path}[{i}] must be at most {_CHARGE_BOUND} in magnitude, got {q}")
    if path.endswith("masses") and (len(value) != 2 or not all(m > 0 for m in value)):
        raise ValueError(f"{path} must hold exactly two positive masses, got {value}")
    if path == "dynamics.weak_coupling.lambdas":
        # Linearity compares the slopes of the positive couplings: with fewer
        # than two there is no spread to measure.
        if any(lam < 0 for lam in value):
            raise ValueError(f"{path} must not hold a negative coupling, got {value}")
        if sum(lam > 0 for lam in value) < 2:
            raise ValueError(f"{path} must hold at least two positive couplings, got {value}")
    if path in _ID_LABELS:
        labels = [_ID_LABELS[path](entry) for entry in value]
        for i, label in enumerate(labels):
            first = labels.index(label)
            if first < i:
                raise ValueError(
                    f"{path}[{i}] repeats {path}[{first}]: both add the ids of {label!r}"
                )
    if path == "axioms.spin_values":
        for i, j in enumerate(value):
            two_j = 2 * j
            if abs(two_j - round(two_j)) > 1e-9 or not 1 <= round(two_j) <= 2 * _SPIN_BOUND:
                raise ValueError(
                    f"{path}[{i}] must be a positive half-integer of at most {_SPIN_BOUND}, got {j}"
                )


def _check_epr_geometry(section: dict) -> None:
    """Raise ValueError, naming the key, unless :class:`epr_bell.EPRConfig`
    accepts the merged ``epr`` section's widths and separation, the wide
    width exceeds the width, the pair envelope is negligible at the box seam,
    and the momentum mode is within the largest that the grid carries at the
    (narrower) width.  Each width is tried at zero separation, so that a
    failure names the key at fault."""
    grid = {"n_sites": section["n_sites"], "length": float(section["length"])}
    trials = {
        "width": {"width": float(section["width"]), "separation": 0.0},
        "wide_width": {"width": float(section["wide_width"]), "separation": 0.0},
        "separation": {"width": float(section["width"]), "separation": float(section["separation"])},
    }
    for key, geometry in trials.items():
        try:
            epr_bell.EPRConfig(**grid, **geometry)
        except ValueError as exc:
            raise ValueError(f"epr.{key}: {exc}") from None
    # momentum-narrowing compares the two envelopes: a wide one no wider than
    # the other would fail it whatever the code computes.
    if not section["wide_width"] > section["width"]:
        raise ValueError("epr.wide_width must exceed epr.width")
    width, separation = float(section["width"]), float(section["separation"])
    seam = math.exp(-(((grid["length"] / 2.0 - abs(separation)) / (2.0 * width)) ** 2))
    if seam > _SEAM_AMPLITUDE:
        raise ValueError(
            f"epr.width {width:g} and epr.separation {separation:g} leave the pair envelope "
            f"at {seam:.1e} of its peak on the box seam, above {_SEAM_AMPLITUDE:g}"
        )
    # Past this mode the pair state's momentum spread aliases across the
    # band edge, and the momentum checks fail whatever the code computes.
    largest = epr_bell._largest_momentum_mode(epr_bell.EPRConfig(**grid, width=width))
    if abs(section["momentum_mode"]) > largest:
        raise ValueError(
            f"epr.momentum_mode must be at most {largest} in magnitude on {section['n_sites']} "
            f"sites at width {section['width']:g}, got {section['momentum_mode']}"
        )


def _merge(defaults: dict, override, path: str) -> dict:
    """``defaults`` updated by ``override`` at every depth.

    Raises ValueError, naming the dotted path, for an unknown key, for a
    value whose JSON type differs from its default's (an integer may stand
    for a number, and every element of a list must match the default's first),
    for a value that breaks its key's rule in :func:`_check_value`, or for an
    ``epr`` section that :func:`_check_epr_geometry` rejects.
    """
    if override is None:
        override = {}
    if not isinstance(override, dict):
        raise ValueError(f"{path} must be a JSON object")
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}"
        if key not in defaults:
            raise ValueError(f"unknown config key {where}")
        elif isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            _check_type(where, defaults[key], value)
            _check_value(where, value)
            out[key] = value
    if path == "epr":
        _check_epr_geometry(out)
    return out


def _checks(report: SuiteReport, tolerance_scale: float):
    """The suite's one verdict policy, as the function ``check``.

    ``check(id, law, value, tolerance, detail)`` adds a record.  With a
    tolerance (a number fixed at the check, scaled by ``tolerance_scale``),
    ``value`` is one residual or a sequence of them, and the record holds
    their maximum, NaN included: it passes when that is at most the
    tolerance.  A residual or tolerance that is NaN or infinite fails and is
    marked ``non_finite``, and an empty sequence measured nothing, which
    raises ValueError.  With no tolerance, a count passes when it is 0 and a
    flag when it is true.
    """

    def check(check_id: str, law: str, value, tolerance=None, detail=None) -> None:
        if tolerance is None:
            if isinstance(value, (bool, np.bool_)):
                value = passed = bool(value)
            else:
                value = int(value)
                passed = value == 0
            report.add(CheckRecord(check_id, law, value, None, passed, detail))
            return
        residuals = np.asarray(value, dtype=np.float64)
        if residuals.size == 0:
            raise ValueError(f"{report.suite}/{check_id} measured nothing: no residual to compare")
        value, tolerance = float(np.max(residuals)), float(tolerance) * tolerance_scale
        finite = bool(np.all(np.isfinite(residuals))) and math.isfinite(tolerance)
        passed = finite and value <= tolerance
        report.add(CheckRecord(check_id, law, value, tolerance, passed, detail, not finite))

    return check


# --------------------------------------------------------------------------
# axioms
# --------------------------------------------------------------------------

_AXIOMS_DEFAULTS = {
    "mereology_instances": 10_000,
    "atom_pool": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "spin_values": [0.5, 1.0, 1.5],
    "grid_sites": 128,
    "grid_length": 16.0,
    "grid_masses": [1.0, 1.5],
    "n_test_states": 20,
}

# The spin images are small dense matrices, so their laws hold to roundoff.
_SPIN_TOL = 1e-12
# The grid laws hold on the band-limited, interior-localized subspace only up
# to the mask's truncation; the least grid size in _COUNT_RANGES is measured
# against this tolerance.
_GRID_TOL = 1e-6


# Pools of up to this many distinct atoms are checked over every triple of
# their finite model: 2**8 = 256 individuals index a uint8 table, and the
# screen settles the 256**3 triples in about 6 ms.  Larger pools are sampled.
_EXHAUSTIVE_MAX_ATOMS = 8
# Rows of x per block of (x, y, z) triples: every per-block temporary has
# 16 * 256**2 one-byte entries (1 MB) over an 8-atom pool.
_TRIPLE_BLOCK_ROWS = 16
# Sampled triples per draw: a block's largest temporary, its (3, block, atoms)
# membership keys, stays at 25 MB over a 64-atom pool.
_SAMPLE_BLOCK = 2 ** 14


def _mereology_is_exhaustive(pool: list[str]) -> bool:
    return len(set(pool)) <= _EXHAUSTIVE_MAX_ATOMS


def _triples_cannot_fail(assoc: np.ndarray, part: np.ndarray, generators: list[int]) -> bool:
    """True only when ``assoc`` is associative and ``part`` transitive, shown
    from the ``generators`` without visiting every triple; False when the
    screen cannot show it, and every triple must be visited.

    Light's test: when the generators generate the whole table, it is
    associative exactly when ``(x g) y == x (g y)`` for every generator g and
    every x and y (Clifford and Preston, *The Algebraic Theory of Semigroups*
    I, 1961, section 1.2).  Generation is shown by the left-normed closure
    ``x g``, a subset of what the generators generate.  Transitivity is
    ``P.P <= P``, with the rows of P packed into bits and OR-reduced, so no
    float product is formed.
    """
    reached = np.zeros(len(assoc), dtype=bool)
    reached[generators] = True
    size = 0
    while size < np.count_nonzero(reached):
        size = np.count_nonzero(reached)
        reached[assoc[reached][:, generators]] = True
    if not reached.all():
        return False
    if not np.array_equal(assoc[assoc[:, generators]], assoc[:, assoc[generators]]):
        return False
    rows = np.packbits(part, axis=1)
    reach_in_two = np.bitwise_or.reduce(
        np.broadcast_to(rows, (len(part), *rows.shape)), axis=1, where=part[:, :, None]
    )
    return bool(np.array_equal(reach_in_two | rows, rows))


def _triple_failures(assoc: np.ndarray, part: np.ndarray, pair_bad: np.ndarray) -> int:
    """Triples (x, y, z) whose pair (x, y) is sound but that break
    associativity or the transitivity of parthood, in blocks of
    ``_TRIPLE_BLOCK_ROWS`` rows of x."""
    failures = 0
    for start in range(0, len(assoc), _TRIPLE_BLOCK_ROWS):
        rows = slice(start, start + _TRIPLE_BLOCK_ROWS)
        triple_bad = assoc[assoc[rows]] != assoc[rows][:, assoc]  # (x|y)|z vs x|(y|z)
        triple_bad |= part[rows, :, None] & part[None, :, :] & ~part[rows, None, :]
        triple_bad &= ~pair_bad[rows, :, None]
        failures += int(np.count_nonzero(triple_bad))
    return failures


def _exhaustive_law_failures(pool: list[str]) -> int:
    """Failing triples over the whole finite model of ``pool``.

    The individuals are the masks 0 .. 2**k - 1 over the pool's k distinct
    atoms, so each is its own table index.  The association and parthood
    tables come from one library call each, on the column ``ids[:, None]``
    and the row ``ids[None, :]``; numpy then checks every law on them.  A
    triple (x, y, z) fails when a law instantiated at x, at (x, y) or at
    (x, y, z) fails.  An association outside the model (a code of 2**k or
    more) fails every triple that starts with its pair.

    The triple laws are screened first by :func:`_triples_cannot_fail`, with
    the null and the singleton individuals as generators.  When the screen
    holds, no triple law fails and the count is that of the pairs; otherwise
    :func:`_triple_failures` visits every triple.  Either way the count is
    the one the triple pass alone would give.
    """
    k = len(set(pool))
    ids = mereology.composition((1 << k) - 1)
    n = len(ids)
    codes = mereology.associate(ids[:, None], ids[None, :])
    part = np.asarray(mereology.is_part_of(ids[:, None], ids[None, :]), dtype=bool)
    closed = codes < n
    assoc = np.where(closed, codes, 0).astype(np.uint8)

    unary_bad = (assoc[ids, ids] != ids) | (assoc[:, mereology.NULL] != ids) | ~part[ids, ids]
    pair_bad = (
        ~closed
        | (assoc != assoc.T)
        | ~part[ids[:, None], assoc]
        | (part & part.T & (ids[:, None] != ids[None, :]))
        | unary_bad[:, None]
    )
    failures = n * int(np.count_nonzero(pair_bad))
    generators = [0] + [1 << i for i in range(k)]
    if _triples_cannot_fail(assoc, part, generators):
        return failures
    return failures + _triple_failures(assoc, part, pair_bad)


def _sampled_law_failures(rng: np.random.Generator, atoms: int, instances: int) -> int:
    """Failing triples among ``instances`` random (x, y, z) over a pool of
    ``atoms`` distinct atoms, drawn from ``rng`` in blocks of
    ``_SAMPLE_BLOCK``.

    An atom belongs to an individual when its uniform key falls below the
    individual's uniform threshold t.  Given t the size is binomial(atoms, t),
    so over t it is uniform in 0 .. atoms, and given the size every set of
    atoms is equally likely.  Every law is one array expression over the
    block.
    """
    assoc, part = mereology.associate, mereology.is_part_of
    weights = np.uint64(1) << np.arange(atoms, dtype=np.uint64)
    failures = 0
    for start in range(0, instances, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, instances - start)
        members = rng.random((3, count, atoms)) < rng.random((3, count, 1))
        x, y, z = members @ weights
        # Antisymmetry, exercised on a guaranteed two-way pair half the time.
        w = np.where(rng.integers(0, 2, size=count) == 1, assoc(x, y), x)
        ok = (
            (assoc(assoc(x, y), z) == assoc(x, assoc(y, z)))
            & (assoc(x, y) == assoc(y, x))
            & (assoc(x, x) == x)
            & (assoc(x, mereology.NULL) == x)
            & part(x, x)
            & part(x, assoc(x, y))
            & part(x, assoc(assoc(x, y), z))
            & ~(part(x, y) & part(y, x) & (x != y))
            & ~(part(x, w) & part(w, x) & (w != x))
        )
        failures += count - int(np.count_nonzero(ok))
    return failures


def _mereology_law_failures(rng: np.random.Generator, pool: list[str], instances: int) -> int:
    """Failing (x, y, z) triples of the monoid and partial-order laws.

    Pools of at most ``_EXHAUSTIVE_MAX_ATOMS`` distinct atoms are checked over
    every triple and draw nothing from ``rng``; larger pools are checked on
    ``instances`` random triples drawn from ``rng``.
    """
    if _mereology_is_exhaustive(pool):
        return _exhaustive_law_failures(pool)
    return _sampled_law_failures(rng, len(set(pool)), instances)


def _law_residuals(detail: dict) -> list[float]:
    """The residual of every law of a bracket verification's detail."""
    return [law["residual"] for law in detail["checks"]]


def run_axioms(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    pool = list(cfg["atom_pool"])
    exhaustive = _mereology_is_exhaustive(pool)
    # The number of triples checked: every one of the finite model, or the samples.
    instances = (2 ** len(set(pool))) ** 3 if exhaustive else int(cfg["mereology_instances"])
    check("mereology-monoid-parthood",
          "association is a commutative idempotent monoid with neutral null; "
          "parthood is a partial order",
          _mereology_law_failures(rng, pool, instances),
          detail={"instances": instances, "exhaustive": exhaustive})

    antisymmetry_failures, jacobi_failures = galilei.verify_structure()
    check("algebra-antisymmetry",
          "[x,y] = -[y,x] over all 55 generator pairs (exact rational arithmetic)",
          len(antisymmetry_failures))
    check("algebra-jacobi", "[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 over all 165 triples (exact)",
          len(jacobi_failures))

    for j in cfg["spin_values"]:
        rep = galilei.build_spin_rep(j)
        rep.validate()
        brackets = galilei.verify_rep(rep)
        check(f"spin-brackets-j{j:g}",
              "rotation brackets [J_i,J_j] = ihbar*eps_ijk*J_k and centrality of M",
              _law_residuals(brackets), _SPIN_TOL, brackets)
        jv = float(j)
        expected = jv * (jv + 1.0) * np.eye(rep.space.total_dim)
        check(f"spin-casimir-j{j:g}", "J^2 = hbar^2 j(j+1) * identity",
              np.max(np.abs(galilei.casimir_squared(rep) - expected)), _SPIN_TOL)

    n_states = int(cfg["n_test_states"])
    n_sites, length = int(cfg["grid_sites"]), float(cfg["grid_length"])
    mass_a, mass_b = (float(m) for m in cfg["grid_masses"])
    rep_a = galilei.build_grid_rep(n_sites, length, mass_a)
    # Both parts live on one grid, so they share its band-limited mask.
    rep_b = galilei.build_grid_rep(n_sites, length, mass_b, mask=rep_a.mask)
    rep_a.validate()
    xp_residuals = galilei.position_momentum_residuals(rep_a, n_states=n_states, seed=seed)
    check("grid-position-momentum", "([X,P] - ihbar) applied to band-limited interior states",
          xp_residuals, _GRID_TOL, {"n_states": n_states, "residuals": xp_residuals})
    brackets = galilei.verify_rep(rep_a)
    check("grid-brackets", "free-subalgebra brackets on the masked subspace",
          _law_residuals(brackets), _GRID_TOL, brackets)
    pair = galilei.verify_additive_grid_pair(rep_a, rep_b, n_states=n_states, seed=seed)
    check("additive-pair-relations",
          "two-particle additivity: total P, K, H, M relations and mixed "
          "total-vs-part brackets on masked product states",
          _law_residuals(pair), _GRID_TOL, pair)

    total = galilei.build_additive_rep(
        [galilei.build_spin_rep(0.5, mass=m) for m in (1.0, 1.5)]
    )
    check("additive-spin-mass", "total mass image is the sum of part masses",
          np.max(np.abs(total.image("M") - 2.5 * np.eye(4))), _SPIN_TOL)
    j3_eigs = np.sort(np.linalg.eigvalsh(total.image("J3")))
    check("additive-spin-j3-spectrum", "two spin-1/2 parts: total J3 spectrum {-hbar, 0, 0, +hbar}",
          np.max(np.abs(j3_eigs - np.array([-1.0, 0.0, 0.0, 1.0]))), _SPIN_TOL)


# --------------------------------------------------------------------------
# symmetry
# --------------------------------------------------------------------------

_SYMMETRY_DEFAULTS = {
    "cases": [[2, 2], [2, 3], [3, 2], [3, 3], [4, 2]],
    "n_random": 8,
}


def _sector_blocks(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S and A on the blocks that the exact zeros of both decouple (a NaN is
    nonzero), as a (2, blocks, m, m) stack zero-padded to the largest, m."""
    blocks = connected_sets((s != 0) | (a != 0))
    m = max(ix.size for ix in blocks)
    stack = np.zeros((2, len(blocks), m, m), dtype=np.result_type(s, a))
    for k, ix in enumerate(blocks):
        stack[:, k, :ix.size, :ix.size] = s[ix[:, None], ix], a[ix[:, None], ix]
    return stack


def run_symmetry(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    n_random = int(cfg["n_random"])

    idempotency = []
    overlaps = []
    rank_sum_ok = True
    rank_details = {}
    for n, d in cfg["cases"]:
        s, a = symmetry.build_projectors(n, d)
        s_blocks, a_blocks = _sector_blocks(s, a)  # padding adds only zero eigenvalues
        rank_s, rank_a = symmetry.projector_rank(s_blocks), symmetry.projector_rank(a_blocks)
        oracle_s, oracle_a = symmetry.count_symmetric_basis(n, d), symmetry.count_antisymmetric_basis(n, d)
        detail = rank_details[f"n{n}d{d}"] = {"rank_symmetric": rank_s, "rank_antisymmetric": rank_a,
                                              "enumerated_symmetric": oracle_s,
                                              "enumerated_antisymmetric": oracle_a}
        check(f"projector-ranks-n{n}-d{d}",
              "projector ranks equal brute-force basis enumeration counts",
              rank_s == oracle_s and rank_a == oracle_a, detail=detail)
        # Off the blocks every entry of these products is an exact zero.
        idempotency += [np.max(np.abs(s_blocks @ s_blocks - s_blocks)),
                        np.max(np.abs(a_blocks @ a_blocks - a_blocks)),
                        np.max(np.abs(s_blocks @ a_blocks)), np.max(np.abs(a_blocks @ s_blocks))]
        if n == 2:
            idempotency.append(np.max(np.abs(s + a - np.eye(s.shape[0]))))
        total = rank_s + rank_a
        if total > d ** n or (n == 2) != (total == d ** n):
            rank_sum_ok = False
        if rank_a >= 1 and rank_s >= 1:
            for _ in range(n_random):
                dim = s.shape[0]
                psi_s = s @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                psi_a = a @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                norm_s, norm_a = np.linalg.norm(psi_s), np.linalg.norm(psi_a)
                if norm_s <= 1e-9 or norm_a <= 1e-9:  # a vanishing projection; NaN is kept
                    continue
                overlaps.append(abs(np.vdot(psi_s / norm_s, psi_a / norm_a)))
    check("projector-idempotency-orthogonality",
          "S and A are idempotent, mutually orthogonal, and complete for n=2",
          idempotency, 1e-12)
    check("sector-orthogonality", "random symmetric and antisymmetric states are orthogonal",
          overlaps, 1e-12)
    check("sector-sum-dimension", "rank(S) + rank(A) <= d^n with equality exactly when n = 2",
          rank_sum_ok, detail=rank_details)

    homomorphism = []
    for n, d in ((3, 2), (4, 2)):
        space = SpaceSpec((d,) * n)
        for _ in range(n_random):
            p, q = rng.permutation(n), rng.permutation(n)
            u_pq = symmetry.permutation_operator(p[q], space).entries  # p after q
            u_p = symmetry.permutation_operator(p, space).entries
            u_q = symmetry.permutation_operator(q, space).entries
            homomorphism.append(np.max(np.abs(u_pq - u_p @ u_q)))
    check("permutation-homomorphism", "U(p.q) = U(p) U(q) over random permutation pairs",
          homomorphism, 1e-12)

    qubit = SpaceSpec.single(2)
    phi_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = StateVector(qubit, phi_raw).normalized()
    chi = StateVector(qubit, chi_raw).normalized()
    pair_norm = symmetry.pauli_exclusion_check([phi, phi])
    triple_norm = symmetry.pauli_exclusion_check([phi, phi, chi])
    check("pauli-exclusion-duplicates",
          "antisymmetrized products with a repeated single-component state vanish",
          [pair_norm, triple_norm], 1e-12,
          {"pair_norm": pair_norm, "triple_norm": triple_norm})
    slater_norm = symmetry.pauli_exclusion_check([basis_state(qubit, 0), basis_state(qubit, 1)])
    check("slater-survival", "antisymmetrized product of orthogonal states has norm 1/sqrt(2)",
          abs(slater_norm - 1.0 / math.sqrt(2.0)), 1e-12)

    two_spins = galilei.build_additive_rep([galilei.build_spin_rep(0.5)] * 2)
    j_square = Operator(SpaceSpec((2, 2)), galilei.casimir_squared(two_spins))
    swap = (1, 0)
    exchange = []
    for _ in range(n_random):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = StateVector(SpaceSpec((2, 2)), raw).normalized()
        exchange.append(symmetry.exchange_expectation_check(j_square, psi, swap))
    check("exchange-invariant-total-observable",
          "expectation of the total J^2 is unchanged under component exchange",
          exchange, 1e-10)
    sym_state = StateVector(SpaceSpec((2, 2)), np.array([0, 1, 1, 0]) / math.sqrt(2.0))
    _, _, sz = pauli_matrices()
    one_sided = lift(Operator(qubit, sz), 0, SpaceSpec((2, 2)))
    check("exchange-invariance-symmetric-state",
          "one-sided observable still balances on an exchange-symmetric state",
          symmetry.exchange_expectation_check(one_sided, sym_state, swap), 1e-10)


# --------------------------------------------------------------------------
# dynamics
# --------------------------------------------------------------------------

_DYNAMICS_DEFAULTS = {
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
}


def _gaussian_well_tables(length: float, depth: float, width: float, v2: float, v3: float):
    # Lattice distances between the nodes pick up the kinks of the linear
    # interpolant, which alias past the band and break momentum conservation.
    # With 4096 intervals every grid of 51 to 300 sites keeps that error below
    # its tolerance, and grids of 2^k sites, k <= 13, put every distance on a node.
    r = np.linspace(0.0, length / 2.0, 4097)
    shape = np.exp(-(r ** 2) / (2.0 * width ** 2))
    return dynamics.PotentialSpec(
        v=dynamics.RadialTable(r, -depth * shape),
        v2=dynamics.RadialTable(r, v2 * shape),
        v3=dynamics.RadialTable(r, v3 * shape),
    )


def run_dynamics(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    rel = cfg["relative"]
    length = float(rel["length"])
    pot = _gaussian_well_tables(
        length,
        float(rel["well_depth"]),
        float(rel["well_width"]),
        float(rel["v2_scale"]),
        float(rel["v3_scale"]),
    )
    h = dynamics.build_hamiltonian(GridSpec(int(rel["n_sites"]), length), rel["masses"], pot)
    check("hamiltonian-hermiticity", "kinetic + central + spin-spin Hamiltonian is hermitian",
          np.max(np.abs(h.entries - h.entries.conj().T)), 1e-12)

    # The spin operators that the Hamiltonian's spin-spin terms are built from.
    dot, tensor = dynamics.spin_pair_operators()
    eigs = np.sort(np.linalg.eigvalsh(dot))
    check("singlet-triplet-split", "s1.s2 spectrum: -3 hbar^2/4 once, +hbar^2/4 threefold",
          np.max(np.abs(eigs - np.array([-0.75, 0.25, 0.25, 0.25]))), 1e-12)
    sx, sy, sz = (0.5 * m for m in pauli_matrices())
    oracle_dot = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    oracle = np.sort(np.linalg.eigvalsh(3.0 * np.kron(sz, sz) - oracle_dot))
    check("tensor-term-spectrum", "3(s1.n)(s2.n) - s1.s2 spectrum matches the explicit 4x4 oracle",
          np.max(np.abs(np.sort(np.linalg.eigvalsh(tensor)) - oracle)), 1e-12)

    evo = cfg["evolution"]
    dim = h.space.total_dim
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 = StateVector(h.space, raw).normalized()
    result = dynamics.evolve(psi0, h, float(evo["t_final"]), int(evo["n_steps"]))
    check("evolution-norm-drift", "spectral propagation keeps the norm constant",
          result.norm_drift, 1e-10,
          {"times": result.times, "norms": result.norms, "energies": result.energies})
    check("evolution-energy-drift", "spectral propagation keeps the energy constant",
          result.energy_drift, 1e-9)

    weak = cfg["weak_coupling"]
    weak_grid = GridSpec(int(weak["n_sites"]), length)
    coupling = dynamics.weak_coupling_check(
        weak_grid, weak["masses"], pot, [float(v) for v in weak["lambdas"]], seed=seed
    )
    # A relative residual of two sums of the same terms in another order:
    # rounding only.
    check("weak-coupling-zero",
          "at zero coupling the product Hamiltonian acts on seeded vectors as the "
          "one-body kinetic terms applied along their own site axes",
          coupling["zero_coupling_residual"], 1e-12, coupling)
    check("weak-coupling-linearity", "deviation norm divided by the coupling is a single constant",
          coupling["linearity_spread"], 1e-6)

    check("exchange-symmetry", "[H, U_swap] vanishes for identical bodies",
          dynamics.exchange_symmetry_residual(weak_grid, 1.0, pot, seed), 1e-10)

    mom = cfg["momentum"]
    check("momentum-conservation",
          "[H, P_total] vanishes on masked states for separation-only potentials",
          dynamics.momentum_conservation_residual(
              GridSpec(int(mom["n_sites"]), length), mom["masses"], pot, seed=seed
          ), 1e-6)


# --------------------------------------------------------------------------
# charge
# --------------------------------------------------------------------------

_CHARGE_DEFAULTS = {
    "charges": [-1, 0, 1, 1, 2, 2],
    "n_observables": 3,
    "n_phases": 16,
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
        vacuum_index=vacuum_index,
    )


def run_charge(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    charges = cfg["charges"]
    model = _build_charge_model(charges, int(cfg["n_observables"]), rng)
    dim = model.space.total_dim

    central = charge.verify_central(model)
    check("central-commutators", "the charge commutes with every registered observable",
          central, 1e-10, {"residuals": central})
    period = charge.gauge_transform(model, 2.0 * math.pi)
    check("gauge-period", "integer spectrum makes exp(2*pi*i*Q) the identity",
          np.max(np.abs(period.entries - np.eye(dim))), 1e-10)
    moved = []
    for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        u = charge.gauge_transform(model, float(theta))
        for obs in model.observables:
            conj = u.entries.conj().T @ obs.entries @ u.entries
            moved.append(np.max(np.abs(conj - obs.entries)))
    check("gauge-invariance", "first-kind gauge conjugation fixes every registered observable",
          moved, 1e-10)

    decomp = charge.sector_decomposition(model)
    resolution = sum(s.projector for s in decomp.sectors) - np.eye(dim)
    overlaps = [
        np.max(np.abs(sa.projector @ sb.projector))
        for sa, sb in itertools.combinations(decomp.sectors, 2)
    ]
    check("sector-resolution", "charge sector projectors resolve the identity and are orthogonal",
          [np.max(np.abs(resolution)), *overlaps], 1e-12)
    check("neutral-sector-unique", "the charge-zero sector is one-dimensional",
          decomp.neutral_unique, detail=decomp.to_dict())
    check("superselection-offdiagonal",
          "registered observables have no matrix elements between sectors",
          decomp.offdiagonal_residual, 1e-12)
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
          spread, 1e-10)


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
}


def run_epr(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    n_inference = int(cfg["n_inference"])
    length = float(cfg["length"])
    pair_cfg = epr_bell.EPRConfig(
        n_sites=int(cfg["n_sites"]),
        length=length,
        separation=float(cfg["separation"]),
        momentum_mode=int(cfg["momentum_mode"]),
        width=float(cfg["width"]),
    )
    psi = epr_bell.build_epr_state(pair_cfg)
    check("state-normalized", "the regularized pair state is a unit vector",
          abs(psi.norm() - 1.0), 1e-10)

    sharp = epr_bell.commuting_pair_check(psi, pair_cfg)
    check("mean-separation", "the relative position averages to the configured separation",
          abs(sharp.mean_relative_position - pair_cfg.separation), 1e-6,
          asdict(sharp))
    check("mean-total-momentum",
          "the total momentum averages to 4pi/L * epr.momentum_mode, L = epr.length",
          abs(sharp.mean_total_momentum - pair_cfg.total_momentum), 1e-6)
    check("commuting-pair", "relative position and total momentum commute on the pair state",
          sharp.commutator_state_residual, 1e-10)
    check("shift-commutator", "relative position commutes exactly with simultaneous translation",
          sharp.shift_commutator_residual, 1e-14)
    width_sq = pair_cfg.width ** 2
    check("variance-relative-position",
          "relative-position variance equals the regularization width squared",
          abs(sharp.var_relative_position - width_sq) / width_sq, 0.05)
    check("total-momentum-sharp",
          "the pair state is an exact eigenvector of the total momentum "
          "(variance at roundoff level)",
          sharp.var_total_momentum, 1e-20)
    wide_cfg = replace(pair_cfg, width=float(cfg["wide_width"]))
    *_, wide_var_relative_momentum = epr_bell.momentum_moments(
        epr_bell.build_epr_state(wide_cfg), wide_cfg
    )
    check("momentum-narrowing",
          "a wider separation envelope narrows the conjugate relative-momentum "
          "spread (order hbar^2 / 4 w^2)",
          wide_var_relative_momentum < sharp.var_relative_momentum,
          detail={
              "var_relative_momentum_narrow_envelope": sharp.var_relative_momentum,
              "var_relative_momentum_wide_envelope": wide_var_relative_momentum,
              "reciprocal_prediction_narrow": 1.0 / (4.0 * pair_cfg.width ** 2),
              "reciprocal_prediction_wide": 1.0 / (4.0 * wide_cfg.width ** 2),
          })

    spacing = pair_cfg.grid.spacing
    mode_errors = []
    width_errors = []
    for _ in range(n_inference):
        a = float(rng.uniform(-length / 4.0, length / 4.0))
        x1 = float(rng.uniform(-length / 8.0, length / 8.0))
        case = replace(pair_cfg, separation=a)
        conditional = epr_bell.conditional_inference(case, x1)
        target = float(wrap_displacement(np.array([x1 - a]), length)[0])
        mode_errors.append(abs(wrap_displacement(np.array([conditional.mode - target]), length)[0]))
        width_errors.append(abs(conditional.width - case.width) / case.width)
    check("conditional-inference-mode",
          "reading one position pins the partner at the measured value minus "
          "the separation, within one grid spacing",
          mode_errors, spacing + 1e-9, {"n_cases": n_inference, "grid_spacing": spacing})
    check("conditional-inference-width",
          "the conditional distribution's width matches the regularization width",
          width_errors, 0.2)


# --------------------------------------------------------------------------
# bell
# --------------------------------------------------------------------------

_BELL_DEFAULTS = {
    "angles": [0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0],
    "n_samples": 100_000,
    "models": ["sign-cosine", "narrow-window", "double-frequency"],
    "n_random_settings": 5,
}


def run_bell(cfg: dict, check, rng: np.random.Generator, seed: int) -> None:
    # Each configured angle is read mod 2 pi, once, by every path below: an
    # angle far past 2 pi would otherwise round differently in each sum of an
    # angle and an offset (the jump tables against the arcs, a rotation
    # against its setting).  An angle in [0, 2 pi) is unchanged.
    angles = np.mod(np.array(cfg["angles"], dtype=float), 2.0 * math.pi)
    settings = epr_bell.CHSHSettings(*angles.tolist())

    optimal = epr_bell.CHSHSettings()
    check("chsh-quantum-optimal", "|S| at the canonical settings equals 2*sqrt(2)",
          abs(abs(epr_bell.chsh_quantum(optimal)) - epr_bell.QUANTUM_BOUND), 1e-10)
    s_quantum = epr_bell.chsh_quantum(settings)
    check("chsh-quantum-tsirelson", "|S| at the configured settings stays within 2*sqrt(2)",
          np.maximum(abs(s_quantum) - epr_bell.QUANTUM_BOUND, 0.0), 1e-10,
          {"S_quantum": s_quantum})
    grid = np.linspace(0.0, 2.0 * math.pi, 13)
    a, b = grid[:, None], grid[None, :]
    check("correlation-cosine-law", "singlet correlation E(a,b) equals -cos(a-b)",
          np.abs(epr_bell.correlation_quantum(a, b) + np.cos(a - b)), 1e-10)
    # The four terms' A and B angles at seven common offsets, (7, 2, 4).
    rotated = np.array(settings.terms()) + np.linspace(0.0, 2.0 * math.pi, 7)[:, None, None]
    s_rotated = epr_bell._chsh_sum(epr_bell.correlation_quantum(rotated[:, 0], rotated[:, 1]).T)
    check("chsh-rotation-invariance", "a common analyzer offset leaves S unchanged",
          np.abs(s_rotated - s_quantum), 1e-10)

    # The terms of every trial setting, (trials, 2, 4): the configured, the
    # canonical and the random ones.  Each model integrates them all in one
    # call, and the saturation check reads the hemisphere model's canonical row.
    random_settings = rng.uniform(0.0, 2.0 * math.pi, size=(int(cfg["n_random_settings"]), 4)).tolist()
    trials = [settings, optimal, *(epr_bell.CHSHSettings(*angles) for angles in random_settings)]
    terms = np.array([trial.terms() for trial in trials])
    models = {name: epr_bell.SHIPPED_LHV_MODELS[name]()
              for name in dict.fromkeys([*cfg["models"], "sign-cosine"])}
    exact = {name: epr_bell.correlation_lhv_exact(model, terms[:, 0], terms[:, 1])
             for name, model in models.items()}
    # One draw of the hidden variable serves every configured model.
    estimates = epr_bell.chsh_lhv([models[name] for name in cfg["models"]], settings,
                                  int(cfg["n_samples"]), seed)
    for name, estimate in zip(cfg["models"], estimates):
        magnitudes = np.abs(epr_bell._chsh_sum(exact[name].T))
        check(f"lhv-classical-bound-{name}",
              "exact hidden-variable CHSH magnitude stays within the classical bound 2",
              np.maximum(magnitudes - epr_bell.CLASSICAL_BOUND, 0.0), 1e-6,
              {"worst_magnitude": np.max(magnitudes)})
        # Term by term, since the errors of a misplaced jump can cancel in S.
        # A correlation lies in [-1, 1], which an arc sum can round past; its
        # binomial standard error is zero only at +-1, where any sampled
        # difference is a failure.  The tolerance, 5, counts standard errors.
        configured = np.clip(exact[name][0], -1.0, 1.0)
        deviation = np.abs(np.array(estimate.correlations) - configured)
        spread = np.sqrt((1.0 - configured ** 2) / estimate.n_samples)
        z_scores = np.divide(deviation, spread, out=np.where(deviation > 0.0, np.inf, 0.0),
                             where=spread > 0.0)
        check(f"lhv-sampling-consistency-{name}",
              "each seeded Monte-Carlo correlation of S agrees with its exact arc "
              "integral within 5 standard errors",
              z_scores, 5.0,
              {
                  "correlations_sampled": estimate.correlations,
                  "correlations_exact": configured,
                  "z_scores": z_scores,
                  "n_samples": estimate.n_samples,
              })

    check("lhv-sign-cosine-saturation",
          "the hemisphere model saturates (does not exceed) the classical bound "
          "at the canonical settings",
          abs(abs(epr_bell._chsh_sum(exact["sign-cosine"][1])) - 2.0), 1e-9)
    doc = epr_bell.bell_report(settings, models[cfg["models"][0]], estimates[0])
    required = {"S_quantum", "S_lhv", "stderr_lhv", "bound_classical", "bound_quantum", "verdict"}
    check("bell-report-schema", "the side-by-side record carries every documented field",
          required <= set(doc), detail=doc)


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

# Each suite's body, which :func:`_run` calls as ``runner(cfg, check, rng, seed)``.
SUITE_RUNNERS = {
    "axioms": run_axioms,
    "symmetry": run_symmetry,
    "dynamics": run_dynamics,
    "charge": run_charge,
    "epr": run_epr,
    "bell": run_bell,
}


_DEFAULTS = dict(axioms=_AXIOMS_DEFAULTS, symmetry=_SYMMETRY_DEFAULTS, dynamics=_DYNAMICS_DEFAULTS,
                 charge=_CHARGE_DEFAULTS, epr=_EPR_DEFAULTS, bell=_BELL_DEFAULTS)


def _run(name: str, cfg: dict, seed: int, tolerance_scale: float) -> SuiteReport:
    """Run suite ``name`` on its merged section ``cfg``: its body, reached
    through ``SUITE_RUNNERS``, gets the report's ``check`` and a generator
    seeded with ``seed``."""
    report = SuiteReport(name, seed=seed, config=cfg, tool_version=__version__)
    SUITE_RUNNERS[name](cfg, _checks(report, tolerance_scale), np.random.default_rng(seed), seed)
    return report


def run_suite(name: str, config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> SuiteReport:
    if name not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    return _run(name, _merge(_DEFAULTS[name], config, name), seed, tolerance_scale)


def _check_sections(config) -> None:
    """Raise ValueError unless ``config`` is a JSON object of suite sections,
    each a JSON object."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for name, section in config.items():
        if name not in SUITE_RUNNERS:
            raise ValueError(f"unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"section {name!r} must be a JSON object")


def run_all(config: dict | None = None, seed: int = 0, tolerance_scale: float = 1.0) -> list[SuiteReport]:
    config = {} if config is None else config
    _check_sections(config)
    # Every section is merged, and so validated, before any suite runs.
    sections = {name: _merge(_DEFAULTS[name], config.get(name), name) for name in SUITE_RUNNERS}
    return [_run(name, section, seed, tolerance_scale) for name, section in sections.items()]
