"""N-body Hamiltonians with central and spin-spin interactions, unitary
evolution, and the weak-coupling additivity check.

Two-body spatial problems are posed in the relative coordinate on a single
periodic grid (center of mass dropped); the full product-space construction
is also available, mainly so that the zero-coupling Hamiltonian can be
compared exactly against the sum of lifted one-body Hamiltonians.  The
momentum-conservation check draws masked product states and applies the
two-body operators leg by leg with the :mod:`qsystems.grids` machinery that
the additive Galilei pair uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grids
from .grids import GridSpec
from .hilbert import Operator, SpaceSpec, StateVector, eigh_phase_fixed, pauli_matrices

__all__ = [
    "RadialTable",
    "PotentialSpec",
    "BodyConfig",
    "build_hamiltonian",
    "build_product_hamiltonian",
    "spin_pair_operators",
    "EvolutionResult",
    "evolve",
    "weak_coupling_check",
    "exchange_symmetry_residual",
    "momentum_conservation_residual",
]

HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class RadialTable:
    """Sampled real radial function, linearly interpolated between samples."""

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        v = np.asarray(self.values)
        if np.iscomplexobj(v) and np.max(np.abs(v.imag)) > 0:
            raise ValueError("potential tables must be real-valued")
        v = v.real.astype(np.float64)
        if r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0):
            raise ValueError("radial samples must be a strictly increasing 1-d array")
        if v.shape != r.shape:
            raise ValueError("radial samples and values must have equal length")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float, r_max: float = 1.0) -> "RadialTable":
        return cls(np.array([0.0, r_max]), np.array([value, value]))

    def __call__(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=np.float64), self.r, self.values)


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potentials: central v, plus the spin-channel triple v1, v2, v3.

    ``v1`` shifts the spin potential, ``v2`` multiplies s1.s2, ``v3``
    multiplies the tensor combination 3(s1.n)(s2.n) - s1.s2.  Missing tables
    mean zero.
    """

    v: RadialTable | None = None
    v1: RadialTable | None = None
    v2: RadialTable | None = None
    v3: RadialTable | None = None

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls()

    @classmethod
    def from_constants(cls, v=0.0, v1=0.0, v2=0.0, v3=0.0, r_max: float = 1.0) -> "PotentialSpec":
        def table(c):
            return None if c == 0.0 else RadialTable.constant(float(c), r_max)

        return cls(v=table(v), v1=table(v1), v2=table(v2), v3=table(v3))

    @classmethod
    def from_config(cls, doc: dict, r_max: float = 1.0) -> "PotentialSpec":
        """Build from a config mapping; entries are constants or {r, values}
        with numeric arrays.  Anything else raises ValueError."""
        keys = ("v", "v1", "v2", "v3")
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ValueError(f"unknown potential entries {unknown}; expected {list(keys)}")
        tables = dict.fromkeys(keys)
        for key, entry in doc.items():
            if entry is None:
                continue
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                table = RadialTable.constant(float(entry), r_max)
            elif isinstance(entry, dict) and set(entry) == {"r", "values"}:
                r, values = np.asarray(entry["r"]), np.asarray(entry["values"])
                if not all(np.issubdtype(a.dtype, np.number) for a in (r, values)):
                    raise ValueError(f"potential entry {key!r} needs numeric r and values")
                table = RadialTable(r, values)
            else:
                raise ValueError(f"potential entry {key!r} must be a number or {{r, values}}")
            if not (np.all(np.isfinite(table.r)) and np.all(np.isfinite(table.values))):
                raise ValueError(f"potential entry {key!r} must be finite")
            tables[key] = table
        return cls(**tables)

    @property
    def has_spin_terms(self) -> bool:
        return any(t is not None for t in (self.v1, self.v2, self.v3))

    def sample(self, table: RadialTable | None, r: np.ndarray) -> np.ndarray:
        if table is None:
            return np.zeros_like(np.asarray(r, dtype=np.float64))
        return table(r)


@dataclass(frozen=True)
class BodyConfig:
    """How many bodies, their masses, whether they carry spin 1/2, the grid."""

    n_bodies: int
    masses: tuple[float, ...]
    spin_half: bool = False
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.n_bodies not in (1, 2):
            raise ValueError("only one- and two-body configurations are supported")
        if len(self.masses) != self.n_bodies:
            raise ValueError("need one mass per body")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if self.grid is None and self.n_bodies == 1:
            raise ValueError("a single body needs a grid")


def spin_pair_operators(hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(s1.s2, 3*s1z*s2z - s1.s2) on the two-spin space, as 4x4 arrays.

    The spatial axis is identified with the spin z axis, so along a single
    spatial dimension the tensor combination reduces to the z form (the unit
    separation vector enters squared).
    """
    sx, sy, sz = (0.5 * hbar * m for m in pauli_matrices())
    dot = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    tensor = 3.0 * np.kron(sz, sz) - dot
    return dot, tensor


def _spin_blocks(pot: PotentialSpec, r_values: np.ndarray, hbar: float) -> np.ndarray:
    """4x4 spin interaction at each separation, stacked as (len(r), 4, 4)."""
    dot, tensor = spin_pair_operators(hbar)
    eye_spin = np.eye(4, dtype=np.complex128)

    def channel(table: RadialTable | None, op: np.ndarray) -> np.ndarray:
        return pot.sample(table, r_values)[:, None, None] * op

    return channel(pot.v1, eye_spin) + channel(pot.v2, dot) + channel(pot.v3, tensor)


def _spin_lift(spatial: np.ndarray, blocks: np.ndarray | None = None) -> np.ndarray:
    """kron(spatial, I4) plus 4x4 ``blocks`` on the spatial diagonal, on
    (spatial x spin x spin), assembled blockwise in one array."""
    m = spatial.shape[0]
    out = np.zeros((m, 4, m, 4), dtype=np.complex128)
    for s in range(4):
        out[:, s, :, s] = spatial
    if blocks is not None:
        sites = np.arange(m)
        out[sites, :, sites, :] += blocks
    return out.reshape(4 * m, 4 * m)


def _require_spin_consistency(cfg: BodyConfig, pot: PotentialSpec) -> None:
    if pot.has_spin_terms and not cfg.spin_half:
        raise ValueError("spin-channel potentials given for spinless bodies")


def build_hamiltonian(cfg: BodyConfig, pot: PotentialSpec, hbar: float = 1.0) -> Operator:
    """Hermitian N-body Hamiltonian: kinetic + central + spin-spin terms.

    Layouts: one body on its grid (optionally times a passive spin factor);
    two bodies with a grid in the relative coordinate with reduced mass,
    space (n[, 2, 2]); two spin-1/2 bodies with no grid as the pure spin
    model, in which case all potential tables must be constant.
    """
    _require_spin_consistency(cfg, pot)
    if cfg.n_bodies == 1:
        if any(t is not None for t in (pot.v, pot.v1, pot.v2, pot.v3)):
            raise ValueError("pair potentials are meaningless for a single body")
        h = grids.kinetic_operator(cfg.grid, cfg.masses[0], hbar)
        if cfg.spin_half:
            return Operator(
                SpaceSpec((cfg.grid.n_sites, 2)), np.kron(h, np.eye(2, dtype=np.complex128))
            )
        return Operator(SpaceSpec.single(cfg.grid.n_sites), h)

    if cfg.grid is None:
        if not cfg.spin_half:
            raise ValueError("a gridless two-body model needs spin-1/2 bodies")
        constants = {}
        for key in ("v", "v1", "v2", "v3"):
            table = getattr(pot, key)
            if table is None:
                constants[key] = 0.0
            elif np.ptp(table.values) == 0.0:
                constants[key] = float(table.values[0])
            else:
                raise ValueError("gridless model requires constant potential tables")
        dot, tensor = spin_pair_operators(hbar)
        h = (
            (constants["v"] + constants["v1"]) * np.eye(4, dtype=np.complex128)
            + constants["v2"] * dot
            + constants["v3"] * tensor
        )
        return Operator(SpaceSpec((2, 2)), h)

    m1, m2 = cfg.masses
    mu = m1 * m2 / (m1 + m2)
    kinetic = grids.kinetic_operator(cfg.grid, mu, hbar)
    r = np.abs(grids.position_values(cfg.grid))
    central = np.diag(pot.sample(pot.v, r))
    if not cfg.spin_half:
        return Operator(SpaceSpec.single(cfg.grid.n_sites), kinetic + central)
    h = _spin_lift(kinetic + central, _spin_blocks(pot, r, hbar))
    return Operator(SpaceSpec((cfg.grid.n_sites, 2, 2)), h)


def _free_product_part(cfg: BodyConfig, hbar: float) -> np.ndarray:
    """Sum of the lifted one-body kinetic terms, kron(T1, I) + kron(I, T2),
    on the two-body product space (times I4 for spin), assembled blockwise."""
    n = cfg.grid.n_sites
    t1 = grids.kinetic_operator(cfg.grid, cfg.masses[0], hbar)
    t2 = grids.kinetic_operator(cfg.grid, cfg.masses[1], hbar)
    sites = np.arange(n)
    spatial = np.zeros((n, n, n, n), dtype=np.complex128)
    spatial[:, sites, :, sites] = t1
    spatial[sites, :, sites, :] += t2
    spatial = spatial.reshape(n * n, n * n)
    return _spin_lift(spatial) if cfg.spin_half else spatial


def _product_parts(cfg: BodyConfig, pot: PotentialSpec, hbar: float):
    """(kinetic, interaction) matrices on the two-body product space."""
    if cfg.n_bodies != 2 or cfg.grid is None:
        raise ValueError("product construction needs two bodies on a grid")
    _require_spin_consistency(cfg, pot)
    kinetic = _free_product_part(cfg, hbar)
    x = grids.position_values(cfg.grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], cfg.grid.length).reshape(-1)
    interaction = np.diag(pot.sample(pot.v, dist)).astype(np.complex128)
    if cfg.spin_half:
        interaction = _spin_lift(interaction, _spin_blocks(pot, dist, hbar))
    return kinetic, interaction


def _product_space(cfg: BodyConfig) -> SpaceSpec:
    n = cfg.grid.n_sites
    return SpaceSpec((n, n, 2, 2)) if cfg.spin_half else SpaceSpec((n, n))


def build_product_hamiltonian(cfg: BodyConfig, pot: PotentialSpec, hbar: float = 1.0) -> Operator:
    """Two-body Hamiltonian on the full product space (no coordinate split)."""
    kinetic, interaction = _product_parts(cfg, pot, hbar)
    kinetic += interaction
    return Operator(_product_space(cfg), kinetic)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim)
    norms: np.ndarray
    energies: np.ndarray

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def evolve(
    psi0: StateVector, h: Operator, t_final: float, n_steps: int, hbar: float = 1.0
) -> EvolutionResult:
    """Evolve by exact spectral exponentiation, sampling n_steps+1 times.

    The propagator is exp(-i H t / hbar) built from one eigendecomposition,
    so norm and energy records double as unitarity diagnostics.
    """
    if not h.is_hermitian(HERMITICITY_ATOL * max(1.0, float(np.abs(h.entries).max()))):
        raise ValueError("evolution requires a hermitian Hamiltonian")
    if not psi0.is_normalized(atol=1e-10):
        raise ValueError("initial state must be normalized")
    vals, vecs = eigh_phase_fixed(h.entries)
    coeffs = vecs.conj().T @ psi0.amplitudes
    times = np.linspace(0.0, float(t_final), int(n_steps) + 1)
    phases = np.exp(-1j * np.outer(times, vals) / hbar)
    states = (vecs @ (phases * coeffs[None, :]).T).T
    norms = np.linalg.norm(states, axis=1)
    energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), h.entries, states))
    return EvolutionResult(times=times, states=states, norms=norms, energies=energies)


def _lifted_kinetic_residual(cfg: BodyConfig, kinetic: np.ndarray, hbar: float, seed: int) -> float:
    """Relative residual of the product-space ``kinetic`` matrix against the
    lifted one-body kinetic terms applied matrix-free to seeded vectors.

    Each vector is viewed as (site 1, site 2, rest); T1 acts along site axis
    0, T2 along site axis 1, and the identity on spin.
    """
    n = cfg.grid.n_sites
    t1 = grids.kinetic_operator(cfg.grid, cfg.masses[0], hbar)
    t2 = grids.kinetic_operator(cfg.grid, cfg.masses[1], hbar)
    rng = np.random.default_rng(seed)
    shape = (kinetic.shape[0], 4)
    vectors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tensor = vectors.reshape(n, n, -1)
    expected = (t1 @ tensor.reshape(n, -1)).reshape(tensor.shape) + t2 @ tensor
    actual = (kinetic @ vectors).reshape(tensor.shape)
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def weak_coupling_check(
    cfg: BodyConfig,
    pot: PotentialSpec,
    lambda_values: Sequence[float],
    hbar: float = 1.0,
    tolerance: float = 1e-6,
    zero_tolerance: float = 1e-12,
    seed: int = 0,
) -> dict:
    """Deviation from the sum of free one-body Hamiltonians is linear in the
    coupling; the measurements as report detail.

    H(lambda) = kinetic + lambda * interaction on the product space.  At
    lambda = 0 the construction must act as the sum of lifted free
    Hamiltonians: on seeded vectors it agrees with T1 and T2 applied along
    their own site axes, to the relative ``zero_tolerance``.  For lambda > 0
    the Frobenius deviation divided by lambda must be a single constant.
    """
    lambdas = [float(v) for v in lambda_values]
    if any(v < 0 for v in lambdas):
        raise ValueError("couplings must be non-negative")
    kinetic, interaction = _product_parts(cfg, pot, hbar)
    zero_residual = _lifted_kinetic_residual(cfg, kinetic, hbar, seed)
    # The kinetic array is not needed again: it holds every scaled copy.
    deviations = [
        float(np.linalg.norm(np.multiply(lam, interaction, out=kinetic))) for lam in lambdas
    ]
    slopes = [dev / lam for dev, lam in zip(deviations, lambdas) if lam > 0]
    if slopes:
        top = max(slopes)
        spread = (max(slopes) - min(slopes)) / top if top > 0 else 0.0
    else:
        spread = 0.0
    return {
        "lambdas": lambdas,
        "deviation_norms": deviations,
        "zero_coupling_residual": zero_residual,
        "linearity_spread": spread,
        "tolerance": tolerance,
        "zero_tolerance": zero_tolerance,
        "pass": zero_residual <= zero_tolerance and spread <= tolerance,
    }


def exchange_symmetry_residual(cfg: BodyConfig, pot: PotentialSpec, hbar: float = 1.0) -> float:
    """Relative norm of [H, U_swap] on the product space for identical bodies."""
    if cfg.masses[0] != cfg.masses[1]:
        raise ValueError("exchange symmetry is claimed only for equal masses")
    h = build_product_hamiltonian(cfg, pot, hbar)
    dims = h.space.factor_dims
    k = len(dims)
    slots = list(range(k))
    image = list((1, 0, 3, 2) if cfg.spin_half else (1, 0))
    # U_swap only relabels factors, so H U and U H are axis moves of H's
    # (row factors + column factors) tensor: no permutation matrix is formed.
    tensor = h.entries.reshape(dims + dims)
    h_u = np.moveaxis(tensor, [k + i for i in image], [k + t for t in slots])
    u_h = np.moveaxis(tensor, slots, image)
    residual = np.linalg.norm((h_u - u_h).reshape(h.entries.shape))
    return float(residual / np.linalg.norm(h.entries))


def momentum_conservation_residual(
    cfg: BodyConfig,
    pot: PotentialSpec,
    hbar: float = 1.0,
    n_states: int = 10,
    seed: int = 0,
    band_fraction: float = 1.0 / 3.0,
    envelope_frac: float = 1.0 / 16.0,
) -> float:
    """Max relative norm of [H, P_total] applied to masked product states.

    Requires a spinless two-body configuration; the potential must depend
    only on the relative separation (which the construction guarantees).
    The two-body operators are applied leg by leg to (n, n) state arrays by
    :func:`grids.leg_product`, the engine of the additive Galilei pair, so
    nothing of size n^2 x n^2 is ever formed.
    """
    if cfg.spin_half:
        raise ValueError("momentum conservation check runs on the spinless model")
    grid = cfg.grid
    x = grids.position_values(grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], grid.length)
    p = grids.momentum_operator(grid, hbar)
    ops = {
        "Ha": (grids.kinetic_operator(grid, cfg.masses[0], hbar), 0),
        "Hb": (grids.kinetic_operator(grid, cfg.masses[1], hbar), 1),
        "V": (pot.sample(pot.v, dist), None),
        "H": ("Ha", "Hb", "V"),
        "Pa": (p, 0),
        "Pb": (p, 1),
        "P": ("Pa", "Pb"),
    }
    mask = grids.band_limited_mask(grid, band_fraction, envelope_frac)
    rng = np.random.default_rng(seed)
    sa = mask.random_states(n_states, rng)
    sb = mask.random_states(n_states, rng)
    worst = 0.0
    for col in range(n_states):
        products = {(): np.outer(sa[:, col], sb[:, col])}
        hp = grids.leg_product(ops, products, ("H", "P"))
        ph = grids.leg_product(ops, products, ("P", "H"))
        scale = max(np.linalg.norm(hp), np.linalg.norm(ph))
        if scale > 0:
            worst = max(worst, float(np.linalg.norm(hp - ph) / scale))
    return worst
