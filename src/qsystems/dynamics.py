"""Two-body Hamiltonians with central and spin-spin interactions, unitary
evolution, and the weak-coupling additivity check.

The two-body functions here pose one pair of spin-1/2 bodies on a periodic
grid, given as the grid and the two masses.  The Hamiltonian is posed in the
relative coordinate (center of mass dropped).  It conserves total S_z, and
evolution diagonalizes it one block at a time, the blocks read off its exact
zeros, so an (n, 2, 2) Hamiltonian takes eigendecompositions of n, 2n and n
rows rather than one of 4n.  The product-space checks
(weak coupling and exchange symmetry) never store the n^2 x n^2 product-space
Hamiltonian: they apply it to a few seeded vectors, the one-body kinetic
terms along their own site axes and the pair potential and spin blocks
pointwise.  The momentum-conservation check draws masked product states and
applies the spinless two-body operators to each as an (n, n) array, the
momentum-diagonal ones by 2-d FFT.  Units have hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grids
from .grids import GridSpec
from .hilbert import Operator, SpaceSpec, StateVector, connected_sets, eigh_phase_fixed, pauli_matrices

__all__ = [
    "RadialTable",
    "PotentialSpec",
    "build_hamiltonian",
    "spin_pair_operators",
    "EvolutionResult",
    "evolve",
    "weak_coupling_check",
    "exchange_symmetry_residual",
    "momentum_conservation_residual",
]

HERMITICITY_ATOL = 1e-12
# Masked product states on which momentum_conservation_residual measures.
_MOMENTUM_STATES = 10


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

    def __call__(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=np.float64), self.r, self.values)


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potentials: central v, and the spin channels v2 and v3.

    ``v2`` multiplies s1.s2, ``v3`` multiplies the tensor combination
    3(s1.n)(s2.n) - s1.s2.  Missing tables mean zero.
    """

    v: RadialTable | None = None
    v2: RadialTable | None = None
    v3: RadialTable | None = None

    def sample(self, table: RadialTable | None, r: np.ndarray) -> np.ndarray:
        if table is None:
            return np.zeros_like(np.asarray(r, dtype=np.float64))
        return table(r)


def spin_pair_operators() -> tuple[np.ndarray, np.ndarray]:
    """(s1.s2, 3*s1z*s2z - s1.s2) on the two-spin space, as 4x4 arrays.

    The spatial axis is identified with the spin z axis, so along a single
    spatial dimension the tensor combination reduces to the z form (the unit
    separation vector enters squared).
    """
    sx, sy, sz = (0.5 * m for m in pauli_matrices())
    dot = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    tensor = 3.0 * np.kron(sz, sz) - dot
    return dot, tensor


def _spin_blocks(pot: PotentialSpec, r_values: np.ndarray) -> np.ndarray:
    """4x4 spin interaction at each separation, stacked as (len(r), 4, 4).

    Every entry of s1.s2 and of the tensor term is real (sy x sy included),
    so the blocks are real.
    """
    dot, tensor = (op.real for op in spin_pair_operators())

    def channel(table: RadialTable | None, op: np.ndarray) -> np.ndarray:
        return pot.sample(table, r_values)[:, None, None] * op

    return channel(pot.v2, dot) + channel(pot.v3, tensor)


def _spin_lift(spatial: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """kron(spatial, I4) plus 4x4 ``blocks`` on the spatial diagonal, on
    (spatial x spin x spin), assembled blockwise in one array."""
    m = spatial.shape[0]
    out = np.zeros((m, 4, m, 4), dtype=np.result_type(spatial, blocks))
    for s in range(4):
        out[:, s, :, s] = spatial
    sites = np.arange(m)
    out[sites, :, sites, :] += blocks
    return out.reshape(4 * m, 4 * m)


def build_hamiltonian(grid: GridSpec, masses: Sequence[float], pot: PotentialSpec) -> Operator:
    """Hermitian Hamiltonian of two spin-1/2 bodies of ``masses``: kinetic +
    central + spin-spin terms, posed in the relative coordinate with reduced
    mass on ``grid``, on space (n, 2, 2)."""
    m1, m2 = masses
    mu = m1 * m2 / (m1 + m2)
    kinetic = grids.kinetic_operator(grid, mu)
    r = np.abs(grids.position_values(grid))
    central = np.diag(pot.sample(pot.v, r))
    h = _spin_lift(kinetic + central, _spin_blocks(pot, r))
    return Operator(SpaceSpec((grid.n_sites, 2, 2)), h)


def _apply_product_hamiltonian(
    grid: GridSpec, masses: Sequence[float], pot: PotentialSpec, vectors: np.ndarray
) -> np.ndarray:
    """The two-body product-space Hamiltonian applied to ``vectors`` (columns
    last), each viewed as (site 1, site 2, spin 1 x spin 2): T1 acts along
    site axis 0, T2 along site axis 1, and V(x1, x2) and the 4x4 spin blocks
    pointwise."""
    n = grid.n_sites
    t1, t2 = (grids.kinetic_operator(grid, m) for m in masses)
    x = grids.position_values(grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], grid.length)
    psi = vectors.reshape(n, n, 4, vectors.shape[-1])
    out = (t1 @ psi.reshape(n, -1)).reshape(psi.shape)
    out += (t2 @ psi.reshape(n, n, -1)).reshape(psi.shape)
    out += pot.sample(pot.v, dist)[:, :, None, None] * psi
    blocks = _spin_blocks(pot, dist.reshape(-1))
    out += (blocks @ psi.reshape(n * n, 4, -1)).reshape(psi.shape)
    return out.reshape(vectors.shape)


def _one_body_sum(grid: GridSpec, masses: Sequence[float], vectors: np.ndarray) -> np.ndarray:
    """(H1 x 1 + 1 x H2) applied to :func:`_seeded_vectors`-shaped ``vectors``,
    each H_i body i's kinetic operator, times the identity on its spin, on
    body i's (site, spin) legs."""
    total = np.zeros_like(vectors)
    for body, mass in enumerate(masses):
        h = np.kron(grids.kinetic_operator(grid, mass), np.eye(2, dtype=np.complex128))
        moved = np.moveaxis(vectors, (body, body + 2), (0, 1))
        applied = (h @ moved.reshape(h.shape[0], -1)).reshape(moved.shape)
        total += np.moveaxis(applied, (0, 1), (body, body + 2))
    return total


def _scaled(pot: PotentialSpec, lam: float) -> PotentialSpec:
    """``pot`` with every table's values multiplied by the coupling ``lam``."""
    tables = (pot.v, pot.v2, pot.v3)
    return PotentialSpec(*(None if t is None else RadialTable(t.r, lam * t.values) for t in tables))


def _seeded_vectors(grid: GridSpec, seed: int) -> np.ndarray:
    """Four complex Gaussian vectors of the two-body product space, shaped
    (site 1, site 2, spin 1, spin 2, 4), from a local generator so that no
    other check's draws shift."""
    shape = (grid.n_sites, grid.n_sites, 2, 2, 4)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


def _decoupled_blocks(h: Operator) -> list[np.ndarray]:
    """Flat indices of the blocks of ``h`` that its exact zeros decouple:
    every leading index times one connected set of the trailing indices (all
    but the first factor) that some entry of ``h`` couples, at any leading
    indices, in ascending order.  ``h`` maps each block's span into itself."""
    n = h.space.factor_dims[0]
    s = h.space.total_dim // n
    # Over the leading row index first, as whole rows: reducing both leading
    # axes of the (n, s, n, s) view at once strides by s and is 15x slower.
    coupled = (h.entries != 0).reshape(n, s, n * s).any(axis=0).reshape(s, n, s).any(axis=1)
    flat = np.arange(h.space.total_dim).reshape(n, s)
    return [flat[:, ix].reshape(-1) for ix in connected_sets(coupled)]


def evolve(psi0: StateVector, h: Operator, t_final: float, n_steps: int) -> EvolutionResult:
    """Evolve by exact spectral exponentiation, sampling n_steps+1 times.

    The propagator is exp(-i H t), built block by block: each block that the
    exact zeros of H decouple (:func:`_decoupled_blocks`; on the relative
    Hamiltonian, the total S_z sectors) gets its own eigendecomposition, and
    its amplitudes evolve by their own phases.  Norms and energies are
    measured on the full states with the full H, so they double as unitarity
    diagnostics and would show a wrong block.  Off the blocks H - H^dagger is 0,
    so the hermiticity guard reads the blocks alone.
    """
    blocks = [(ix, h.entries[np.ix_(ix, ix)]) for ix in _decoupled_blocks(h)]
    atol = HERMITICITY_ATOL * max(1.0, float(np.abs(h.entries).max()))
    if not all(np.max(np.abs(block - block.conj().T)) <= atol for _, block in blocks):
        raise ValueError("evolution requires a hermitian Hamiltonian")
    if not psi0.is_normalized(atol=1e-10):
        raise ValueError("initial state must be normalized")
    times = np.linspace(0.0, float(t_final), int(n_steps) + 1)
    states = np.zeros((times.size, h.space.total_dim), dtype=np.complex128)
    for ix, block in blocks:
        vals, vecs = eigh_phase_fixed(block)
        coeffs = vecs.conj().T @ psi0.amplitudes[ix]
        phases = np.exp(-1j * np.outer(times, vals))
        states[:, ix] = (vecs @ (phases * coeffs[None, :]).T).T
    norms = np.linalg.norm(states, axis=1)
    # H psi from the real and the imaginary parts of the states, which keeps
    # a real H real in its two products.
    h_psi = states.real @ h.entries.T + 1j * (states.imag @ h.entries.T)
    energies = np.sum(states.real * h_psi.real + states.imag * h_psi.imag, axis=1)
    return EvolutionResult(times=times, states=states, norms=norms, energies=energies)


def weak_coupling_check(
    grid: GridSpec,
    masses: Sequence[float],
    pot: PotentialSpec,
    lambda_values: Sequence[float],
    seed: int = 0,
) -> dict:
    """Deviation from the sum of free one-body Hamiltonians is linear in the
    coupling; the measurements as report detail.

    H(lambda), built from ``pot`` with every table scaled by lambda, is
    applied to four seeded product-space vectors v.  H(0)v should agree with
    each body's kinetic operator applied on its own (site, spin) legs:
    ``zero_coupling_residual`` is their relative difference.  For lambda > 0,
    ||(H(lambda) - H(0))v|| / lambda should be a single constant:
    ``linearity_spread`` is the spread of those slopes relative to the
    largest, NaN if any slope is NaN.
    """
    lambdas = [float(v) for v in lambda_values]
    vectors = _seeded_vectors(grid, seed)
    free = _apply_product_hamiltonian(grid, masses, _scaled(pot, 0.0), vectors)
    expected = _one_body_sum(grid, masses, vectors)
    zero_residual = float(np.linalg.norm(free - expected) / np.linalg.norm(expected))
    deviations = [
        float(np.linalg.norm(
            _apply_product_hamiltonian(grid, masses, _scaled(pot, lam), vectors) - free
        ))
        for lam in lambdas
    ]
    slopes = np.array([dev / lam for dev, lam in zip(deviations, lambdas) if lam > 0])
    top = np.max(slopes, initial=0.0)
    spread = float((top - np.min(slopes)) / top) if top != 0.0 else 0.0
    return {
        "lambdas": lambdas,
        "deviation_norms": deviations,
        "zero_coupling_residual": zero_residual,
        "linearity_spread": spread,
    }


def exchange_symmetry_residual(
    grid: GridSpec, mass: float, pot: PotentialSpec, seed: int = 0
) -> float:
    """Relative norm ||H(Uv) - U(Hv)|| / ||Hv|| of [H, U_swap] applied to four
    seeded product-space vectors v, for two identical bodies of ``mass``.

    U_swap only relabels the factors (x1, s1) <-> (x2, s2), so it acts on
    each vector as an axis transpose: no permutation matrix is formed.
    """
    masses = (mass, mass)
    vectors = _seeded_vectors(grid, seed)
    hv = _apply_product_hamiltonian(grid, masses, pot, vectors)
    huv = _apply_product_hamiltonian(grid, masses, pot, vectors.transpose(1, 0, 3, 2, 4))
    return float(np.linalg.norm(huv - hv.transpose(1, 0, 3, 2, 4)) / np.linalg.norm(hv))


def momentum_conservation_residual(
    grid: GridSpec, masses: Sequence[float], pot: PotentialSpec, seed: int = 0
) -> np.ndarray:
    """Relative norm of [H, P_total] applied to each of ``_MOMENTUM_STATES``
    masked product states.

    The bodies are taken spinless, so only the central potential ``pot.v``
    enters H; it depends only on the relative separation, which the
    construction guarantees.  Each state is an (n, n) array.  Both kinetic
    terms and P_total are diagonal in momentum, so each multiplies the state's
    2-d FFT by its symbol, at O(n^2 log n) per state; nothing of size
    n^2 x n^2, nor any n x n operator, is formed.
    """
    x = grids.position_values(grid)
    v = pot.sample(pot.v, grids.periodic_distance(x[:, None] - x[None, :], grid.length))
    k = grids.momentum_values(grid)
    kinetic = k[:, None] ** 2 / (2.0 * masses[0]) + k[None, :] ** 2 / (2.0 * masses[1])
    total_momentum = k[:, None] + k[None, :]

    def spectral(symbol, psi):
        return np.fft.ifft2(symbol * np.fft.fft2(psi, norm="ortho"), norm="ortho")

    def apply_h(psi):
        return spectral(kinetic, psi) + v * psi

    def apply_p(psi):
        return spectral(total_momentum, psi)

    mask = grids.band_limited_mask(grid)
    rng = np.random.default_rng(seed)
    sa = mask.random_states(_MOMENTUM_STATES, rng)
    sb = mask.random_states(_MOMENTUM_STATES, rng)
    residuals = np.zeros(_MOMENTUM_STATES)
    for col in range(_MOMENTUM_STATES):
        psi = np.outer(sa[:, col], sb[:, col])
        hp, ph = apply_h(apply_p(psi)), apply_p(apply_h(psi))
        scale = np.maximum(np.linalg.norm(hp), np.linalg.norm(ph))
        if scale != 0.0:  # both products vanish at scale 0, and NaN stays NaN
            residuals[col] = np.linalg.norm(hp - ph) / scale
    return residuals
