"""Two-body Hamiltonians with central and spin-spin interactions, unitary
evolution, and the weak-coupling additivity check.

The two-body functions here pose one pair of spin-1/2 bodies on a periodic
grid, given as the grid and the two masses.  The pair interaction is a
Gaussian well of four numbers (:class:`PotentialSpec`), evaluated in closed
form at each separation.  The Hamiltonian is posed in the relative
coordinate (center of mass dropped).  It conserves total S_z and is
exactly even under x -> -x, so evolution diagonalizes it by the blocks that
its exact zeros decouple, each by its mirror halves.  The product-space checks
(weak coupling and exchange symmetry) never store the n^2 x n^2 product-space
Hamiltonian: they apply it to a few seeded vectors, the one-body kinetic
terms along their own site axes and the pair potential and spin blocks
pointwise.  The momentum-conservation check applies the spinless two-body
operators to the legs of masked product states by 1-d FFT.  Units have hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import grids
from .grids import GridSpec
from .hilbert import (Operator, SpaceSpec, StateVector, connected_sets, eigh_phase_fixed, hermiticity_residual,
                      norm, pauli_matrices)

__all__ = [
    "PotentialSpec",
    "build_hamiltonian",
    "spin_pair_operators",
    "evolve",
    "weak_coupling_check",
    "exchange_symmetry_residual",
    "momentum_conservation_residual",
]

HERMITICITY_ATOL = 1e-12
# Masked product states on which momentum_conservation_residual measures.
_MOMENTUM_STATES = 10


@dataclass(frozen=True)
class PotentialSpec:
    """The Gaussian pair well g(r) = exp(-r^2 / (2 width^2)): central
    -depth g, ``v2`` g on s1.s2 and ``v3`` g on the tensor combination
    3(s1.n)(s2.n) - s1.s2."""

    depth: float
    width: float
    v2: float
    v3: float

    def channels(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The central, s1.s2 and tensor channels at the separations ``r``."""
        shape = np.exp(-(np.asarray(r, dtype=np.float64) ** 2) / (2.0 * self.width ** 2))
        return -self.depth * shape, self.v2 * shape, self.v3 * shape


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


def _spin_blocks(v2: np.ndarray, v3: np.ndarray, dot: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """4x4 spin interaction ``v2 dot + v3 tensor`` (:func:`spin_pair_operators`)
    at each separation, from the sampled channels, stacked as (len(v2), 4, 4).

    Every entry of s1.s2 and of the tensor term is real (sy x sy included),
    so the blocks are real.
    """
    return v2[:, None, None] * dot.real + v3[:, None, None] * tensor.real


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
    central, v2, v3 = pot.channels(np.abs(grids.position_values(grid)))
    h = _spin_lift(kinetic + np.diag(central), _spin_blocks(v2, v3, *spin_pair_operators()))
    return Operator(SpaceSpec((grid.n_sites, 2, 2)), h)


def _apply_product_hamiltonian(
    grid: GridSpec, masses: Sequence[float], pots: Sequence[PotentialSpec], vectors: np.ndarray
) -> list[np.ndarray]:
    """The two-body product-space Hamiltonian of each of ``pots`` applied to
    ``vectors`` (columns last), each viewed as (site 1, site 2, spin 1 x spin
    2): T1 acts along site axis 0 and T2 along site axis 1, once for every
    potential, then V(x1, x2) and the 4x4 spin blocks pointwise."""
    n = grid.n_sites
    t1, t2 = (grids.kinetic_operator(grid, m) for m in masses)
    x = grids.position_values(grid)
    dist = grids.periodic_distance(x[:, None] - x[None, :], grid.length)
    spin = spin_pair_operators()
    psi = vectors.reshape(n, n, 4, vectors.shape[-1])
    kinetic = (t1 @ psi.reshape(n, -1)).reshape(psi.shape)
    kinetic += (t2 @ psi.reshape(n, n, -1)).reshape(psi.shape)
    applied = []
    for pot in pots:
        central, v2, v3 = pot.channels(dist)
        out = kinetic + central[:, :, None, None] * psi
        blocks = _spin_blocks(v2.reshape(-1), v3.reshape(-1), *spin)
        out += (blocks @ psi.reshape(n * n, 4, -1)).reshape(psi.shape)
        applied.append(out.reshape(vectors.shape))
    return applied


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


def _seeded_vectors(grid: GridSpec, seed: int) -> np.ndarray:
    """Four complex Gaussian vectors of the two-body product space, shaped
    (site 1, site 2, spin 1, spin 2, 4), from a local generator so that no
    other check's draws shift."""
    shape = (grid.n_sites, grid.n_sites, 2, 2, 4)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


def _site_mirror(n: int) -> np.ndarray:
    """The site reversal x -> -x about the grid centre: i -> (n - i) mod n on
    even n, which fixes sites 0 and n/2, and i -> n - 1 - i on odd n."""
    sites = np.arange(n)
    return (n - sites) % n if n % 2 == 0 else n - 1 - sites


def _mirror_halves(block: np.ndarray, n: int):
    """The site reversal m of ``block``, whose rows run over ``n`` sites at
    each of its spin indices, as a row index map, and the block's sectors
    (matrix, rows, sign, c): its two halves under m when every entry equals
    its image, else the whole block, with sign 0 and c = 1.

    On the orthonormal basis (e_p +- e_m(p)) / sqrt(2) for p < m(p), and e_p
    for a fixed p, a half over its rows p is 2 c_p c_q (B[p, q] +- B[p, m(q)]),
    with c = 1/2 at a fixed index and 1/sqrt(2) elsewhere: B[p, q] +- B[p,
    m(q)], fixed rows and columns scaled by 1/sqrt(2).  A block vector v has
    the coordinates c_p (v[p] +- v[m(p)]) there, and a row X_p of coordinates
    adds c_p X_p to block rows p and, times +-1, m(p).
    """
    spins = len(block) // n
    mirror = (_site_mirror(n)[:, None] * spins + np.arange(spins)).reshape(-1)
    index = np.arange(len(mirror))
    # The rows p <= m(p) are those of sites 0..n//2, and the rows p < m(p)
    # those of sites 1..n//2 - 1 on even n and 0..n//2 - 1 on odd n.
    reps, pairs = slice(0, (n // 2 + 1) * spins), slice((1 - n % 2) * spins, n // 2 * spins)
    # Row m(p) of the mirrored block equals row p when it does for every p <= m(p).
    if pairs.start == pairs.stop or not np.array_equal(block[mirror[reps]][:, mirror], block[reps]):
        return mirror, [(block, index, 0.0, np.ones(len(index)))]
    halves = []
    for sign, rows in ((1.0, reps), (-1.0, pairs)):
        c = np.where(mirror[rows] == index[rows], 0.5, np.sqrt(0.5))
        matrix = (block[rows, rows] + sign * block[rows][:, mirror[rows]]) * (2.0 * np.outer(c, c))
        halves.append((matrix, rows, sign, c))
    return mirror, halves


def _split_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as two products, of the real and of the imaginary part of ``a``,
    so that a real ``b`` stays real."""
    return a.real @ b + 1j * (a.imag @ b)


def evolve(
    psi0: StateVector, h: Operator, t_final: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evolve by exact spectral exponentiation, sampling n_steps+1 times:
    the ``times``, the ``states`` (one row per time), and their ``norms`` and
    ``energies``.

    The propagator is exp(-i H t), built block by block: each block that the
    exact zeros of H decouple (:func:`_decoupled_blocks`; on the relative
    Hamiltonian, the total S_z sectors) is diagonalized by its halves under
    x -> -x (:func:`_mirror_halves`), equal blocks once, and its amplitudes
    evolve by their own phases.  Norms and energies are measured on the full
    states with the full H, so they double as unitarity diagnostics and would
    show a wrong block or half.  Off the blocks H - H^dagger is 0, so the
    hermiticity guard reads the blocks alone.
    """
    blocks = [(ix, h.entries[np.ix_(ix, ix)]) for ix in _decoupled_blocks(h)]
    atol = HERMITICITY_ATOL * max(1.0, float(np.abs(h.entries).max()))
    if not all(hermiticity_residual(block) <= atol for _, block in blocks):
        raise ValueError("evolution requires a hermitian Hamiltonian")
    if not psi0.is_normalized(atol=1e-10):
        raise ValueError("initial state must be normalized")
    times = np.linspace(0.0, float(t_final), int(n_steps) + 1)
    # One row of amplitudes per basis index, one column per time: blocks and
    # halves are rows.
    amplitudes = np.zeros((h.space.total_dim, times.size), dtype=np.complex128)
    solved = []  # (block, mirror, [(eigenvectors, cos, sin, rows, sign, c) of each sector]) of each distinct block
    for ix, block in blocks:
        found = next((entry for entry in solved if np.array_equal(entry[0], block)), None)
        if found is None:
            mirror, sectors = _mirror_halves(block, h.space.factor_dims[0])
            for i, (matrix, rows, sign, c) in enumerate(sectors):
                vals, vecs = eigh_phase_fixed(matrix)
                angles = np.outer(vals, times)
                sectors[i] = (vecs, np.cos(angles), np.sin(angles), rows, sign, c)
            found = (block, mirror, sectors)
            solved.append(found)
        _, mirror, sectors = found
        psi = psi0.amplitudes[ix]
        for vecs, cos, sin, rows, sign, c in sectors:
            coeffs = _split_product((psi[rows] + sign * psi[mirror[rows]]) * c, vecs.conj())[:, None]
            # exp(-i E t) coeffs = (cos - i sin) coeffs, apart: for real E, re and im are its parts
            re, im = cos * coeffs.real + sin * coeffs.imag, cos * coeffs.imag - sin * coeffs.real
            unfolded = c[:, None] * (vecs @ re + 1j * (vecs @ im))
            amplitudes[ix[rows]] += unfolded
            if sign:
                amplitudes[ix[mirror[rows]]] += sign * unfolded
    states = amplitudes.T
    norms = np.linalg.norm(states, axis=1)
    h_psi = _split_product(states, h.entries.T)
    energies = np.sum(states.real * h_psi.real + states.imag * h_psi.imag, axis=1)
    return times, states, norms, energies


def weak_coupling_check(
    grid: GridSpec,
    masses: Sequence[float],
    pot: PotentialSpec,
    lambda_values: Sequence[float],
    seed: int = 0,
) -> dict:
    """Deviation from the sum of free one-body Hamiltonians is linear in the
    coupling; the measurements as report detail.

    H(lambda), built from ``pot`` with depth, v2 and v3 scaled by lambda, is
    applied to four seeded product-space vectors v.  H(0)v should agree with
    each body's kinetic operator applied on its own (site, spin) legs:
    ``zero_coupling_residual`` is their relative difference.  For lambda > 0,
    ||(H(lambda) - H(0))v|| / lambda should be a single constant:
    ``linearity_spread`` is the spread of those slopes relative to the
    largest, NaN if any slope is NaN.
    """
    lambdas = [float(v) for v in lambda_values]
    vectors = _seeded_vectors(grid, seed)
    scaled = [replace(pot, depth=lam * pot.depth, v2=lam * pot.v2, v3=lam * pot.v3) for lam in [0.0, *lambdas]]
    free, *coupled = _apply_product_hamiltonian(grid, masses, scaled, vectors)
    expected = _one_body_sum(grid, masses, vectors)
    zero_residual = float(np.linalg.norm(free - expected) / np.linalg.norm(expected))
    deviations = [float(np.linalg.norm(applied - free)) for applied in coupled]
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
    (hv,) = _apply_product_hamiltonian(grid, masses, [pot], vectors)
    (huv,) = _apply_product_hamiltonian(grid, masses, [pot], vectors.transpose(1, 0, 3, 2, 4))
    return float(np.linalg.norm(huv - hv.transpose(1, 0, 3, 2, 4)) / np.linalg.norm(hv))


def momentum_conservation_residual(
    grid: GridSpec, masses: Sequence[float], pot: PotentialSpec, seed: int = 0
) -> np.ndarray:
    """Relative norm of [H, P_total] applied to each of ``_MOMENTUM_STATES``
    masked product states a x b.

    The bodies are taken spinless, so only the central channel of ``pot``
    enters H; it depends only on the relative separation, which the
    construction guarantees.  T1, T2 and P_total are sums of one-leg
    operators diagonal in momentum, so they act on the legs of all states by
    1-d FFTs, and H P psi and P H psi are sums of leg products, but for
    P_total (V psi): one 2-d FFT pair, in place.  Both are formed in full and
    subtracted one state at a time, so a few n x n arrays are live at once.
    No n^2 x n^2 array, nor any n x n operator, is formed.
    """
    x = grids.position_values(grid)
    v = pot.channels(grids.periodic_distance(x[:, None] - x[None, :], grid.length))[0]
    k = grids.momentum_values(grid)
    t1, t2 = (k ** 2 / (2.0 * m) for m in masses)

    def spectral(symbol, legs):
        return np.fft.ifft(symbol * np.fft.fft(legs, norm="ortho"), norm="ortho")

    def products(*pairs):  # the sum of u w^T over the pairs (u, w)
        left, right = (np.stack(legs, axis=-1) for legs in zip(*pairs))
        return left @ right.T

    mask = grids.band_limited_mask(grid)
    rng = np.random.default_rng(seed)
    a = mask.random_states(_MOMENTUM_STATES, rng).T
    b = mask.random_states(_MOMENTUM_STATES, rng).T
    pa, pb, t1a, t2b = spectral(k, a), spectral(k, b), spectral(t1, a), spectral(t2, b)
    t1pa, t2pb, pt1a, pt2b = spectral(t1, pa), spectral(t2, pb), spectral(k, t1a), spectral(k, t2b)
    k_total = k[:, None] + k[None, :]
    residuals = np.zeros(_MOMENTUM_STATES)
    for s in range(_MOMENTUM_STATES):
        hp = products((t1pa[s], b[s]), (t1a[s], pb[s]), (pa[s], t2b[s]), (a[s], t2pb[s]))
        v_terms = products((pa[s], b[s]), (a[s], pb[s]))
        v_terms *= v
        hp += v_terms
        ph = products((pt1a[s], b[s]), (t1a[s], pb[s]), (pa[s], t2b[s]), (a[s], pt2b[s]))
        v_psi = products((a[s], b[s]))
        v_psi *= v
        ph += grids.apply_symbol_2d(v_psi, k_total)
        scale = np.maximum(norm(hp), norm(ph))
        if scale != 0.0:  # both products vanish at scale 0, and NaN stays NaN
            hp -= ph
            residuals[s] = norm(hp) / scale
    return residuals
