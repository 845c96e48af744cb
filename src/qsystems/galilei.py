"""The centrally extended Galilei Lie algebra: exact structure constants and
concrete operator representations.

Two layers live here.  The exact layer holds the brackets of the eleven
generators H, P1..P3, K1..K3, J1..J3, M as one integer tensor of structure
constants; antisymmetry and the Jacobi identity are checked in integer
arithmetic, with no floating point at all.  The numeric layer builds dense
matrix representations (spin, periodic grid, additive composites) and
measures how well each one reproduces the bracket table, restricted to the
subspace on which the representation makes its claims.  A representation
holds images of exactly the generators it asserts.  Units have hbar = 1; the
law texts keep ``ihbar`` to show where it enters.  Grid masks and the
leg-by-leg two-particle products live in :mod:`qsystems.grids`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grids
from .grids import DomainMask, GridSpec, leg_product
from .hilbert import Operator, SpaceSpec, lift

__all__ = [
    "LABELS",
    "verify_structure",
    "AlgebraRep",
    "build_spin_rep",
    "build_grid_rep",
    "build_additive_rep",
    "casimir_squared",
    "verify_rep",
    "position_momentum_residuals",
    "verify_additive_grid_pair",
]

# The largest composite space that :func:`build_additive_rep` builds densely.
_MAX_DENSE_DIM = 4096
# How far an image may be from hermitian, and the mass image below zero,
# before :meth:`AlgebraRep.validate` rejects the representation.
_VALIDATE_ATOL = 1e-10

LABELS = ("H", "P1", "P2", "P3", "K1", "K2", "K3", "J1", "J2", "J3", "M")

_LEVI_CIVITA = {
    (1, 2, 3): 1,
    (2, 3, 1): 1,
    (3, 1, 2): 1,
    (1, 3, 2): -1,
    (3, 2, 1): -1,
    (2, 1, 3): -1,
}


def _structure_constants() -> np.ndarray:
    """The integer tensor C with [a, b] = i*hbar * sum_c C[a, b, c] c, indexed
    in ``LABELS`` order."""
    c = np.zeros((len(LABELS),) * 3, dtype=np.int64)

    def put(a: str, b: str, label: str, sign: int) -> None:
        a, b, label = LABELS.index(a), LABELS.index(b), LABELS.index(label)
        c[a, b, label] = sign
        c[b, a, label] = -sign

    for (i, j, k), sign in _LEVI_CIVITA.items():
        if i < j:
            put(f"J{i}", f"J{j}", f"J{k}", sign)
        put(f"J{i}", f"K{j}", f"K{k}", sign)
        put(f"J{i}", f"P{j}", f"P{k}", sign)
    for i in (1, 2, 3):
        put(f"K{i}", "H", f"P{i}", 1)
        put(f"K{i}", f"P{i}", "M", 1)
    return c


_STRUCTURE = _structure_constants()


def verify_structure() -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str, str], ...]]:
    """Antisymmetry over all 55 generator pairs and Jacobi over all 165
    triples, exactly: the failing pairs and the failing triples.

    [a, [b, c]] = (i*hbar)^2 sum_e (sum_d C[b, c, d] C[a, d, e]) e, so the
    Jacobi sum is that integer tensor plus its two cyclic transposes in
    (a, b, c).
    """
    c = _STRUCTURE
    antisymmetry = c + c.transpose(1, 0, 2)
    nested = np.einsum("bcd,ade->abce", c, c)
    jacobi = nested + nested.transpose(1, 2, 0, 3) + nested.transpose(2, 0, 1, 3)
    pairs = itertools.combinations(range(len(LABELS)), 2)
    triples = itertools.combinations(range(len(LABELS)), 3)
    return (
        tuple((LABELS[i], LABELS[j]) for i, j in pairs if antisymmetry[i, j].any()),
        tuple((LABELS[i], LABELS[j], LABELS[k]) for i, j, k in triples if jacobi[i, j, k].any()),
    )


# --------------------------------------------------------------------------
# Numeric representations
# --------------------------------------------------------------------------


@dataclass(eq=False)
class AlgebraRep:
    """Dense operator images, on one space, of the generators whose mutual
    bracket relations the representation asserts.

    ``images`` is keyed in ``LABELS`` order; a generator the representation
    does not realize has no image.  ``mask`` restricts assertions to a
    subspace when exact relations are unattainable (periodic grids).
    """

    space: SpaceSpec
    images: dict[str, np.ndarray]
    mass: float
    mask: DomainMask | None
    name: str

    def __post_init__(self):
        if list(self.images) != [lab for lab in LABELS if lab in self.images]:
            raise ValueError(f"image labels {list(self.images)} must follow the order of {LABELS}")
        frozen = {}
        d = self.space.total_dim
        for lab, mat in self.images.items():
            arr = np.array(mat, dtype=np.complex128)
            if arr.shape != (d, d):
                raise ValueError(f"image of {lab} has shape {arr.shape}, expected ({d},{d})")
            arr.setflags(write=False)
            frozen[lab] = arr
        self.images = frozen

    def image(self, label: str) -> np.ndarray:
        return self.images[label]

    def validate(self) -> None:
        for lab, mat in self.images.items():
            if np.max(np.abs(mat - mat.conj().T)) > _VALIDATE_ATOL:
                raise ValueError(f"image of {lab} is not hermitian")
        m_eigs = np.linalg.eigvalsh(self.images["M"])
        if m_eigs.min() < -_VALIDATE_ATOL:
            raise ValueError("mass image has a negative eigenvalue")


def _zeros(d: int) -> np.ndarray:
    return np.zeros((d, d), dtype=np.complex128)


def build_spin_rep(j, mass: float = 1.0) -> AlgebraRep:
    """Rotation-sector representation of dimension 2j+1.

    Parameters
    ----------
    j : half-integer spin (1/2, 1, 3/2, ...).
    mass : the central mass value.

    Only the rotation subalgebra together with the central mass is realized
    and asserted; the representation has no boost, momentum or energy image.
    """
    two_j = round(2 * float(j))
    if abs(2 * float(j) - two_j) > 1e-9 or two_j < 1:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    if mass <= 0:
        raise ValueError("mass must be positive")
    jv = two_j / 2.0
    dim = two_j + 1
    m_values = jv - np.arange(dim)
    jz = np.diag(m_values).astype(np.complex128)
    jplus = _zeros(dim)
    for i in range(1, dim):
        m = m_values[i]
        jplus[i - 1, i] = np.sqrt(jv * (jv + 1) - m * (m + 1))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return AlgebraRep(
        space=SpaceSpec.single(dim),
        images={"J1": jx, "J2": jy, "J3": jz, "M": mass * np.eye(dim, dtype=np.complex128)},
        mass=mass,
        mask=None,
        name=f"spin(j={jv:g})",
    )


def casimir_squared(rep: AlgebraRep) -> np.ndarray:
    """J1^2 + J2^2 + J3^2 for the representation."""
    return sum((rep.image(lab) @ rep.image(lab) for lab in ("J1", "J2", "J3")), _zeros(rep.space.total_dim))


def build_grid_rep(n_sites: int, length: float, mass: float, *, mask: DomainMask | None = None) -> AlgebraRep:
    """One-dimensional periodic-grid representation of the free subalgebra.

    Position is diagonal, momentum is the spectral derivative, boosts are
    mass times position, the energy is kinetic.  The canonical pair cannot
    satisfy its bracket exactly in finite dimensions (the trace of a
    commutator vanishes, the trace of i*M does not), so the bracket
    claims are restricted to the returned band-limited interior mask.
    The mask depends on the grid alone: a caller that already holds it for
    this grid, as another part on the same grid does, passes it as ``mask``.

    The single spatial axis realizes H, P1, K1, M, the only images the
    representation carries.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    grid = GridSpec(n_sites=n_sites, length=float(length))
    if mask is None:
        mask = grids.band_limited_mask(grid)
    pos = np.diag(grids.position_values(grid)).astype(np.complex128)
    return AlgebraRep(
        space=SpaceSpec.single(n_sites),
        images={
            "H": grids.kinetic_operator(grid, mass),
            "P1": grids.momentum_operator(grid),
            "K1": mass * pos,
            "M": mass * np.eye(n_sites, dtype=np.complex128),
        },
        mass=mass,
        mask=mask,
        name=f"grid(n={n_sites}, L={length:g}, m={mass:g})",
    )


def build_additive_rep(parts: Sequence[AlgebraRep]) -> AlgebraRep:
    """Composite representation: tensor-product space, summed lifted generators.

    The composite carries the generators that every part carries.  Each
    image is the sum over parts of that part's image lifted by identities on
    the other factors; in particular the total mass image is the sum of the
    part masses.  Dense construction only, and with no domain mask: a pair of
    masked grid parts is verified by :func:`verify_additive_grid_pair`, which
    applies the lifted operators matrix-free to products of masked states.
    """
    if not parts:
        raise ValueError("need at least one part")
    dims = [p.space.total_dim for p in parts]
    total_dim = int(np.prod(dims))
    if total_dim > _MAX_DENSE_DIM:
        raise ValueError(
            f"dense additive rep of dim {total_dim} exceeds bound {_MAX_DENSE_DIM}"
        )
    factor_dims = tuple(itertools.chain.from_iterable(p.space.factor_dims for p in parts))
    space = SpaceSpec(factor_dims)
    part_space = SpaceSpec(tuple(dims))

    images = {}
    for lab in LABELS:
        if all(lab in p.images for p in parts):
            total = _zeros(total_dim)
            for r, part in enumerate(parts):
                total = total + lift(Operator(part.space, part.image(lab)), r, part_space).entries
            images[lab] = total
    return AlgebraRep(
        space=space,
        images=images,
        mass=float(sum(p.mass for p in parts)),
        mask=None,
        name="additive(" + ", ".join(p.name for p in parts) + ")",
    )


def _bracket_detail(name: str, mask_description: str, residuals: dict) -> dict:
    """Report detail of a bracket verification: one ``{law, residual}`` entry
    per law, from the ``residuals`` mapping of law text to relative residual."""
    return {
        "representation": name,
        "domain_mask": mask_description,
        "checks": [{"law": law, "residual": value} for law, value in residuals.items()],
    }


def _bracket_terms(a: str, b: str) -> list[tuple[str, int]]:
    """(label, coefficient) of every generator in [a, b] / (i*hbar), by label."""
    row = _STRUCTURE[LABELS.index(a), LABELS.index(b)]
    return sorted((LABELS[c], int(row[c])) for c in np.flatnonzero(row))


def _expected_image(rep: AlgebraRep, a: str, b: str) -> np.ndarray:
    """Image of [a, b] according to the structure constants: (i*hbar) * sum c * image."""
    total = _zeros(rep.space.total_dim)
    for label, coeff in _bracket_terms(a, b):
        total = total + (1j * float(coeff)) * rep.image(label)
    return total


def _law_string(a: str, b: str) -> str:
    terms = _bracket_terms(a, b)
    if not terms:
        return f"[{a},{b}] = 0"
    return f"[{a},{b}] = " + " + ".join(
        ("" if coeff == 1 else "-" if coeff == -1 else f"({coeff})*") + f"ihbar*{label}"
        for label, coeff in terms
    )


def _relative_residual(delta: np.ndarray, *references: np.ndarray) -> float:
    num = float(np.linalg.norm(delta))
    den = max((float(np.linalg.norm(r)) for r in references), default=0.0)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def verify_rep(rep: AlgebraRep) -> dict:
    """Bracket residuals over every asserted generator pair, as report detail.

    For each pair (x, y) of the representation's generators the commutator
    of the images is compared against the image of the exact bracket,
    applied to the mask basis (the full space when no mask is present).  Residuals are relative
    to the larger of the expected image's action and the products' actions.
    """
    basis = rep.mask.basis if rep.mask is not None else np.eye(rep.space.total_dim)
    residuals = {}
    for a, b in itertools.combinations(rep.images, 2):
        ma, mb = rep.image(a), rep.image(b)
        ab = ma @ (mb @ basis)
        ba = mb @ (ma @ basis)
        expected = _expected_image(rep, a, b) @ basis
        residuals[_law_string(a, b)] = _relative_residual(ab - ba - expected, expected, ab, ba)
    mask_description = rep.mask.description if rep.mask else "full space"
    return _bracket_detail(rep.name, mask_description, residuals)


def position_momentum_residuals(
    rep: AlgebraRep, n_states: int = 20, seed: int = 0
) -> np.ndarray:
    """Relative error of ([X, P] - i*hbar) applied to masked test states.

    X is the boost image divided by the mass.  Requires a masked (grid)
    representation.
    """
    if rep.mask is None:
        raise ValueError("representation has no domain mask")
    rng = np.random.default_rng(seed)
    states = rep.mask.random_states(n_states, rng)
    x = rep.image("K1") / rep.mass
    p = rep.image("P1")
    delta = x @ (p @ states) - p @ (x @ states) - 1j * states
    return np.linalg.norm(delta, axis=0)


def _factored_norms(*terms: tuple[complex, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Frobenius norms, one per state, of sum(c * U_s V_s^T) over ``(c, (U, V))``
    terms: the norms of R_U R_V^T from thin QRs of the concatenated factors,
    which keep the conditioning that Gram matrices would square."""
    r_u = np.linalg.qr(np.concatenate([c * u for c, (u, _) in terms], axis=-1), mode="r")
    r_v = np.linalg.qr(np.concatenate([v for _, (_, v) in terms], axis=-1), mode="r")
    return np.linalg.norm(r_u @ np.swapaxes(r_v, -1, -2), axis=(-2, -1))


def verify_additive_grid_pair(
    part_a: AlgebraRep,
    part_b: AlgebraRep,
    n_states: int = 20,
    seed: int = 0,
) -> dict:
    """Additivity relations for two grid parts, applied matrix-free, as
    report detail.

    The two-particle operators are never materialized, and neither are the
    states.  Test states are products ``a (x) b`` of masked one-particle
    states, and every operator here acts on one leg, so every operator
    product applied to a test state is a short sum of products.  All test
    states are carried at once as factor stacks ``(U, V)`` of shape
    ``(n_states, n, k)`` through :func:`grids.leg_product`: a lifted
    one-particle operator multiplies one factor (the diagonal K, X and M
    elementwise), and a sum concatenates factors.  Checked, per test state
    and with relative residuals: the bracket relations among the total H, P,
    K, M; the mixed relations of each total generator with every per-part
    position and momentum; exact additivity of the mass; and commutation of
    generators lifted from different parts.  Each law's residual is its
    largest over the test states, NaN included.
    """
    for part in (part_a, part_b):
        if part.mask is None:
            raise ValueError(f"{part.name} has no domain mask")
    rng = np.random.default_rng(seed)
    states_a = part_a.mask.random_states(n_states, rng)
    states_b = part_b.mask.random_states(n_states, rng)

    # A name ending in "a" or "b" acts on that part's leg; a bare generator
    # name is the total, the sum of both legs.
    ops = {}
    for which, (tag, part) in enumerate((("a", part_a), ("b", part_b))):
        k = np.diag(part.image("K1"))
        ops.update(
            {
                "P" + tag: (part.image("P1"), which),
                "K" + tag: (k, which),
                "H" + tag: (part.image("H"), which),
                "M" + tag: (np.diag(part.image("M")), which),
                "X" + tag: (k / part.mass, which),
            }
        )
    ops.update({label: (label + "a", label + "b") for label in "PKHM"})
    m_a, m_b = part_a.mass, part_b.mass
    psi = (states_a.T[:, :, None], states_b.T[:, :, None])
    products = {(): psi}

    records: dict[str, list[np.ndarray]] = {}

    def record(law: str, lhs: list, c: complex = 0.0, expected: tuple = psi) -> None:
        """``lhs = c * expected`` for ``lhs`` a list of ``(coefficient, state)``
        terms: the residual of each state, relative to ``c * expected``, or to
        the first term when c is 0, as in :func:`_relative_residual`."""
        num = _factored_norms(*lhs, *([(-c, expected)] if c else []))
        den = _factored_norms(*([(c, expected)] if c else lhs[:1]))
        ratio = np.where(num == 0.0, 0.0, np.inf)
        np.divide(num, den, out=ratio, where=den > 0.0)
        records.setdefault(law, []).append(ratio)

    def act(*names: str) -> tuple:
        return leg_product(ops, products, names)

    def comm(f: str, g: str) -> list:
        return [(1, act(f, g)), (-1, act(g, f))]

    record("[K,P] = ihbar*M (totals)", comm("K", "P"), 1j * (m_a + m_b))
    record("[K,H] = ihbar*P (totals)", comm("K", "H"), 1j, act("P"))
    record("[P,H] = 0 (totals)", comm("P", "H"))
    for tag, m_r in (("a", m_a), ("b", m_b)):
        x_r, p_r = "X" + tag, "P" + tag
        record("[P_total, X_part] = -ihbar", comm("P", x_r), -1j)
        record("[P_total, P_part] = 0", comm("P", p_r))
        record("[K_total, X_part] = 0", comm("K", x_r))
        record("[K_total, P_part] = ihbar*m_part", comm("K", p_r), 1j * m_r)
    record("M_total = (m_a + m_b)*identity", [(1, act("M"))], m_a + m_b)
    record("cross-part generators commute", comm("Ka", "Pb"))

    return _bracket_detail(
        f"additive-pair({part_a.name}, {part_b.name})",
        f"products of masked states: {part_a.mask.description}",
        {law: float(np.max(ratios)) for law, ratios in records.items()},
    )
