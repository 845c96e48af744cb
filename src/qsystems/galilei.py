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
law texts keep ``ihbar`` to show where it enters.  Grid masks live in
:mod:`qsystems.grids`; the additive grid pair applies one-particle words leg
by leg to product states, and reads its norms from one thin QR per leg.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grids
from .grids import DomainMask, GridSpec
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
    "position_momentum_residual",
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
        # The hermitian M + atol I has a Cholesky factor when it is positive
        # definite, that is when every eigenvalue of M lies above -atol: one
        # factorization in place of an eigensolve.
        mass = self.images["M"]
        try:
            np.linalg.cholesky(mass + _VALIDATE_ATOL * np.eye(mass.shape[0]))
        except np.linalg.LinAlgError:
            raise ValueError("mass image has a negative eigenvalue") from None


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


def position_momentum_residual(rep: AlgebraRep) -> float:
    """The largest singular value of ([X, P] - i*hbar) B over the mask basis
    B: the residual of the band's worst unit state, read from the eigenvalues
    of the small m x m matrix D^H D of D = ([X, P] - i*hbar) B.

    X is the boost image divided by the mass.  Requires a masked (grid)
    representation.
    """
    if rep.mask is None:
        raise ValueError("representation has no domain mask")
    basis = rep.mask.basis
    x = rep.image("K1") / rep.mass
    p = rep.image("P1")
    delta = x @ (p @ basis) - p @ (x @ basis) - 1j * basis
    return float(np.sqrt(np.linalg.eigvalsh(delta.conj().T @ delta)[-1]))


def _leg_terms(products: list) -> dict[tuple[str, str], complex]:
    """The sum of ``(c, *names)`` operator products, each applied to a test
    state a (x) b, as ``{(word_a, word_b): coefficient}``.

    A name ending in "a" or "b" acts on that leg; a bare generator name is
    the total, the sum of both legs.  A word is the string of one-leg
    operators that acts on its leg: "KP" is K(P(leg)), and "" is the leg
    itself.  Equal terms add, so opposite ones cancel exactly.
    """
    terms: dict[tuple[str, str], complex] = {}
    for c, *names in products:
        for atoms in itertools.product(*((f + "a", f + "b") if len(f) == 1 else (f,) for f in names)):
            words = tuple("".join(atom[0] for atom in atoms if atom[1] == tag) for tag in "ab")
            terms[words] = terms.get(words, 0) + c
    return terms


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
    states, and every operator here acts on one leg, so every side of every
    law is a short sum ``sum_t c_t (w_t a) (x) (v_t b)`` of one-leg words
    (:func:`_leg_terms`).  Each distinct word is applied once to all of its
    leg's test states, and one thin QR per leg, ``W = Q R`` of the
    ``(n_states, n, words)`` stack, gives every norm as
    ``||R_a[:, I] diag(c) R_b[:, J]^T||_F``; the QR keeps the conditioning
    that Gram matrices would square.  Checked, per test state and with
    relative residuals: the bracket relations among the total H, P, K, M;
    the mixed relations of each total generator with every per-part
    position and momentum; exact additivity of the mass; and commutation of
    generators lifted from different parts.  Each law's residual is its
    largest over the test states, NaN included.
    """
    for part in (part_a, part_b):
        if part.mask is None:
            raise ValueError(f"{part.name} has no domain mask")
    rng = np.random.default_rng(seed)
    states = [part.mask.random_states(n_states, rng) for part in (part_a, part_b)]
    m_a, m_b = part_a.mass, part_b.mass

    def comm(f: str, g: str) -> list:
        return [(1, f, g), (-1, g, f)]

    # Each law as (text, lhs, c, expected): lhs = c * expected, for lhs a list
    # of (coefficient, *names) products; the residual is relative to
    # c * expected, or to the first product when c is 0, as in
    # :func:`_relative_residual`.
    laws = [
        ("[K,P] = ihbar*M (totals)", comm("K", "P"), 1j * (m_a + m_b), ()),
        ("[K,H] = ihbar*P (totals)", comm("K", "H"), 1j, ("P",)),
        ("[P,H] = 0 (totals)", comm("P", "H"), 0, ()),
    ]
    for tag, m_r in (("a", m_a), ("b", m_b)):
        x_r, p_r = "X" + tag, "P" + tag
        laws += [
            ("[P_total, X_part] = -ihbar", comm("P", x_r), -1j, ()),
            ("[P_total, P_part] = 0", comm("P", p_r), 0, ()),
            ("[K_total, X_part] = 0", comm("K", x_r), 0, ()),
            ("[K_total, P_part] = ihbar*m_part", comm("K", p_r), 1j * m_r, ()),
        ]
    laws += [
        ("M_total = (m_a + m_b)*identity", [(1, "M")], m_a + m_b, ()),
        ("cross-part generators commute", comm("Ka", "Pb"), 0, ()),
    ]
    # The numerator and the denominator of every law, in turn.
    sides = [
        _leg_terms(side)
        for _, lhs, c, expected in laws
        for side in (([*lhs, (-c, *expected)], [(c, *expected)]) if c else (lhs, lhs[:1]))
    ]

    words, r_factors = [], []
    for leg, part in enumerate((part_a, part_b)):
        k = np.diag(part.image("K1"))
        ops = {"P": part.image("P1"), "K": k, "H": part.image("H"), "M": np.diag(part.image("M")),
               "X": k / part.mass}
        # Every word with its suffixes, shortest first: each is one operator
        # applied to a word already applied, a diagonal one elementwise.
        applied = {"": states[leg]}
        for word in sorted({key[leg][i:] for side in sides for key in side for i in range(len(key[leg]))},
                           key=lambda w: (len(w), w)):
            op, rest = ops[word[0]], applied[word[1:]]
            applied[word] = op[:, None] * rest if op.ndim == 1 else op @ rest
        words.append({word: i for i, word in enumerate(applied)})
        r_factors.append(np.linalg.qr(np.stack(list(applied.values()), axis=-1).transpose(1, 0, 2), mode="r"))

    def norms(terms: dict) -> np.ndarray:
        """||R_a[:, I] diag(c) R_b[:, J]^T||_F per test state, for the
        ``terms`` {(word I, word J): c}."""
        r_a, r_b = (r[..., [words[leg][key[leg]] for key in terms]] for leg, r in enumerate(r_factors))
        return np.linalg.norm((r_a * np.array(list(terms.values()))) @ np.swapaxes(r_b, -1, -2), axis=(-2, -1))

    records: dict[str, list[np.ndarray]] = {}
    for (text, *_), num_terms, den_terms in zip(laws, sides[::2], sides[1::2]):
        num, den = norms(num_terms), norms(den_terms)
        ratio = np.where(num == 0.0, 0.0, np.inf)
        np.divide(num, den, out=ratio, where=den > 0.0)
        records.setdefault(text, []).append(ratio)
    return _bracket_detail(
        f"additive-pair({part_a.name}, {part_b.name})",
        f"products of masked states: {part_a.mask.description}",
        {law: float(np.max(ratios)) for law, ratios in records.items()},
    )
