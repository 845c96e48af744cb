"""The centrally extended Galilei Lie algebra: exact structure constants and
concrete operator representations.

Two layers live here.  The exact layer works with formal linear combinations
of the eleven generators H, P1..P3, K1..K3, J1..J3, M over rational
coefficients times powers of (i*hbar); antisymmetry and the Jacobi identity
are checked with no floating point at all.  The numeric layer builds dense
matrix representations (spin, periodic grid, additive composites) and
measures how well each one reproduces the bracket table, restricted to the
subspace on which the representation makes its claims.  A representation
holds images of exactly the generators it asserts.  Grid masks and the
leg-by-leg two-particle products live in :mod:`qsystems.grids`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import grids
from .grids import DomainMask, GridSpec, leg_product
from .hilbert import Operator, SpaceSpec, lift

__all__ = [
    "LABELS",
    "generator",
    "abstract_bracket",
    "combo_add",
    "combo_scale",
    "combo_is_zero",
    "jacobi_residual",
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

LABELS = ("H", "P1", "P2", "P3", "K1", "K2", "K3", "J1", "J2", "J3", "M")

# Coefficients are polynomials in (i*hbar): {power: Fraction}.  A formal
# combination maps generator label -> coefficient.
Coeff = dict
Combo = dict

_LEVI_CIVITA = {
    (1, 2, 3): 1,
    (2, 3, 1): 1,
    (3, 1, 2): 1,
    (1, 3, 2): -1,
    (3, 2, 1): -1,
    (2, 1, 3): -1,
}


def _build_table() -> dict[tuple[str, str], dict[str, Fraction]]:
    table: dict[tuple[str, str], dict[str, Fraction]] = {}

    def put(a: str, b: str, combo: Mapping[str, int]) -> None:
        table[(a, b)] = {lab: Fraction(c) for lab, c in combo.items() if c}
        table[(b, a)] = {lab: -Fraction(c) for lab, c in combo.items() if c}

    for (i, j, k), sign in _LEVI_CIVITA.items():
        if i < j:
            put(f"J{i}", f"J{j}", {f"J{k}": sign})
        put(f"J{i}", f"K{j}", {f"K{k}": sign})
        put(f"J{i}", f"P{j}", {f"P{k}": sign})
    for i in (1, 2, 3):
        put(f"K{i}", "H", {f"P{i}": 1})
        put(f"K{i}", f"P{i}", {"M": 1})
    return table


_TABLE = _build_table()


def generator(label: str) -> Combo:
    """The formal combination consisting of a single generator."""
    if label not in LABELS:
        raise ValueError(f"unknown generator {label!r}")
    return {label: {0: Fraction(1)}}


def _coeff_add(a: Coeff, b: Coeff) -> Coeff:
    out = dict(a)
    for power, frac in b.items():
        total = out.get(power, Fraction(0)) + frac
        if total:
            out[power] = total
        else:
            out.pop(power, None)
    return out


def _coeff_mul(a: Coeff, b: Coeff) -> Coeff:
    out: Coeff = {}
    for pa, fa in a.items():
        for pb, fb in b.items():
            power = pa + pb
            total = out.get(power, Fraction(0)) + fa * fb
            if total:
                out[power] = total
            else:
                out.pop(power, None)
    return out


def combo_add(x: Combo, y: Combo) -> Combo:
    out = {label: dict(coeff) for label, coeff in x.items()}
    for label, coeff in y.items():
        merged = _coeff_add(out.get(label, {}), coeff)
        if merged:
            out[label] = merged
        else:
            out.pop(label, None)
    return out


def combo_scale(x: Combo, rational, ih_power: int = 0) -> Combo:
    factor = {ih_power: Fraction(rational)}
    out: Combo = {}
    for label, coeff in x.items():
        scaled = _coeff_mul(coeff, factor)
        if scaled:
            out[label] = scaled
    return out


def combo_is_zero(x: Combo) -> bool:
    return all(not coeff for coeff in x.values())


def abstract_bracket(x: Combo, y: Combo) -> Combo:
    """Bilinear extension of the bracket table; exact arithmetic throughout.

    Every elementary bracket contributes one factor of (i*hbar), so nesting
    raises the power.
    """
    out: Combo = {}
    for la, ca in x.items():
        for lb, cb in y.items():
            entry = _TABLE.get((la, lb))
            if not entry:
                continue
            weight = _coeff_mul(ca, cb)
            for lc, frac in entry.items():
                term = _coeff_mul(weight, {1: frac})
                merged = _coeff_add(out.get(lc, {}), term)
                if merged:
                    out[lc] = merged
                else:
                    out.pop(lc, None)
    return out


def jacobi_residual(a: str, b: str, c: str) -> Combo:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]], exactly."""
    ga, gb, gc = generator(a), generator(b), generator(c)
    total = abstract_bracket(ga, abstract_bracket(gb, gc))
    total = combo_add(total, abstract_bracket(gb, abstract_bracket(gc, ga)))
    total = combo_add(total, abstract_bracket(gc, abstract_bracket(ga, gb)))
    return total


def verify_structure() -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str, str], ...]]:
    """Antisymmetry over all 55 generator pairs and Jacobi over all 165
    triples, exactly: the failing pairs and the failing triples."""
    anti_fail = []
    for a, b in itertools.combinations(LABELS, 2):
        s = combo_add(abstract_bracket(generator(a), generator(b)),
                      abstract_bracket(generator(b), generator(a)))
        if not combo_is_zero(s):
            anti_fail.append((a, b))
    jacobi_fail = []
    for a, b, c in itertools.combinations(LABELS, 3):
        if not combo_is_zero(jacobi_residual(a, b, c)):
            jacobi_fail.append((a, b, c))
    return tuple(anti_fail), tuple(jacobi_fail)


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
    hbar: float
    mass: float
    mask: DomainMask | None = None
    name: str = "rep"

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

    def validate(self, atol: float = 1e-10) -> None:
        for lab, mat in self.images.items():
            if np.max(np.abs(mat - mat.conj().T)) > atol:
                raise ValueError(f"image of {lab} is not hermitian")
        m_eigs = np.linalg.eigvalsh(self.images["M"])
        if m_eigs.min() < -atol:
            raise ValueError("mass image has a negative eigenvalue")


def _zeros(d: int) -> np.ndarray:
    return np.zeros((d, d), dtype=np.complex128)


def build_spin_rep(j, hbar: float = 1.0, mass: float = 1.0) -> AlgebraRep:
    """Rotation-sector representation of dimension 2j+1.

    Parameters
    ----------
    j : half-integer spin (1/2, 1, 3/2, ...).
    hbar, mass : scale of the angular momenta and the central mass value.

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
    jz = hbar * np.diag(m_values).astype(np.complex128)
    jplus = _zeros(dim)
    for i in range(1, dim):
        m = m_values[i]
        jplus[i - 1, i] = hbar * np.sqrt(jv * (jv + 1) - m * (m + 1))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return AlgebraRep(
        space=SpaceSpec.single(dim),
        images={"J1": jx, "J2": jy, "J3": jz, "M": mass * np.eye(dim, dtype=np.complex128)},
        hbar=hbar,
        mass=mass,
        mask=None,
        name=f"spin(j={jv:g})",
    )


def casimir_squared(rep: AlgebraRep) -> np.ndarray:
    """J1^2 + J2^2 + J3^2 for the representation."""
    total = _zeros(rep.space.total_dim)
    for lab in ("J1", "J2", "J3"):
        mat = rep.image(lab)
        total = total + mat @ mat
    return total


def build_grid_rep(
    n_sites: int,
    length: float,
    mass: float,
    hbar: float = 1.0,
    band_fraction: float = 1.0 / 3.0,
    envelope_frac: float = 1.0 / 16.0,
) -> AlgebraRep:
    """One-dimensional periodic-grid representation of the free subalgebra.

    Position is diagonal, momentum is the spectral derivative, boosts are
    mass times position, the energy is kinetic.  The canonical pair cannot
    satisfy its bracket exactly in finite dimensions (the trace of a
    commutator vanishes, the trace of i*hbar*M does not), so the bracket
    claims are restricted to the returned band-limited interior mask.

    The single spatial axis realizes H, P1, K1, M, the only images the
    representation carries.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    grid = GridSpec(n_sites=n_sites, length=float(length))
    pos = np.diag(grids.position_values(grid)).astype(np.complex128)
    return AlgebraRep(
        space=SpaceSpec.single(n_sites),
        images={
            "H": grids.kinetic_operator(grid, mass, hbar),
            "P1": grids.momentum_operator(grid, hbar),
            "K1": mass * pos,
            "M": mass * np.eye(n_sites, dtype=np.complex128),
        },
        hbar=hbar,
        mass=mass,
        mask=grids.band_limited_mask(grid, band_fraction, envelope_frac),
        name=f"grid(n={n_sites}, L={length:g}, m={mass:g})",
    )


def build_additive_rep(parts: Sequence[AlgebraRep], max_dense_dim: int = 4096) -> AlgebraRep:
    """Composite representation: tensor-product space, summed lifted generators.

    The composite carries the generators that every part carries.  Each
    image is the sum over parts of that part's image lifted by identities on
    the other factors; in particular the total mass image is the sum of the
    part masses.  Dense construction only; beyond
    ``max_dense_dim`` use :func:`verify_additive_grid_pair`, which applies the
    lifted operators matrix-free.
    """
    if not parts:
        raise ValueError("need at least one part")
    hbar = parts[0].hbar
    if any(p.hbar != hbar for p in parts):
        raise ValueError("parts disagree on hbar")
    dims = [p.space.total_dim for p in parts]
    total_dim = int(np.prod(dims))
    if total_dim > max_dense_dim:
        raise ValueError(
            f"dense additive rep of dim {total_dim} exceeds bound {max_dense_dim}"
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
    mask = None
    if all(p.mask is not None for p in parts):
        basis = parts[0].mask.basis
        for p in parts[1:]:
            basis = np.kron(basis, p.mask.basis)
        mask = DomainMask(
            basis=basis,
            description=" (x) ".join(p.mask.description for p in parts),
        )
    return AlgebraRep(
        space=space,
        images=images,
        hbar=hbar,
        mass=float(sum(p.mass for p in parts)),
        mask=mask,
        name="additive(" + ", ".join(p.name for p in parts) + ")",
    )


def _bracket_detail(name: str, mask_description: str, residuals: dict, tolerance: float) -> dict:
    """Report detail of a bracket verification: one record per law, from the
    ``residuals`` mapping of law text to relative residual."""
    checks = [
        {"law": law, "residual": value, "tolerance": tolerance, "pass": value <= tolerance}
        for law, value in residuals.items()
    ]
    return {
        "representation": name,
        "domain_mask": mask_description,
        "checks": checks,
        "max_residual": max(residuals.values(), default=0.0),
        "pass": all(c["pass"] for c in checks),
    }


def _expected_image(rep: AlgebraRep, a: str, b: str) -> np.ndarray:
    """Image of [a, b] according to the exact table: (i*hbar) * sum c * image."""
    combo = _TABLE.get((a, b), {})
    total = _zeros(rep.space.total_dim)
    for label, frac in combo.items():
        total = total + (1j * rep.hbar * float(frac)) * rep.image(label)
    return total


def _law_string(a: str, b: str) -> str:
    combo = _TABLE.get((a, b), {})
    if not combo:
        return f"[{a},{b}] = 0"
    terms = []
    for label, frac in sorted(combo.items()):
        prefix = "" if frac == 1 else ("-" if frac == -1 else f"({frac})*")
        terms.append(f"{prefix}ihbar*{label}")
    return f"[{a},{b}] = " + " + ".join(terms)


def _relative_residual(delta: np.ndarray, *references: np.ndarray) -> float:
    num = float(np.linalg.norm(delta))
    den = max((float(np.linalg.norm(r)) for r in references), default=0.0)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def verify_rep(rep: AlgebraRep, tolerance: float) -> dict:
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
    return _bracket_detail(rep.name, mask_description, residuals, tolerance)


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
    delta = x @ (p @ states) - p @ (x @ states) - 1j * rep.hbar * states
    return np.linalg.norm(delta, axis=0) / rep.hbar


def verify_additive_grid_pair(
    part_a: AlgebraRep,
    part_b: AlgebraRep,
    tolerance: float,
    n_states: int = 20,
    seed: int = 0,
) -> dict:
    """Additivity relations for two grid parts, applied matrix-free, as
    report detail.

    The two-particle operators are never materialized: lifted one-particle
    operators act on (n, n) state arrays leg by leg (the diagonal K, X and M
    elementwise), so grids far beyond the dense-composite bound stay cheap.
    Test states are products of masked one-particle states.  Checked, per
    test state and with relative residuals: the bracket relations among the
    total H, P, K, M; the mixed relations of each total generator with every
    per-part position and momentum; exact additivity of the mass; and
    commutation of generators lifted from different parts.
    """
    for part in (part_a, part_b):
        if part.mask is None:
            raise ValueError(f"{part.name} has no domain mask")
    if part_a.hbar != part_b.hbar:
        raise ValueError("parts disagree on hbar")
    hbar = part_a.hbar
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

    records: dict[str, float] = {}

    def record(law: str, value: float) -> None:
        records[law] = max(records.get(law, 0.0), value)

    def act(*names: str) -> np.ndarray:
        return leg_product(ops, products, names)

    def comm(f: str, g: str) -> np.ndarray:
        return act(f, g) - act(g, f)

    for col in range(n_states):
        psi = np.outer(states_a[:, col], states_b[:, col])
        products = {(): psi}
        expected = 1j * hbar * (m_a + m_b) * psi
        record(
            "[K,P] = ihbar*M (totals)",
            _relative_residual(comm("K", "P") - expected, expected),
        )
        expected = 1j * hbar * act("P")
        record(
            "[K,H] = ihbar*P (totals)",
            _relative_residual(comm("K", "H") - expected, expected),
        )
        record("[P,H] = 0 (totals)", _relative_residual(comm("P", "H"), act("P", "H")))
        for tag, m_r in (("a", m_a), ("b", m_b)):
            x_r, p_r = "X" + tag, "P" + tag
            expected = -1j * hbar * psi
            record(
                "[P_total, X_part] = -ihbar",
                _relative_residual(comm("P", x_r) - expected, expected),
            )
            record("[P_total, P_part] = 0", _relative_residual(comm("P", p_r), act("P", p_r)))
            record("[K_total, X_part] = 0", _relative_residual(comm("K", x_r), act("K", x_r)))
            expected = 1j * hbar * m_r * psi
            record(
                "[K_total, P_part] = ihbar*m_part",
                _relative_residual(comm("K", p_r) - expected, expected),
            )
        expected = (m_a + m_b) * psi
        record(
            "M_total = (m_a + m_b)*identity",
            _relative_residual(act("M") - expected, expected),
        )
        record(
            "cross-part generators commute",
            _relative_residual(comm("Ka", "Pb"), act("Ka", "Pb")),
        )

    return _bracket_detail(
        f"additive-pair({part_a.name}, {part_b.name})",
        f"products of masked states: {part_a.mask.description}",
        records,
        tolerance,
    )
