import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsystems import mereology, suites
from qsystems.mereology import NULL, associate, composition, is_part_of

POOL = "abcdef"

# An individual over a pool of up to 64 atoms is any uint64 mask.
masks = st.integers(0, 2 ** 64 - 1).map(np.uint64)
mask_arrays = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=16).map(
    lambda values: np.array(values, dtype=np.uint64)
)


def ind(*names: str) -> np.uint64:
    """The individual made of the named atoms of ``POOL``."""
    return np.uint64(sum(1 << POOL.index(name) for name in set(names)))


def _size(x):
    """The number of atoms of each individual, without ``np.bitwise_count``."""
    as_bytes = np.asarray(x, dtype="<u8")[..., None].view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1).sum(axis=-1)


@given(masks, masks, masks)
def test_association_monoid_laws(x, y, z):
    assert associate(associate(x, y), z) == associate(x, associate(y, z))
    assert associate(x, y) == associate(y, x)
    assert associate(x, x) == x
    assert associate(x, NULL) == x
    assert associate(NULL, x) == x


@given(masks, masks, masks)
def test_parthood_partial_order(x, y, z):
    assert is_part_of(x, x)
    if is_part_of(x, y) and is_part_of(y, x):
        assert x == y
    if is_part_of(x, y) and is_part_of(y, z):
        assert is_part_of(x, z)


@given(masks, masks)
def test_parts_of_associations(x, y):
    assert is_part_of(x, associate(x, y))
    assert is_part_of(NULL, x)


@given(mask_arrays, st.randoms(use_true_random=False))
def test_library_acts_on_arrays_as_on_each_individual(xs, random):
    ys = np.array(random.sample(list(xs), len(xs)), dtype=np.uint64)
    joined, parts = associate(xs, ys), is_part_of(xs, ys)
    assert joined.dtype == np.uint64 and parts.dtype == bool
    for x, y, xy, p in zip(xs, ys, joined, parts):
        assert associate(x, y) == xy and is_part_of(x, y) == p


def test_part_of_examples():
    a = ind("a")
    ab = ind("a", "b")
    ac = ind("a", "c")
    assert is_part_of(NULL, a)
    assert is_part_of(a, ab)
    assert not is_part_of(ac, ab)


def _parts(x) -> set[int]:
    return set(composition(x).tolist())


def test_simple_composed_classification():
    # A simple individual has no parts but null and itself; a composed one has more.
    assert _parts(NULL) == {NULL}
    assert _parts(ind("a")) == {NULL, ind("a")}
    assert len(_parts(ind("a", "b"))) > 2


def test_composition_enumerates_all_parts():
    ab = ind("a", "b")
    assert _parts(ab) == {NULL, ind("a"), ind("b"), ab}
    assert _parts(NULL) == {NULL}
    assert _parts(ind("a")) == {NULL, ind("a")}
    # The parts come in increasing order, so the whole model indexes itself.
    assert composition(ind("a", "c", "f")).tolist() == [0, 1, 4, 5, 32, 33, 36, 37]
    np.testing.assert_array_equal(composition((1 << 8) - 1), np.arange(256))


@given(masks)
def test_composition_members_are_parts(x):
    # Keep at most 10 atoms of x, so the enumeration stays small.
    x = int(x) & int(np.uint64(0x8040_2010_0804_0201) | np.uint64(0b11))
    parts = composition(x)
    assert parts.dtype == np.uint64 and len(parts) == 2 ** _size(x)
    assert np.all(is_part_of(parts, np.uint64(x)))


def test_composition_refuses_huge_individuals():
    with pytest.raises(ValueError):
        composition((1 << 20) - 1)
    with pytest.raises(ValueError):
        composition(np.uint64(2 ** 64 - 1))


def test_thing_identity_notions():
    # an individual is its atoms: order and repetition do not matter
    assert ind("a", "b") == ind("b", "a", "b")
    assert hash(ind("a", "b")) == hash(ind("b", "a"))
    assert ind("a") != ind("a", "b")


def test_physical_sum_joins_members_and_links():
    xy, uv = ind("e", "f"), ind("c", "d")
    joined = associate(xy, uv)
    assert joined == ind("e", "f", "c", "d")
    assert is_part_of(xy, joined) and is_part_of(uv, joined)
    assert _parts(xy) | _parts(uv) <= _parts(joined)


def _frozenset_tables(pool):
    """Association and parthood tables of the frozenset model of ``pool``
    (union and inclusion), each individual at the index of its mask over the
    sorted distinct atoms."""
    atoms = sorted(set(pool))
    individuals = [
        frozenset(combo) for r in range(len(atoms) + 1) for combo in itertools.combinations(atoms, r)
    ]

    def mask(x):
        return sum(1 << atoms.index(atom) for atom in x)

    n = len(individuals)
    assoc, part = np.zeros((n, n), dtype=np.uint64), np.zeros((n, n), dtype=bool)
    for x in individuals:
        for y in individuals:
            assoc[mask(x), mask(y)] = mask(x | y)
            part[mask(x), mask(y)] = x <= y
    return assoc, part


def test_bit_masks_give_the_frozenset_tables_over_five_atoms():
    assoc, part = _frozenset_tables(list("edcba"))
    ids = composition((1 << 5) - 1)
    np.testing.assert_array_equal(associate(ids[:, None], ids[None, :]), assoc)
    np.testing.assert_array_equal(is_part_of(ids[:, None], ids[None, :]), part)


# --- the axioms suite's law check over the finite model --------------------

SMALL_POOL = list("abcdef")
# A bit no pool of fewer than 64 atoms uses.
OUTSIDE = np.uint64(1 << 63)


def _drop_atom_a(x, y):
    return (x | y) & ~np.uint64(1)


def _not_idempotent(x, y):
    return np.where((x == y) & (x != NULL), np.uint64(NULL), x | y)


def _leaves_the_model(x, y):
    return x | y | np.where(_size(x) == 2, OUTSIDE, np.uint64(0))


def _null_above_singletons(x, y):
    return (associate(x, y) == y) | ((_size(x) == 1) & (y == NULL))


def _singletons_meet_in_null(x, y):
    """Two distinct singletons associate to the null individual, so the null
    and the singletons generate only themselves."""
    return np.where((_size(x) == 1) & (_size(y) == 1) & (x != y), np.uint64(NULL), x | y)


@pytest.mark.parametrize(
    "name, broken",
    [
        ("associate", _drop_atom_a),
        ("associate", _not_idempotent),
        ("associate", _leaves_the_model),
        ("is_part_of", _null_above_singletons),
        ("associate", _singletons_meet_in_null),
    ],
)
@pytest.mark.parametrize("pool", [SMALL_POOL, list("abcdefghi"), list("abcdefghijkl")])
def test_law_check_catches_broken_model(name, broken, pool, monkeypatch):
    monkeypatch.setattr(mereology, name, broken)
    assert suites._mereology_law_failures(np.random.default_rng(0), pool, 2000) > 0


@pytest.mark.parametrize(
    "pool", [list("abcdefgh"), list("abcdefghi"), [f"atom{i}" for i in range(64)]]
)
def test_law_check_passes_correct_model(pool):
    assert suites._mereology_law_failures(np.random.default_rng(0), pool, 2000) == 0


def test_sampled_individuals_take_every_size_equally_often(monkeypatch):
    # Each individual's size is uniform in 0 .. atoms, as the laws at the null
    # and at the singletons need: a coin per atom would almost never draw them.
    seen = []

    def recording(x, y):
        seen.append(np.asarray(x))
        return x | y

    monkeypatch.setattr(mereology, "associate", recording)
    suites._sampled_law_failures(np.random.default_rng(0), 12, 13_000)
    counts = np.bincount(_size(seen[0]), minlength=13)
    assert counts.sum() == 13_000 and np.all(np.abs(counts - 1000) < 5 * np.sqrt(1000))


def test_sampled_law_check_counts_every_triple_of_every_block(monkeypatch):
    # Association that always leaves the model breaks idempotence at every
    # triple, so the count is the number of triples checked: 700 + 700 + 600.
    monkeypatch.setattr(suites, "_SAMPLE_BLOCK", 700)
    monkeypatch.setattr(mereology, "associate", lambda x, y: x | y | OUTSIDE)
    assert suites._sampled_law_failures(np.random.default_rng(0), 9, 2000) == 2000


def test_exhaustive_law_check_draws_nothing_from_rng():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert suites._mereology_law_failures(rng, SMALL_POOL, 2000) == 0
    assert rng.bit_generator.state == before


# grid_sites at its least value keeps these axioms runs cheap.
CHEAP_GRID_SITES = suites._COUNT_RANGES["axioms.grid_sites"][0]


@pytest.mark.parametrize(
    "pool, exhaustive, instances",
    [(list("abcdefgh"), True, 256 ** 3), (list("abcdefghi"), False, 300)],
)
def test_axioms_report_names_the_law_check_path(pool, exhaustive, instances):
    cheap = {
        "atom_pool": pool,
        "mereology_instances": 300,
        "spin_values": [0.5],
        "grid_sites": CHEAP_GRID_SITES,
        "n_test_states": 2,
    }
    record = suites.run_suite("axioms", cheap)["checks"][0]
    assert record["id"] == "mereology-monoid-parthood"
    assert record["pass"] and record["value"] == 0
    assert record["detail"] == {"instances": instances, "exhaustive": exhaustive}


@pytest.mark.parametrize(
    "pool, instances", [(list("abcdefgh"), 256 ** 3), (list("abcdefghijkl"), 300)]
)
def test_law_check_is_given_the_number_of_triples_it_checks(pool, instances, monkeypatch):
    # A caller that reads the argument, such as a profiler's counter, sees the
    # 256**3 triples of the exhaustive path, not the unused sample count.
    seen = []
    law_failures = suites._mereology_law_failures

    def recording(rng, pool, instances):
        seen.append(instances)
        return law_failures(rng, pool, instances)

    monkeypatch.setattr(suites, "_mereology_law_failures", recording)
    cheap = {
        "atom_pool": pool,
        "mereology_instances": 300,
        "spin_values": [0.5],
        "grid_sites": CHEAP_GRID_SITES,
        "n_test_states": 2,
    }
    suites.run_suite("axioms", cheap)
    assert seen == [instances]


def _oracle_law_failures(pool):
    """Failing triples by a plain loop over the finite model of ``pool``,
    applying each law as ``suites._exhaustive_law_failures`` documents it: a
    triple fails when a law instantiated at x, at (x, y) or at (x, y, z)
    fails, and an association outside the model fails its pair.  The library
    is called on one pair of ``uint64`` masks at a time."""
    model = range(2 ** len(set(pool)))

    @functools.cache
    def assoc(x, y):
        return int(mereology.associate(np.uint64(x), np.uint64(y)))

    @functools.cache
    def part(x, y):
        return bool(mereology.is_part_of(np.uint64(x), np.uint64(y)))

    def unary_bad(x):
        return assoc(x, x) != x or assoc(x, NULL) != x or not part(x, x)

    def pair_bad(x, y):
        xy = assoc(x, y)
        return (
            xy not in model
            or xy != assoc(y, x)
            or not part(x, xy)
            or (part(x, y) and part(y, x) and x != y)
        )

    def triple_bad(x, y, z):
        return assoc(assoc(x, y), z) != assoc(x, assoc(y, z)) or (
            part(x, y) and part(y, z) and not part(x, z)
        )

    return sum(
        unary_bad(x) or pair_bad(x, y) or triple_bad(x, y, z)
        for x in model
        for y in model
        for z in model
    )


@pytest.mark.parametrize(
    "name, broken",
    [
        (None, None),
        ("associate", _drop_atom_a),
        ("associate", _not_idempotent),
        ("associate", _leaves_the_model),
        ("is_part_of", _null_above_singletons),
        ("associate", _singletons_meet_in_null),
    ],
)
@pytest.mark.parametrize("pool", [[], list("a"), list("ab"), list("abc"), list("abcd")])
def test_exhaustive_law_check_matches_a_loop_oracle(name, broken, pool, monkeypatch):
    if name:
        monkeypatch.setattr(mereology, name, broken)
    assert suites._exhaustive_law_failures(pool) == _oracle_law_failures(pool)


LIBRARIES = [
    (None, None),
    ("associate", _drop_atom_a),
    ("associate", _not_idempotent),
    ("associate", _leaves_the_model),
    ("is_part_of", _null_above_singletons),
    ("associate", _singletons_meet_in_null),
]


@pytest.mark.parametrize("name, broken", LIBRARIES)
def test_screened_count_matches_the_block_pass_over_eight_atoms(name, broken, monkeypatch):
    # The loop oracle is too slow for 256**3 triples; the block pass, which
    # the loop oracle pins on the smaller pools, stands in for it.
    if name:
        monkeypatch.setattr(mereology, name, broken)
    pool = list("abcdefgh")
    screened = suites._exhaustive_law_failures(pool)
    monkeypatch.setattr(suites, "_triples_cannot_fail", lambda *args: False)
    assert screened == suites._exhaustive_law_failures(pool)


def test_correct_library_returns_from_the_screen_without_the_block_pass(monkeypatch):
    def block_pass(*args):
        raise AssertionError("the block pass ran on a library the screen clears")

    monkeypatch.setattr(suites, "_triple_failures", block_pass)
    assert suites._exhaustive_law_failures(list("abcdefgh")) == 0


@pytest.mark.parametrize("name, broken", LIBRARIES[1:])
def test_every_broken_library_falls_back_to_the_block_pass(name, broken, monkeypatch):
    # Each mutant breaks one part of the screen: generation (_drop_atom_a,
    # _leaves_the_model, _singletons_meet_in_null), Light's test
    # (_not_idempotent) or transitivity (_null_above_singletons).
    monkeypatch.setattr(mereology, name, broken)
    calls = []
    block_pass = suites._triple_failures

    def counted(*args):
        calls.append(1)
        return block_pass(*args)

    monkeypatch.setattr(suites, "_triple_failures", counted)
    suites._exhaustive_law_failures(list("abcd"))
    assert calls == [1]


def test_screen_needs_the_generators_to_generate_the_table():
    # Null, a, b and w: a y = a and b y = b for every y, and w swaps a and
    # b (w a = b, w b = a).  Light's test holds at the generators null, a and
    # b, but they generate only themselves, and (w w) a = b while w (w a) = a.
    assoc = np.array([[0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 2], [3, 2, 1, 3]], dtype=np.uint8)
    part = np.eye(4, dtype=bool)
    generators = [0, 1, 2]
    assert all(
        np.array_equal(assoc[assoc[:, g]], assoc[:, assoc[g]]) for g in generators
    )
    assert not suites._triples_cannot_fail(assoc, part, generators)
    assert suites._triple_failures(assoc, part, np.zeros((4, 4), dtype=bool)) > 0


def _transitive_by_brute_force(part: np.ndarray) -> bool:
    """P.P <= P, by a loop over the middle individual y of every (x, y, z)."""
    reach = np.zeros_like(part)
    for y in range(len(part)):
        reach |= part[:, y, None] & part[None, y, :]
    return not (reach & ~part).any()


def _closure(relation: np.ndarray) -> np.ndarray:
    while True:
        wider = relation | (relation.astype(np.float32) @ relation.astype(np.float32) > 0)
        if np.array_equal(wider, relation):
            return relation
        relation = wider


def _without_one_pair(relation: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``relation`` with one random pair (x, z), x != z, removed."""
    pairs = np.argwhere(relation & ~np.eye(len(relation), dtype=bool))
    x, z = pairs[rng.integers(len(pairs))]
    out = relation.copy()
    out[x, z] = False
    return out


def test_transitivity_screen_matches_brute_force_over_256_individuals():
    # The association table of an 8-atom pool passes the screen's generation
    # and Light's test, so its verdict is the transitivity of ``part`` alone.
    ids = np.arange(256)
    assoc = (ids[:, None] | ids[None, :]).astype(np.uint8)
    generators = [0] + [1 << i for i in range(8)]
    subset = (ids[:, None] & ~ids[None, :]) == 0
    rng = np.random.default_rng(0)
    relations = [subset, *(rng.random((256, 256)) < p for p in (0.0005, 0.004, 0.5))]
    for density in (0.001, 0.003, 0.01):
        closed = _closure((rng.random((256, 256)) < density) | np.eye(256, dtype=bool))
        relations += [closed, *(_without_one_pair(closed, rng) for _ in range(4))]
    # Removing a covering pair x < z (z has one atom more) keeps the order
    # transitive; removing any other pair x < z breaks it.
    relations += [_without_one_pair(subset, rng) for _ in range(4)]
    covering = subset.copy()
    covering[0b0001, 0b0011] = False
    relations.append(covering)
    verdicts = [_transitive_by_brute_force(part) for part in relations]
    assert True in verdicts and False in verdicts
    for part, transitive in zip(relations, verdicts):
        assert suites._triples_cannot_fail(assoc, part, generators) == transitive
