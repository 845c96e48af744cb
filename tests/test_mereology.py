import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsystems import mereology, suites
from qsystems.mereology import NULL, associate, composition, is_part_of

individuals = st.frozensets(st.sampled_from("abcdef"), max_size=6)


def ind(*names: str) -> frozenset[str]:
    return frozenset(names)


@given(individuals, individuals, individuals)
def test_association_monoid_laws(x, y, z):
    assert associate(associate(x, y), z) == associate(x, associate(y, z))
    assert associate(x, y) == associate(y, x)
    assert associate(x, x) == x
    assert associate(x, NULL) == x
    assert associate(NULL, x) == x


@given(individuals, individuals, individuals)
def test_parthood_partial_order(x, y, z):
    assert is_part_of(x, x)
    if is_part_of(x, y) and is_part_of(y, x):
        assert x == y
    if is_part_of(x, y) and is_part_of(y, z):
        assert is_part_of(x, z)


@given(individuals, individuals)
def test_parts_of_associations(x, y):
    assert is_part_of(x, associate(x, y))
    assert is_part_of(NULL, x)


def test_part_of_examples():
    a = ind("a")
    ab = ind("a", "b")
    ac = ind("a", "c")
    assert is_part_of(NULL, a)
    assert is_part_of(a, ab)
    assert not is_part_of(ac, ab)


def test_simple_composed_classification():
    # A simple individual has no parts but null and itself; a composed one has more.
    assert composition(NULL) == frozenset({NULL})
    assert composition(ind("a")) == frozenset({NULL, ind("a")})
    assert len(composition(ind("a", "b"))) > 2


def test_composition_enumerates_all_parts():
    ab = ind("a", "b")
    assert composition(ab) == frozenset(
        {NULL, ind("a"), ind("b"), ab}
    )
    assert composition(NULL) == frozenset({NULL})
    assert composition(ind("a")) == frozenset({NULL, ind("a")})


@given(individuals)
def test_composition_members_are_parts(x):
    for part in composition(x):
        assert is_part_of(part, x)


def test_composition_refuses_huge_individuals():
    big = frozenset(f"atom{i}" for i in range(20))
    with pytest.raises(ValueError):
        composition(big)


def test_thing_identity_notions():
    # an individual is its atoms: order and repetition do not matter
    assert ind("a", "b") == ind("b", "a", "b")
    assert hash(ind("a", "b")) == hash(ind("b", "a"))
    assert ind("a") != ind("a", "b")


def test_physical_sum_joins_members_and_links():
    xy, uv = ind("x", "y"), ind("u", "v")
    joined = associate(xy, uv)
    assert joined == ind("x", "y", "u", "v")
    assert is_part_of(xy, joined) and is_part_of(uv, joined)
    assert composition(xy) | composition(uv) <= composition(joined)

# --- the axioms suite's law check over the finite model --------------------

SMALL_POOL = list("abcdef")


def _drop_atom_a(x, y):
    return (x | y) - {"a"}


def _not_idempotent(x, y):
    return NULL if x == y and x else x | y


def _leaves_the_model(x, y):
    extra = {"z"} if len(x) == 2 else set()
    return x | y | extra


def _null_above_singletons(x, y):
    return associate(x, y) == y or (len(x) == 1 and not y)


def _singletons_meet_in_null(x, y):
    """Two distinct singletons associate to the null individual, so the null
    and the singletons generate only themselves."""
    return NULL if len(x) == len(y) == 1 and x != y else x | y


@pytest.mark.parametrize(
    "name, broken",
    [
        ("associate", _drop_atom_a),
        ("associate", _not_idempotent),
        ("associate", _leaves_the_model),
        ("is_part_of", _null_above_singletons),
    ],
)
@pytest.mark.parametrize("pool", [SMALL_POOL, list("abcdefghi")])
def test_law_check_catches_broken_model(name, broken, pool, monkeypatch):
    monkeypatch.setattr(mereology, name, broken)
    assert suites._mereology_law_failures(np.random.default_rng(0), pool, 2000) > 0


@pytest.mark.parametrize("pool", [list("abcdefgh"), list("abcdefghi")])
def test_law_check_passes_correct_model(pool):
    assert suites._mereology_law_failures(np.random.default_rng(0), pool, 2000) == 0


def test_exhaustive_law_check_draws_nothing_from_rng():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert suites._mereology_law_failures(rng, SMALL_POOL, 2000) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "pool, exhaustive, instances",
    [(list("abcdefgh"), True, 256 ** 3), (list("abcdefghi"), False, 300)],
)
def test_axioms_report_names_the_law_check_path(pool, exhaustive, instances):
    cheap = {
        "atom_pool": pool,
        "mereology_instances": 300,
        "spin_values": [0.5],
        "grid_sites": 16,
        "n_test_states": 2,
    }
    record = suites.run_axioms(cheap).checks[0]
    assert record.check_id == "mereology-monoid-parthood"
    assert record.passed and record.value == 0
    assert record.detail == {"instances": instances, "exhaustive": exhaustive}


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
        "grid_sites": 16,
        "n_test_states": 2,
    }
    suites.run_axioms(cheap)
    assert seen == [instances]


def _oracle_law_failures(pool):
    """Failing triples by a plain loop over the finite model of ``pool``,
    applying each law as ``suites._exhaustive_law_failures`` documents it: a
    triple fails when a law instantiated at x, at (x, y) or at (x, y, z)
    fails, and an association outside the model fails its pair."""
    assoc, part = mereology.associate, mereology.is_part_of
    model = composition(frozenset(pool))

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
