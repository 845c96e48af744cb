import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsystems import mereology, suites
from qsystems.mereology import (
    NULL,
    Individual,
    PropertyStatus,
    SystemGraph,
    Thing,
    associate,
    classify_property,
    composition,
    environment_of,
    is_part_of,
    is_system,
    load_system_graph,
    physical_sum,
)

atoms = st.frozensets(st.sampled_from("abcdef"), max_size=6)
individuals = atoms.map(Individual)


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
    a = Individual.of("a")
    ab = Individual.of("a", "b")
    ac = Individual.of("a", "c")
    assert is_part_of(NULL, a)
    assert is_part_of(a, ab)
    assert not is_part_of(ac, ab)


def test_simple_composed_classification():
    assert not NULL.is_simple and not NULL.is_composed
    assert Individual.of("a").is_simple
    assert Individual.of("a", "b").is_composed


def test_composition_enumerates_all_parts():
    ab = Individual.of("a", "b")
    assert composition(ab) == frozenset(
        {NULL, Individual.of("a"), Individual.of("b"), ab}
    )
    assert composition(NULL) == frozenset({NULL})
    assert composition(Individual.of("a")) == frozenset({NULL, Individual.of("a")})


@given(individuals)
def test_composition_members_are_parts(x):
    for part in composition(x):
        assert is_part_of(part, x)


def test_composition_refuses_huge_individuals():
    big = Individual(frozenset(f"atom{i}" for i in range(20)))
    with pytest.raises(ValueError):
        composition(big)


def _fluid_things():
    parts = [
        Thing(Individual.of("m1"), intrinsic=frozenset({"mass"})),
        Thing(Individual.of("m2"), intrinsic=frozenset({"mass"})),
    ]
    whole = Thing(
        Individual.of("m1", "m2"),
        intrinsic=frozenset({"mass", "viscosity"}),
    )
    return whole, parts


def test_mass_is_inherited_viscosity_emergent():
    whole, parts = _fluid_things()
    assert classify_property("mass", whole, parts) is PropertyStatus.INHERITED
    assert classify_property("viscosity", whole, parts) is PropertyStatus.EMERGENT
    assert classify_property("charge", whole, parts) is PropertyStatus.ABSENT


def test_classify_property_rejects_non_parts():
    whole, _ = _fluid_things()
    alien = Thing(Individual.of("x"), intrinsic=frozenset({"mass"}))
    with pytest.raises(ValueError):
        classify_property("mass", whole, [alien])


def test_emergent_never_held_by_any_part_exhaustive():
    # Exhaustive over every sub-thing of a six-atom individual.
    import itertools

    atoms = ["a", "b", "c", "d", "e", "f"]
    whole_ind = Individual(frozenset(atoms))
    parts = []
    for r in range(1, 6):
        for combo in itertools.combinations(atoms, r):
            props = frozenset({"wet"}) if "a" in combo else frozenset()
            parts.append(Thing(Individual(frozenset(combo)), intrinsic=props))
    whole = Thing(whole_ind, intrinsic=frozenset({"wet", "alive"}))
    assert classify_property("wet", whole, parts) is PropertyStatus.INHERITED
    verdict = classify_property("alive", whole, parts)
    assert verdict is PropertyStatus.EMERGENT
    assert not any(p.has_property("alive") for p in parts)


def test_thing_identity_notions():
    t1 = Thing(Individual.of("a"), intrinsic=frozenset({"charge"}))
    t2 = Thing(
        Individual.of("a"),
        intrinsic=frozenset({"charge"}),
        relational=frozenset({("near", ("b",))}),
    )
    assert t1.identical_to(t2)
    assert not t1.same_thing(t2)
    assert t1.same_thing(Thing(Individual.of("a"), intrinsic=frozenset({"charge"})))


def _things(*names):
    return [Thing(Individual.of(n)) for n in names]


def test_is_system_requires_two_connected_members():
    x, y, z = _things("x", "y", "z")
    assert is_system(SystemGraph(frozenset({x, y}), frozenset({(x, y)})))
    assert not is_system(SystemGraph(frozenset({x, y}), frozenset()))
    assert not is_system(SystemGraph(frozenset({x}), frozenset()))
    # z dangles: connected members only
    assert not is_system(SystemGraph(frozenset({x, y, z}), frozenset({(x, y)})))


def test_self_action_does_not_connect():
    x, y = _things("x", "y")
    graph = SystemGraph(frozenset({x, y}), frozenset({(x, x), (y, y)}))
    assert not is_system(graph)


def test_environment_closed_when_universe_is_members():
    x, y = _things("x", "y")
    graph = SystemGraph(frozenset({x, y}), frozenset({(x, y)}))
    view = environment_of(graph, {x, y})
    assert view.closed and view.environment == frozenset()


def test_environment_picks_up_linked_outsiders_only():
    x, y, probe, bystander = _things("x", "y", "probe", "bystander")
    graph = SystemGraph(frozenset({x, y}), frozenset({(x, y), (probe, x)}))
    view = environment_of(graph, {x, y, probe, bystander})
    assert view.environment == frozenset({probe})
    assert not view.closed
    assert not (view.environment & graph.members)


def test_environment_requires_members_in_universe():
    x, y = _things("x", "y")
    graph = SystemGraph(frozenset({x, y}), frozenset({(x, y)}))
    with pytest.raises(ValueError):
        environment_of(graph, {x})


@given(st.lists(st.sampled_from("uvwx"), min_size=2, max_size=4, unique=True))
def test_environment_of_own_members_always_closed(names):
    things = [Thing(Individual.of(n)) for n in names]
    links = frozenset((a, b) for a in things for b in things if a != b)
    graph = SystemGraph(frozenset(things), links)
    assert environment_of(graph, things).closed


def test_physical_sum_joins_members_and_links():
    x, y, u, v = _things("x", "y", "u", "v")
    g1 = SystemGraph(frozenset({x, y}), frozenset({(x, y)}))
    g2 = SystemGraph(frozenset({u, v}), frozenset({(u, v)}))
    joined = physical_sum(g1, g2)
    assert joined.members == frozenset({x, y, u, v})
    assert joined.acts_on == frozenset({(x, y), (u, v)})


def test_load_system_graph_roundtrip(tmp_path):
    doc = {
        "things": [
            {"id": "left", "atoms": ["a"], "intrinsic": ["spin"]},
            {"id": "right", "atoms": ["b"], "relational": [["near", ["left"]]]},
            {"id": "outsider", "atoms": ["c"]},
        ],
        "members": ["left", "right"],
        "acts_on": [["left", "right"], ["outsider", "left"]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    graph, table = load_system_graph(path)
    assert is_system(graph)
    assert len(graph.members) == 2
    view = environment_of(graph, table.values())
    assert view.environment == frozenset({table["outsider"]})


def test_load_system_graph_unknown_id():
    doc = {"things": [{"id": "a", "atoms": ["a"]}], "acts_on": [["a", "ghost"]]}
    with pytest.raises(ValueError):
        load_system_graph(doc)


# --- the axioms suite's law check over the finite model --------------------

SMALL_POOL = list("abcdef")


def _drop_atom_a(x, y):
    return Individual((x.atoms | y.atoms) - {"a"})


def _not_idempotent(x, y):
    return NULL if x == y and not x.is_null else Individual(x.atoms | y.atoms)


def _leaves_the_model(x, y):
    extra = {"z"} if len(x.atoms) == 2 else set()
    return Individual(x.atoms | y.atoms | extra)


def _null_above_singletons(x, y):
    return associate(x, y) == y or (x.is_simple and y.is_null)


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
