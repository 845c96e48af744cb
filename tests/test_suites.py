"""The suite layer's contracts: config merging and validation, the one verdict
policy of every check, and the structure of the seed-0 default report.

``data/report_structure.json`` records, for every check of the seed-0 default
``all`` report, its suite, id, law, tolerance and the keys of its detail.
After a deliberate change to a check, rewrite it with
``PYTHONPATH=src python tests/test_suites.py``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsystems import dynamics, suites
from qsystems.grids import GridSpec
from qsystems.report import as_builtin

ROOT = Path(__file__).parents[1]
STRUCTURE = Path(__file__).parent / "data" / "report_structure.json"

DEFAULTS = suites._DEFAULTS
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def shipped_configs() -> list[dict]:
    """The defaults, the README's example config and each benchmark workload's
    config, in that order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("## Config file"):]
    example = example[example.index("```json") + len("```json"):]
    return [DEFAULTS, json.loads(example[: example.index("```")]), *(w["config"] for w in WORKLOADS.values())]


class TestMerge:
    def test_nested_override_keeps_siblings(self):
        cfg = suites._merge(DEFAULTS["dynamics"], {"evolution": {"t_final": 1}}, "dynamics")
        assert cfg["evolution"] == {"t_final": 1, "n_steps": 100}
        assert cfg["relative"] == DEFAULTS["dynamics"]["relative"]

    def test_defaults_are_not_mutated(self):
        before = json.dumps(DEFAULTS["dynamics"], sort_keys=True)
        suites._merge(DEFAULTS["dynamics"], {"relative": {"n_sites": 8}}, "dynamics")
        assert json.dumps(DEFAULTS["dynamics"], sort_keys=True) == before

    def test_integer_stands_for_number_but_not_the_reverse(self):
        assert suites._merge(DEFAULTS["epr"], {"length": 8}, "epr")["length"] == 8
        with pytest.raises(ValueError, match=r"epr\.n_sites must be an integer"):
            suites._merge(DEFAULTS["epr"], {"n_sites": 64.0}, "epr")
        with pytest.raises(ValueError, match=r"epr\.n_sites must be an integer"):
            suites._merge(DEFAULTS["epr"], {"n_sites": True}, "epr")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ValueError, match=r"epr\.length must be finite"):
            suites._merge(DEFAULTS["epr"], {"length": value}, "epr")

    def test_count_bounds_leave_ten_times_every_shipped_size(self):
        configs = shipped_configs()
        for where, (_, bound) in suites._COUNT_RANGES.items():
            for config in configs:
                value = config
                for key in where.split("."):
                    value = value.get(key, {})
                assert value == {} or bound >= 10 * value, where
        for config in configs:
            for n, d in config.get("symmetry", {}).get("cases", []):
                assert suites._CASE_DIM_BOUND >= 10 * d ** n
                assert suites._CASE_INDEX_BOUND >= 10 * math.factorial(n) * d ** n

    def test_scale_ranges_leave_ten_times_every_shipped_value_both_ways(self):
        configs = shipped_configs()
        for where, (least, most) in suites._SCALE_RANGES.items():
            for config in configs:
                value = config
                for key in where.split("."):
                    value = value.get(key, {})
                if value != {}:
                    for number in value if isinstance(value, list) else [value]:
                        assert 10 * least <= number and 10 * number <= most, where

    @pytest.mark.parametrize("which", ["defaults", "readme", *WORKLOADS])
    def test_every_shipped_config_passes_every_section_rule(self, which):
        # A new rule must not reject a config that the README or the benchmark
        # runs.  The defaults are merged over themselves, so that every key's
        # rule reads them.
        config = dict(zip(["defaults", "readme", *WORKLOADS], shipped_configs()))[which]
        for name, section in config.items():
            suites._merge(DEFAULTS[name], section, name)

    def test_every_shipped_size_is_at_least_its_least_value(self):
        configs = [DEFAULTS, *(w["config"] for w in WORKLOADS.values())]
        for where, (least, _) in suites._COUNT_RANGES.items():
            for config in configs:
                value = config
                for key in where.split("."):
                    value = value.get(key, {})
                assert value == {} or value >= least, where

    def test_atom_pool_bound_counts_distinct_atoms(self):
        atoms = [f"a{i}" for i in range(64)]
        cfg = suites._merge(DEFAULTS["axioms"], {"atom_pool": atoms + atoms[:3]}, "axioms")
        assert len(cfg["atom_pool"]) == 67
        with pytest.raises(ValueError, match=r"axioms\.atom_pool must hold at most 64 distinct atoms, got 65"):
            suites._merge(DEFAULTS["axioms"], {"atom_pool": atoms + ["z"]}, "axioms")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"axiom": {"grid_sites": 64}}, "unknown config section 'axiom'"),
        ([1], "config must be a JSON object"),
        ({"axioms": [1]}, "section 'axioms' must be a JSON object"),
        ({"bell": None}, "section 'bell' must be a JSON object"),
    ],
)
def test_run_all_rejects_a_bad_section_before_any_suite_runs(config, message, monkeypatch):
    def runner(*args, **kwargs):
        raise AssertionError("a suite ran on a config with a bad section")

    for name in suites.SUITE_RUNNERS:
        monkeypatch.setitem(suites.SUITE_RUNNERS, name, runner)
    with pytest.raises(ValueError, match=message):
        suites.run_all(config)


def test_run_all_merges_each_section_once_and_dispatches_through_the_runner_table(monkeypatch):
    # perfbench/layers.py times each suite by wrapping suites.run_<name> wherever
    # it is bound, SUITE_RUNNERS included, so every run must go through that
    # table; and run_all validates every section by merging it, once.
    for name, runner in suites.SUITE_RUNNERS.items():
        assert runner is getattr(suites, f"run_{name}")
    merged, reached = [], {}
    merge = suites._merge

    def counted_merge(defaults, override, path):
        merged.append(path)
        return merge(defaults, override, path)

    def recorded(name, runner):
        def run(section, *args, **kwargs):
            reached[name] = section
            return runner(section, *args, **kwargs)
        return run

    monkeypatch.setattr(suites, "_merge", counted_merge)
    for name, runner in list(suites.SUITE_RUNNERS.items()):
        monkeypatch.setitem(suites.SUITE_RUNNERS, name, recorded(name, runner))
    config = {"axioms": {"grid_sites": 49, "n_test_states": 1, "spin_values": [0.5]},
              "symmetry": {"cases": [[2, 2]], "n_random": 1},
              "dynamics": {"relative": {"n_sites": 8}, "evolution": {"n_steps": 2}},
              "epr": {"n_sites": 128, "n_inference": 1},
              "bell": {"n_samples": 10_000, "n_random_settings": 1}}
    reports = suites.run_all(config)
    assert [path for path in merged if "." not in path] == list(suites.SUITE_RUNNERS)
    assert [report["suite"] for report in reports] == list(reached) == list(suites.SUITE_RUNNERS)
    for report in reports:
        name = report["suite"]
        assert reached[name] is report["config"]
        assert report["config"] == merge(DEFAULTS[name], config.get(name), name)


def test_readme_least_values_are_the_count_table_least_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| Key | Least value | Why |"):]
    documented = {}
    for row in table[: table.index("\n\n")].splitlines()[2:]:
        keys, least, _ = (cell.strip() for cell in row.strip("|").split("|"))
        for key in re.findall(r"`([^`]+)`", keys):
            documented[key] = int(least)
    assert documented == {
        where: least for where, (least, _) in suites._COUNT_RANGES.items() if least > 1
    }


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def suite_sections(draw):
    """A suite name and a random section that mostly reuses its real keys."""
    name = draw(st.sampled_from(sorted(DEFAULTS)))
    keys = st.sampled_from(sorted(DEFAULTS[name])) | st.text(max_size=4)
    nested = st.dictionaries(
        st.sampled_from(["n_sites", "masses", "lambdas", "t_final", "potential"]), JSON_VALUES
    )
    section = draw(st.dictionaries(keys, JSON_VALUES | nested, max_size=5) | JSON_VALUES)
    return name, section


@settings(max_examples=200, deadline=None)
@given(suite_sections())
def test_merge_returns_a_config_or_raises_value_error(case):
    name, section = case
    try:
        cfg = suites._merge(DEFAULTS[name], section, name)
    except ValueError:
        return
    assert isinstance(cfg, dict)
    assert set(cfg) == set(DEFAULTS[name])


class TestVerdictPolicy:
    def checks(self, scale=1.0):
        records = []
        return records, suites._checks("probe", records, scale)

    def test_residual_passes_at_its_scaled_tolerance(self):
        records, check = self.checks(scale=2.0)
        check("pass", "law", 2e-3, 1e-3)
        check("fail", "law", 1.5, 0.5)
        assert [(c["tolerance"], c["pass"]) for c in records] == [(2e-3, True), (1.0, False)]

    def test_count_passes_at_zero_and_flag_when_true(self):
        records, check = self.checks()
        check("zero", "law", 0)
        check("some", "law", 3)
        check("true", "law", np.bool_(True))
        check("false", "law", False)
        assert [(c["value"], c["tolerance"], c["pass"]) for c in records] == [
            (0, None, True),
            (3, None, False),
            (True, None, True),
            (False, None, False),
        ]

    @pytest.mark.parametrize(
        "value, tolerance", [(math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)]
    )
    def test_non_finite_residual_or_tolerance_fails(self, value, tolerance):
        records, check = self.checks()
        check("bad", "law", value, tolerance, {"samples": [value, 1.0]})
        record = records[0]
        assert record["pass"] is False and record["non_finite"] is True
        json.dumps(record, allow_nan=False)

    def test_record_is_written_in_its_json_form(self):
        records, check = self.checks()
        check("arrays", "law", np.array([1e-4]), np.float64(1e-3), {"samples": np.array([1.0, np.nan])})
        check("count", "law", np.int64(2), detail={"n": np.int64(3)})
        assert records == [
            {"id": "arrays", "law": "law", "value": 1e-4, "tolerance": 1e-3, "pass": True,
             "detail": {"samples": [1.0, None]}},
            {"id": "count", "law": "law", "value": 2, "tolerance": None, "pass": False, "detail": {"n": 3}},
        ]
        assert [type(records[0]["value"]), type(records[1]["detail"]["n"])] == [float, int]

    def test_finite_record_has_no_non_finite_key(self):
        records, check = self.checks()
        check("ok", "law", 1e-4, 1e-3)
        assert "non_finite" not in records[0]

    def test_scalar_residual_is_the_value(self):
        records, check = self.checks()
        check("scalar", "law", np.float64(2.5e-4), 1e-3)
        record = records[0]
        assert (record["value"], record["tolerance"], record["pass"]) == (2.5e-4, 1e-3, True)

    @pytest.mark.parametrize("residuals", [[1e-4, 5e-4, 2e-4], np.array([5e-4, 0.0]), (0.0, 5e-4)])
    def test_value_is_the_largest_residual(self, residuals):
        records, check = self.checks()
        check("many", "law", residuals, 1e-3)
        assert (records[0]["value"], records[0]["pass"]) == (5e-4, True)

    @pytest.mark.parametrize(
        "residuals",
        [[0.0, math.nan], [1e-4, 2e-4, math.nan, 0.0], [-math.inf, 0.0], np.array([0.0, math.inf])],
    )
    def test_any_non_finite_residual_fails(self, residuals):
        records, check = self.checks()
        check("many", "law", residuals, 1e-3)
        record = records[0]
        assert record["pass"] is False and record["non_finite"] is True
        json.dumps(record, allow_nan=False)

    @pytest.mark.parametrize("empty", [[], (), np.array([])])
    def test_empty_measurement_raises_naming_the_check(self, empty):
        records, check = self.checks()
        with pytest.raises(ValueError, match=r"probe/nothing measured nothing"):
            check("nothing", "law", empty, 1e-3)
        assert records == []


@pytest.mark.parametrize(
    "runner, section, ids",
    [
        (suites.run_axioms, {"grid_sites": 49, "spin_values": [0.5]},
         {"grid-position-momentum", "grid-brackets", "additive-pair-relations"}),
        (suites.run_dynamics, {"momentum": {"n_sites": 51}}, {"momentum-conservation"}),
        # Two spacings of a 44-site box are 0.727; at width 0.73 the envelope reads 9e-14
        # of its peak on the box seam at zero separation.
        (suites.run_epr,
         {"n_sites": 44, "width": 0.73, "wide_width": 2.0, "separation": 0.0, "momentum_mode": 0,
          "n_inference": 2},
         None),
        (suites.run_dynamics, {"evolution": {"t_final": 0.01}}, {"evolution-norm-drift", "evolution-energy-drift"}),
    ],
)
def test_each_least_size_admits_a_passing_run(runner, section, ids):
    report = suites.run_suite(runner.__name__.removeprefix("run_"), section)
    checks = [c for c in report["checks"] if ids is None or c["id"] in ids]
    assert checks and all(c["pass"] for c in checks), [c["id"] for c in checks if not c["pass"]]


@pytest.mark.parametrize(
    "relative",
    [{"length": 0.1, "n_sites": 31}, {"well_depth": 9.9e5}, {"v2_scale": 9.9e5}, {"v3_scale": -9.9e5},
     {"length": 1.25, "n_sites": 39, "masses": [0.01, 0.01]}],
    ids=["kinetic", "well_depth", "v2_scale", "v3_scale", "light-masses"],
)
def test_dynamics_scale_just_below_its_bound_passes(relative):
    # Scales of 9.5e5 to 9.9e5, at the most t_final, where the phases E t are
    # largest; the rows just above either bound exit 2 (tests/test_cli.py).
    section = {"relative": relative, "evolution": {"t_final": 1e300},
               "weak_coupling": {"lambdas": [0.001, 0.01, 1000.0]}}
    report = suites.run_suite("dynamics", section)
    assert report["pass"], [(c["id"], c["value"]) for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize(
    "section",
    [{"relative": {"well_depth": 4e-8, "v2_scale": 0, "v3_scale": 0}},
     {"relative": {"well_depth": 0, "v2_scale": -4e-8, "v3_scale": 0}},
     {"relative": {"well_depth": 0, "v2_scale": 0, "v3_scale": 4e-8}},
     # The spin mix whose 4 x 4 block acts most weakly for its |sum|.
     {"relative": {"well_depth": -4.4e-9, "v2_scale": -2.38e-8, "v3_scale": 1.18e-8}},
     {"relative": {"well_depth": 5e-6, "v2_scale": 0, "v3_scale": 0},
      "weak_coupling": {"lambdas": [0.0, 0.001, 1.0]}},
     {"relative": {"well_depth": 4e-6, "v2_scale": 0, "v3_scale": 0},
      "weak_coupling": {"masses": [0.01, 0.01]}},
     {"relative": {"well_depth": 0, "v2_scale": 0, "v3_scale": 0}}],
    ids=["well_depth", "v2_scale", "v3_scale", "weakest-mix", "lambdas", "masses", "zero"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_well_just_above_its_bound_passes(section, seed):
    # Each well times the least coupling is 1.013e-9 of the weak grid's
    # kinetic top, against the bound's 1e-9 (the rows just below exit 2,
    # tests/test_cli.py); a zero well reads 0.
    report = suites.run_suite("dynamics", section, seed=seed)
    assert report["pass"], [(c["id"], c["value"]) for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("n_sites", [65, 70, 110])
def test_momentum_conservation_holds_between_the_table_nodes(n_sites):
    # These lattices put distances between the nodes of a tabulated well;
    # read through a table of 257 nodes, seed 0 read 1.1e-6, 3.2e-6 and
    # 1.5e-6 here, against 1e-6.  The shipped well is evaluated in closed form.
    cfg = DEFAULTS["dynamics"]
    rel = cfg["relative"]
    pot = dynamics.PotentialSpec(rel["well_depth"], rel["well_width"], rel["v2_scale"], rel["v3_scale"])
    residuals = dynamics.momentum_conservation_residual(
        GridSpec(n_sites, rel["length"]), cfg["momentum"]["masses"], pot, seed=0
    )
    assert np.max(residuals) <= 1e-6 / 10  # momentum-conservation's tolerance, over 10


# At pi/1000 the narrow window's exact arc sum reads -1.0000000000000002.
@pytest.mark.parametrize("angle", [0.0, math.pi / 1000])
def test_sampling_consistency_holds_on_deterministic_correlations(angle):
    # At equal angles every model answers A = -B, so each sampled term is
    # exactly -1 with zero variance: no division by zero, and no failure.
    report = suites.run_suite("bell", {"angles": [angle] * 4, "n_random_settings": 1})
    records = [c for c in report["checks"] if c["id"].startswith("lhv-sampling-consistency-")]
    assert len(records) == 3
    for record in records:
        assert record["pass"] and record["value"] == 0.0, record["id"]
        assert record["detail"]["correlations_sampled"] == [-1.0] * 4


def test_as_builtin_maps_non_finite_floats_to_null():
    doc = {"a": np.array([1.0, np.nan]), "b": np.float64(np.inf), "c": [-math.inf, 2]}
    assert as_builtin(doc) == {"a": [1.0, None], "b": None, "c": [None, 2]}


def report_structure(reports) -> list[dict]:
    """(suite, id, law, tolerance, detail keys) of every check, in order."""
    return [
        {
            "suite": report["suite"],
            "id": record["id"],
            "law": record["law"],
            "tolerance": record["tolerance"],
            "detail_keys": sorted(record["detail"]) if "detail" in record else None,
        }
        for report in reports
        for record in report["checks"]
    ]


@pytest.fixture(scope="module")
def seed0_reports():
    return suites.run_all(seed=0)


def test_seed0_report_structure_matches_record(seed0_reports):
    found = report_structure(seed0_reports)
    recorded = json.loads(STRUCTURE.read_text(encoding="utf-8"))
    assert [(c["suite"], c["id"]) for c in found] == [(c["suite"], c["id"]) for c in recorded]
    for got, want in zip(found, recorded):
        # The Monte-Carlo margins come from a sampled stderr: compare loosely.
        if want["tolerance"] is None:
            assert got["tolerance"] is None, got["id"]
        else:
            assert got["tolerance"] == pytest.approx(want["tolerance"], rel=1e-9), got["id"]
        assert (got["law"], got["detail_keys"]) == (want["law"], want["detail_keys"]), got["id"]


def verdict_keys(value, path="detail"):
    """Paths of the keys, at any depth of ``value``, named ``pass`` or ending
    in ``tolerance``."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "pass" or key.endswith("tolerance"):
                yield f"{path}.{key}"
            yield from verdict_keys(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from verdict_keys(item, f"{path}[{i}]")


def test_details_hold_measurements_never_verdicts(seed0_reports):
    # check() alone judges: a detail that carries its own pass or tolerance
    # is a second verdict that can disagree with the record's.
    found = [
        f"{report['suite']}/{record['id']}: {key}"
        for report in seed0_reports
        for record in report["checks"]
        for key in verdict_keys(record.get("detail"))
    ]
    assert found == []


def test_verdict_key_probe_reaches_nested_entries():
    detail = {"checks": [{"law": "x", "residual": 0.0, "pass": True}], "zero_tolerance": 1.0}
    assert sorted(verdict_keys(detail)) == ["detail.checks[0].pass", "detail.zero_tolerance"]


if __name__ == "__main__":
    structure = report_structure(suites.run_all(seed=0))
    STRUCTURE.write_text(json.dumps(structure, indent=1) + "\n", encoding="utf-8")
