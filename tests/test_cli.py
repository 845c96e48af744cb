import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsystems import suites
from qsystems.cli import SUITE_NAMES, main

FAST_BELL = {"bell": {"n_samples": 10_000, "n_random_settings": 2}}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_no_arguments_prints_usage_and_fails(capsys):
    rc = main([])
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_rejected(capsys):
    rc = main(["frobnicate"])
    assert rc == 2
    assert capsys.readouterr().err


def test_missing_config_file_reports_error(capsys):
    rc = main(["charge", "--config", "/nonexistent/config.json"])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_malformed_config_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2, 3]")
    rc = main(["charge", "--config", str(path)])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_charge_suite_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["charge", "--seed", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "charge"
    assert doc["pass"] is True
    assert doc["seed"] == 5
    assert doc["schema_version"] == 1
    assert {"id", "law", "value", "tolerance", "pass"} <= set(doc["checks"][0])


def test_text_format_renders_status_lines(capsys):
    rc = main(["charge", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "overall: PASS" in out


def test_bell_subcommand_with_angles_and_seed(tmp_path):
    out = tmp_path / "bell.json"
    rc = main(
        [
            "bell",
            "--angles",
            "0,1.5707963267948966,0.7853981633974483,2.356194490192345",
            "--seed",
            "7",
            "--samples",
            "10000",
            "--model",
            "sign-cosine",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    schema_check = next(c for c in doc["checks"] if c["id"] == "bell-report-schema")
    assert abs(abs(schema_check["detail"]["S_quantum"]) - 2.8284271247461903) <= 1e-10


def test_tolerance_scale_can_force_failures(tmp_path, capsys):
    rc = main(["bell", "--tolerance-scale", "1e-30", "--samples", "10000"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False


def test_config_section_overrides_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"charge": {"charges": [0, 1, 2, 3]}})
    rc = main(["charge", "--config", cfg])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["charges"] == [0, 1, 2, 3]


def test_dynamics_accepts_tabulated_potentials(tmp_path, capsys):
    r = [0.125 * k for k in range(65)]
    table = {"r": r, "values": [-2.0 * 2.718281828459045 ** (-(x * x) / 4.5) for x in r]}
    cfg = write_config(
        tmp_path,
        {"dynamics": {"relative": {"n_sites": 32, "length": 16.0, "masses": [1.0, 1.0],
                                   "well_depth": 2.0, "well_width": 1.5,
                                   "v2_scale": 0.8, "v3_scale": 0.5,
                                   "potential": {"v": table, "v2": 0.5}}}},
    )
    rc = main(["dynamics", "--config", cfg])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["config"]["relative"]["potential"]["v2"] == 0.5


def test_identical_invocations_byte_identical(tmp_path):
    cfg = write_config(tmp_path, FAST_BELL)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bell", "--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
    assert main(["bell", "--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_different_seed_changes_sampled_values(tmp_path):
    cfg = write_config(tmp_path, FAST_BELL)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["bell", "--config", cfg, "--seed", "1", "--out", str(out1)])
    main(["bell", "--config", cfg, "--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "qsystems" in capsys.readouterr().out


@pytest.mark.parametrize("angles", ["0,1.5707963", "0,1,2,3,4"])
def test_bell_angles_need_exactly_four(angles, capsys):
    rc = main(["bell", "--angles", angles, "--samples", "10000"])
    assert rc == 2
    assert "four" in capsys.readouterr().err


@pytest.mark.parametrize("angles", [[0.0, 1.5707963], [0.0, 1.0, 2.0, 3.0, 4.0]])
def test_config_angles_need_exactly_four(angles, tmp_path, capsys):
    cfg = write_config(tmp_path, {"bell": {"angles": angles, "n_samples": 10_000}})
    rc = main(["bell", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "four" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["all", "axioms"])
def test_non_object_config_section_reports_error(command, tmp_path, capsys):
    cfg = write_config(tmp_path, {"axioms": [1]})
    rc = main([command, "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'axioms'" in err
    assert "Traceback" not in err


def test_bell_without_models_reports_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bell": {"models": []}})
    rc = main(["bell", "--config", cfg])
    assert rc == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key",
    [("epr", {"n_inference": 0}, "n_inference"), ("axioms", {"mereology_instances": 0}, "mereology_instances")],
)
def test_vacuous_sample_count_reports_error(command, section, key, tmp_path, capsys):
    cfg = write_config(tmp_path, {command: section})
    rc = main([command, "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("charges, missing", [([0, 3], "[1, 2]"), ([1, 2, 3], "[0]")])
def test_charge_list_missing_required_charges_reports_error(charges, missing, tmp_path, capsys):
    cfg = write_config(tmp_path, {"charge": {"charges": charges}})
    rc = main(["charge", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"missing {missing}" in err
    assert "Traceback" not in err


def test_tolerance_scale_applies_to_conditional_inference_mode(capsys):
    def mode_tolerance(scale):
        assert main(["epr", "--tolerance-scale", scale]) == 0
        doc = json.loads(capsys.readouterr().out)
        (record,) = [c for c in doc["checks"] if c["id"] == "conditional-inference-mode"]
        return record["tolerance"]

    assert mode_tolerance("2") == 2 * mode_tolerance("1")


def test_tolerance_scale_applies_to_monte_carlo_margin(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_BELL)

    def margins(scale):
        assert main(["bell", "--config", cfg, "--tolerance-scale", scale]) == 0
        doc = json.loads(capsys.readouterr().out)
        return [c["tolerance"] for c in doc["checks"] if c["id"].startswith("lhv-sampling")]

    one, two = margins("1"), margins("2")
    assert len(one) == 3
    assert two == [2 * m for m in one]


def test_partial_nested_section_keeps_sibling_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dynamics": {"evolution": {"t_final": 1}}})
    assert main(["dynamics", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["evolution"] == {"t_final": 1, "n_steps": 100}
    assert doc["config"]["relative"]["n_sites"] == 64


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("axioms", {"axioms": {"n_sampels": 3}}, "axioms.n_sampels"),
        ("axioms", {"axioms": {"grid_sites": [1]}}, "axioms.grid_sites"),
        ("symmetry", {"symmetry": {"n_random": None}}, "symmetry.n_random"),
        ("dynamics", {"dynamics": {"evolution": {"n_step": 3}}}, "dynamics.evolution.n_step"),
        ("charge", {"charge": {"charges": [0, 1.5, 2]}}, "charge.charges[1]"),
        ("bell", {"bell": {"angles": [0.0, 1.0, 2.0, "x"]}}, "bell.angles[3]"),
        ("all", {"axiom": {}}, "'axiom'"),
        ("epr", {"epr": {"length": 10 ** 400}}, "epr.length must be finite"),
        ("epr", {"epr": {"n_sites": -(10 ** 400)}}, "epr.n_sites must be finite"),
        ("axioms", {"axioms": {"grid_masses": [1.0, 10 ** 400]}}, "axioms.grid_masses[1] must be"),
        ("axioms", {"axioms": {"hbar": 0}}, "axioms.hbar must be positive"),
        ("dynamics", {"dynamics": {"hbar": 0}}, "dynamics.hbar must be positive"),
        ("epr", {"epr": {"hbar": -1.0}}, "epr.hbar must be positive"),
        ("all", {"axioms": {"hbar": 0.0}}, "axioms.hbar must be positive"),
    ],
)
def test_unknown_or_mistyped_config_key_reports_error(command, doc, path, tmp_path, capsys):
    cfg = write_config(tmp_path, doc)
    rc = main([command, "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


# Values of every JSON type, for keys whose default has another type.
_ANY_JSON = ["text", True, None, [], {}, 1.5, 7]


def _paths(defaults: dict, path: str):
    """(dotted path, default) of every key below ``path``, objects included."""
    for key, value in defaults.items():
        yield f"{path}.{key}", value
        if isinstance(value, dict):
            yield from _paths(value, f"{path}.{key}")


_PATHS = []
for _suite in SUITE_NAMES:
    _defaults = getattr(suites, f"_{_suite.upper()}_DEFAULTS")
    _PATHS += [(_suite, where, d) for where, d in [(_suite, _defaults), *_paths(_defaults, _suite)]]


def _draw_path(draw, keep):
    return draw(st.sampled_from([entry for entry in _PATHS if keep(entry[2])]))


@st.composite
def invalid_sections(draw):
    """(suite, dotted path, config) with exactly one invalid entry."""
    kind = draw(st.sampled_from(["unknown", "mistyped", "non-finite", "overflow", "hbar"]))
    if kind == "unknown":
        suite, where, _ = _draw_path(draw, lambda d: isinstance(d, dict))
        where += ".no_such_key"
        value = draw(st.sampled_from(_ANY_JSON))
    elif kind == "mistyped":
        suite, where, default = _draw_path(draw, lambda d: not isinstance(d, dict))
        value = draw(st.sampled_from([
            v for v in _ANY_JSON
            if type(v) is not type(default) and not (type(default) is float and type(v) is int)
        ]))
    elif kind == "non-finite":
        suite, where, _ = _draw_path(draw, lambda d: type(d) is float)
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "overflow":
        suite, where, _ = _draw_path(draw, lambda d: type(d) in (int, float))
        value = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(309, 400))
    else:
        where = draw(st.sampled_from(sorted(suites._POSITIVE_NUMBERS)))
        suite = where.split(".")[0]
        value = draw(st.one_of(st.floats(max_value=0.0, allow_nan=False), st.integers(max_value=0)))
    doc = value
    for key in reversed(where.split(".")):
        doc = {key: doc}
    return suite, where, doc


@settings(max_examples=40, deadline=None)
@given(invalid_sections())
def test_main_rejects_every_invalid_section_with_exit_2(case):
    suite, where, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([suite, "--config", str(path)])
    assert rc == 2
    assert where in err.getvalue()
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("potential", [{"v": "x"}, {"w": 1.0}, {"v": {"r": [{}], "values": [1]}}])
def test_malformed_potential_reports_error(potential, tmp_path, capsys):
    cfg = write_config(tmp_path, {"dynamics": {"relative": {"potential": potential}}})
    rc = main(["dynamics", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "potential" in err
    assert "Traceback" not in err


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Config file"):]
    example = section[section.index("```json") + len("```json"):]
    example = json.loads(example[: example.index("```")])
    cfg = write_config(tmp_path, example)
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0


def test_non_finite_results_fail_and_stay_strict_json(tmp_path):
    cfg = write_config(tmp_path, {"dynamics": {"evolution": {"t_final": 1e308, "n_steps": 100}}})
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 1

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    failed = {c["id"]: c for c in doc["checks"] if not c["pass"]}
    assert set(failed) == {"evolution-norm-drift", "evolution-energy-drift"}
    for record in failed.values():
        assert record["non_finite"] is True
        assert record["value"] is None
    assert all("non_finite" not in c for c in doc["checks"] if c["pass"])
