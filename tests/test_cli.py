import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qsystems import epr_bell, suites
from qsystems.cli import SUITE_NAMES, _seed, main

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
    angles = [0.0, 1.5707963267948966, 0.7853981633974483, 2.356194490192345]
    cfg = write_config(tmp_path, {"bell": {"angles": angles, "n_samples": 10_000, "models": ["sign-cosine"]}})
    rc = main(["bell", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    schema_check = next(c for c in doc["checks"] if c["id"] == "bell-report-schema")
    assert abs(abs(schema_check["detail"]["S_quantum"]) - 2.8284271247461903) <= 1e-10


def test_tolerance_scale_can_force_failures(tmp_path, capsys):
    rc = main(["bell", "--config", write_config(tmp_path, FAST_BELL), "--tolerance-scale", "1e-30"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False


def test_zero_tolerances_stay_legal(tmp_path, capsys):
    # Zero demands an exact result: it fails the sampled checks, but it is not
    # a config error.
    cfg = write_config(tmp_path, FAST_BELL)
    assert main(["bell", "--config", cfg, "--tolerance-scale", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_config_section_overrides_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"charge": {"charges": [0, 1, 2, 3]}})
    rc = main(["charge", "--config", cfg])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["charges"] == [0, 1, 2, 3]


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
    [
        ("epr", {"n_inference": 0}, "n_inference"),
        ("axioms", {"mereology_instances": 0}, "mereology_instances"),
        ("symmetry", {"n_random": 0}, "symmetry.n_random must be at least 1"),
        ("symmetry", {"cases": []}, "symmetry.cases must not be empty"),
    ],
)
def test_vacuous_sample_count_reports_error(command, section, key, tmp_path, capsys):
    cfg = write_config(tmp_path, {command: section})
    rc = main([command, "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_check_that_measures_nothing_reports_error(tmp_path, capsys):
    # No case has an antisymmetric sector, so no pair of sector states is drawn.
    cfg = write_config(tmp_path, {"symmetry": {"cases": [[3, 2], [4, 2]]}})
    out = tmp_path / "report.json"
    assert main(["symmetry", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "symmetry/sector-orthogonality measured nothing" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("charges, missing", [([0, 3], "[1, 2]"), ([1, 2, 3], "[0]")])
def test_charge_list_missing_required_charges_reports_error(charges, missing, tmp_path, capsys):
    cfg = write_config(tmp_path, {"charge": {"charges": charges}})
    rc = main(["charge", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"missing {missing}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_sites", [128, 256])
def test_largest_accepted_momentum_mode_passes_and_the_next_exits_2(n_sites, tmp_path, capsys):
    largest = epr_bell._largest_momentum_mode(epr_bell.EPRConfig(n_sites=n_sites))
    for mode in (largest, -largest):
        cfg = write_config(tmp_path, {"epr": {"n_sites": n_sites, "momentum_mode": mode, "n_inference": 2}})
        assert main(["epr", "--config", cfg]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, {"epr": {"n_sites": n_sites, "momentum_mode": largest + 1}})
    assert main(["epr", "--config", cfg]) == 2
    assert f"epr.momentum_mode must be at most {largest} in magnitude" in capsys.readouterr().err


# At width 0.25 the envelope reaches 1e-13 of its peak on the box seam at a
# separation of 5.264, and at separation 1 from width 0.6398.
@pytest.mark.parametrize(
    "key, largest, following",
    [("separation", 5.26, 5.27), ("separation", -5.26, -5.27), ("width", 0.63, 0.64)],
)
def test_largest_accepted_seam_geometry_passes_and_the_next_exits_2(
    key, largest, following, tmp_path, capsys
):
    section = {"wide_width": 1.0, "n_inference": 2}
    cfg = write_config(tmp_path, {"epr": {**section, key: largest}})
    assert main(["epr", "--config", cfg]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, {"epr": {**section, key: following}})
    assert main(["epr", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"epr.{key} {following:g}" in err and "box seam" in err


def test_largest_accepted_charge_keeps_the_gauge_period(tmp_path, capsys):
    bound = suites._CHARGE_BOUND
    cfg = write_config(tmp_path, {"charge": {"charges": [-bound, 0, 1, 2, bound]}})
    assert main(["charge", "--config", cfg]) == 0
    (record,) = [c for c in json.loads(capsys.readouterr().out)["checks"] if c["id"] == "gauge-period"]
    assert record["pass"] and record["value"] <= record["tolerance"] / 100


def test_tolerance_scale_applies_to_every_tolerance():
    def tolerances(scale):
        reports = suites.run_all(FAST_BELL, tolerance_scale=scale)
        return [(r.suite, c.check_id, c.tolerance) for r in reports for c in r.checks]

    one, two = tolerances(1.0), tolerances(2.0)
    assert [key[:2] for key in one] == [key[:2] for key in two]
    assert any(t is None for *_, t in one) and any(t is not None for *_, t in one)
    for (*_, t1), (*_, t2) in zip(one, two):
        assert t2 is None if t1 is None else t2 == 2 * t1


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


# The keys that set a check's tolerance and the free-form potential object,
# each at its last accepted value: every tolerance is now a constant of its
# check, and the well's own keys set the potential.
REMOVED_KEYS = {
    "axioms.spin_tolerance": 1e-12,
    "axioms.grid_tolerance": 1e-6,
    "symmetry.projector_tolerance": 1e-12,
    "symmetry.exclusion_tolerance": 1e-12,
    "symmetry.homomorphism_tolerance": 1e-12,
    "symmetry.exchange_tolerance": 1e-10,
    "dynamics.hermiticity_tolerance": 1e-12,
    "dynamics.spin_spectrum_tolerance": 1e-12,
    "dynamics.norm_drift_tolerance": 1e-10,
    "dynamics.energy_drift_tolerance": 1e-9,
    "dynamics.linearity_tolerance": 1e-6,
    "dynamics.exchange_tolerance": 1e-10,
    "dynamics.momentum_tolerance": 1e-6,
    "dynamics.relative.potential": {"v": 1.0},
    "charge.central_tolerance": 1e-10,
    "charge.projector_tolerance": 1e-12,
    "charge.offdiagonal_tolerance": 1e-12,
    "charge.phase_tolerance": 1e-10,
    "epr.norm_tolerance": 1e-10,
    "epr.mean_tolerance": 1e-6,
    "epr.commutator_tolerance": 1e-10,
    "epr.width_rtol": 0.2,
    "epr.variance_rtol": 0.05,
    "bell.mc_sigmas": 5.0,
    "bell.quantum_tolerance": 1e-10,
    "bell.lhv_tolerance": 1e-6,
}


@pytest.mark.parametrize("where", sorted(REMOVED_KEYS))
def test_removed_key_exits_2_as_unknown(where, tmp_path, capsys):
    doc = REMOVED_KEYS[where]
    for key in reversed(where.split(".")):
        doc = {key: doc}
    assert main([where.split(".")[0], "--config", write_config(tmp_path, doc)]) == 2
    assert f"unknown config key {where}" in capsys.readouterr().err


def test_partial_nested_section_keeps_sibling_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dynamics": {"evolution": {"t_final": 1}}})
    assert main(["dynamics", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["evolution"] == {"t_final": 1, "n_steps": 100}
    assert doc["config"]["relative"]["n_sites"] == 64


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"epr": {"hbar": 1.0}}, "epr.hbar"),
        ({"bell": {"n_sample": 9}}, "bell.n_sample"),
        ({"symmetry": {"n_random": 10 ** 300}}, "symmetry.n_random must be at most 1000"),
        ({"bell": {"models": []}}, "bell.models must not be empty"),
        ({"bell": {"angles": [0, 1]}}, "bell.angles must hold four angles"),
        ({"epr": {"n_inference": 0}}, "epr.n_inference must be at least 1"),
        ({"charge": {"charges": [0, 1]}}, "charge.charges must contain 0, 1 and 2; missing [2]"),
        ({"symmetry": {"cases": [[2]]}}, "symmetry.cases[0] must be [n, d]"),
        ({"symmetry": {"cases": [[2, 2], [1, 2]]}}, "symmetry.cases[1] must be [n, d]"),
        ({"symmetry": {"cases": [[2, 0]]}}, "symmetry.cases[0] must be [n, d]"),
        ({"symmetry": {"cases": [[2, 2, 2]]}}, "symmetry.cases[0] must be [n, d]"),
        ({"symmetry": {"cases": [[2, 10 ** 300]]}}, "symmetry.cases[0] must have n, d and d^n at most"),
        ({"symmetry": {"cases": [[10 ** 300, 2]]}}, "symmetry.cases[0] must have n, d and d^n at most"),
        ({"symmetry": {"cases": [[2, 51]]}}, "symmetry.cases[0] must have n, d and d^n at most 2560"),
        ({"symmetry": {"cases": [[11, 2]]}}, "symmetry.cases[0] must have n! * d^n at most"),
        ({"bell": {"n_samples": 100}}, "bell.n_samples must be at least 10000"),
        ({"bell": {"mc_sigmas": 5.0}}, "bell.mc_sigmas"),
        ({"epr": {"width_rtol": 0.2}}, "epr.width_rtol"),
        ({"charge": {"central_tolerance": 1e-10}}, "charge.central_tolerance"),
        ({"bell": {"models": ["sign-cosine", "nope"]}},
         "bell.models[1] must be one of sign-cosine, narrow-window, double-frequency, got 'nope'"),
        ({"symmetry": {"cases": [[2, 2], [3, 1]]}},
         "symmetry.cases[1] must be [n, d] with n >= 2 and d >= 2, got [3, 1]"),
        ({"symmetry": {"cases": [[2, 1], [3, 1]]}}, "symmetry.cases[0] must be [n, d]"),
        ({"dynamics": {"momentum": {"masses": [-1.0, 1.0]}}},
         "dynamics.momentum.masses must hold exactly two positive masses"),
        ({"axioms": {"grid_masses": [1.0]}}, "axioms.grid_masses must hold exactly two positive masses"),
        ({"axioms": {"grid_masses": [1.0, 1.5, 9.0]}}, "axioms.grid_masses must hold exactly two"),
        ({"dynamics": {"relative": {"masses": [1.0, 0.0]}}}, "dynamics.relative.masses must hold"),
        ({"dynamics": {"weak_coupling": {"masses": []}}}, "dynamics.weak_coupling.masses must hold"),
        ({"dynamics": {"weak_coupling": {"lambdas": []}}},
         "dynamics.weak_coupling.lambdas must hold at least two positive couplings"),
        ({"dynamics": {"weak_coupling": {"lambdas": [0.0, 0.5]}}},
         "dynamics.weak_coupling.lambdas must hold at least two positive couplings"),
        ({"dynamics": {"weak_coupling": {"lambdas": [-0.5, 0.5, 1.0]}}},
         "dynamics.weak_coupling.lambdas must not hold a negative coupling"),
        ({"bell": {"models": ["sign-cosine", "sign-cosine"]}}, "bell.models[1] repeats bell.models[0]"),
        ({"symmetry": {"cases": [[2, 2], [3, 2], [2, 2]]}}, "symmetry.cases[2] repeats symmetry.cases[0]"),
        ({"axioms": {"spin_values": [0.5, 1.5, 1.5000001]}},
         "axioms.spin_values[2] repeats axioms.spin_values[1]"),
        ({"dynamics": {"relative": {"well_width": 0.0}}}, "dynamics.relative.well_width must be positive"),
        ({"dynamics": {"relative": {"length": 0.0}}}, "dynamics.relative.length must be positive"),
        ({"epr": {"width": 0.0}}, "epr.width must be positive"),
        ({"axioms": {"grid_length": -1.0}}, "axioms.grid_length must be positive"),
        ({"dynamics": {"relative": {"potential": {"v": "x"}}}}, "dynamics.relative.potential"),
        ({"dynamics": {"relative": {"potential": {"v": 10 ** 400}}}}, "dynamics.relative.potential"),
        ({"epr": {"length": 0.0}}, "epr.length must be positive"),
        ({"axioms": {"grid_sites": 4}}, "axioms.grid_sites must be at least 49"),
        ({"dynamics": {"relative": {"n_sites": 4}}}, "dynamics.relative.n_sites must be at least 8"),
        ({"dynamics": {"weak_coupling": {"n_sites": 4}}},
         "dynamics.weak_coupling.n_sites must be at least 8"),
        ({"dynamics": {"momentum": {"n_sites": 4}}}, "dynamics.momentum.n_sites must be at least 51"),
        ({"epr": {"n_sites": 4}}, "epr.n_sites must be at least 44"),
        ({"axioms": {"spin_values": [0.3]}},
         "axioms.spin_values[0] must be a positive half-integer of at most 15, got 0.3"),
        ({"axioms": {"spin_values": [0.5, 0.0]}}, "axioms.spin_values[1] must be a positive half-integer"),
        ({"axioms": {"spin_values": [15.5]}}, "axioms.spin_values[0] must be a positive half-integer"),
        ({"axioms": {"spin_values": [5000]}}, "axioms.spin_values[0] must be a positive half-integer"),
        ({"epr": {"width": 0.01}}, "epr.width: width 0.01 is below grid resolution"),
        ({"epr": {"width": 5.0}}, "epr.width: width must be small against the box"),
        ({"epr": {"wide_width": 5.0}}, "epr.wide_width: width must be small against the box"),
        ({"epr": {"wide_width": 0.01}}, "epr.wide_width: width 0.01 is below grid resolution"),
        ({"epr": {"wide_width": 0.0}}, "epr.wide_width: width must be positive"),
        ({"epr": {"wide_width": 0.25}}, "epr.wide_width must exceed epr.width"),
        ({"epr": {"separation": 100.0}}, "epr.separation: separation must fit in the box"),
        ({"epr": {"length": 1.5, "width": 0.1, "wide_width": 0.15}},
         "epr.separation: separation must fit in the box"),
        ({"dynamics": {"evolution": {"t_final": 0.0}}}, "dynamics.evolution.t_final must be positive"),
        ({"dynamics": {"evolution": {"t_final": -1.0}}}, "dynamics.evolution.t_final must be positive"),
        ({"epr": {"momentum_mode": 1000000}},
         "epr.momentum_mode must be at most 68 in magnitude on 256 sites at width 0.25, got 1000000"),
        ({"epr": {"momentum_mode": -69}}, "epr.momentum_mode must be at most 68 in magnitude"),
        ({"epr": {"n_sites": 128, "momentum_mode": 5}},
         "epr.momentum_mode must be at most 4 in magnitude on 128 sites"),
        ({"charge": {"charges": [0, 0, 1, 2]}}, "charge.charges must contain 0 exactly once, got it 2 times"),
        ({"charge": {"charges": [0, 1, 2, 1001]}}, "charge.charges[3] must be at most 1000 in magnitude"),
        ({"charge": {"charges": [-1001, 0, 1, 2]}}, "charge.charges[0] must be at most 1000 in magnitude"),
        ({"axioms": {"atom_pool": [f"a{i}" for i in range(65)]}},
         "axioms.atom_pool must hold at most 64 distinct atoms, got 65"),
        ({"axioms": {"grid_sites": 48}}, "axioms.grid_sites must be at least 49"),
        ({"dynamics": {"momentum": {"n_sites": 50}}}, "dynamics.momentum.n_sites must be at least 51"),
        ({"epr": {"n_sites": 43}}, "epr.n_sites must be at least 44"),
        ({"epr": {"separation": 6.0}},
         "epr.width 0.25 and epr.separation 6 leave the pair envelope at 1.1e-07 of its peak"),
        ({"epr": {"width": 0.7, "wide_width": 1.0}}, "epr.width 0.7 and epr.separation 1 leave"),
    ],
)
def test_all_validates_every_section_before_any_suite_runs(doc, path, tmp_path, capsys, monkeypatch):
    def first_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the whole config was validated")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "axioms", first_suite)
    cfg = write_config(tmp_path, doc)
    assert main(["all", "--config", cfg]) == 2
    assert path in capsys.readouterr().err


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
        ("axioms", {"axioms": {"hbar": 1.0}}, "axioms.hbar"),
        ("dynamics", {"dynamics": {"hbar": 1.0}}, "dynamics.hbar"),
        ("epr", {"epr": {"hbar": 1.0}}, "epr.hbar"),
        ("all", {"axioms": {"hbar": 1.0}}, "axioms.hbar"),
        ("bell", {"bell": {"mc_sigmas": 5.0}}, "bell.mc_sigmas"),
        ("bell", {"bell": {"lhv_tolerance": 1e-6}}, "bell.lhv_tolerance"),
        ("bell", {"bell": {"n_samples": 100}}, "bell.n_samples must be at least 10000"),
        ("bell", {"bell": {"models": ["nope"]}}, "bell.models[0] must be one of"),
        ("symmetry", {"symmetry": {"cases": [[3, 1]]}}, "symmetry.cases[0] must be [n, d]"),
        ("epr", {"epr": {"length": 0.0}}, "epr.length must be positive"),
        ("epr", {"epr": {"n_sites": 4}}, "epr.n_sites must be at least 44"),
        ("epr", {"epr": {"width": 0.01}}, "epr.width: width 0.01 is below grid resolution"),
        ("epr", {"epr": {"wide_width": 5.0}}, "epr.wide_width: width must be small against the box"),
        ("epr", {"epr": {"wide_width": 0.2}}, "epr.wide_width must exceed epr.width"),
        ("epr", {"epr": {"separation": -9.0}}, "epr.separation: separation must fit in the box"),
        ("axioms", {"axioms": {"spin_values": [0.3]}}, "axioms.spin_values[0] must be a positive"),
        ("axioms", {"axioms": {"atom_pool": [str(i) for i in range(100)]}},
         "axioms.atom_pool must hold at most 64 distinct atoms, got 100"),
        ("epr", {"epr": {"separation": 7.0}}, "epr.separation 7 leave the pair envelope"),
        ("epr", {"epr": {"width": 0.7, "wide_width": 1.0}}, "epr.width 0.7 and epr.separation 1"),
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
    kind = draw(st.sampled_from(
        ["unknown", "mistyped", "non-finite", "overflow", "positive", "count"]
    ))
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
    elif kind == "positive":
        where = draw(st.sampled_from(sorted(suites._POSITIVE_NUMBERS)))
        suite = where.split(".")[0]
        value = draw(st.one_of(st.floats(max_value=0.0, allow_nan=False), st.integers(max_value=0)))
    else:
        where = draw(st.sampled_from(sorted(suites._COUNT_RANGES)))
        suite = where.split(".")[0]
        least, bound = suites._COUNT_RANGES[where]
        value = draw(st.integers(max_value=least - 1) | st.integers(bound + 1, 10 ** 300))
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


def _pair(low, high):
    return st.lists(st.floats(low, high), min_size=2, max_size=2)


def _keys(required: dict, **optional):
    """A section with every ``required`` key set and each ``optional`` one
    drawn or left at its default."""
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def _epr_sections(draw):
    """An epr section whose geometry mostly keeps the rules of
    ``suites._check_epr_geometry``: a width of two spacings to L/22, whose
    envelope on the box seam stays below 1e-13 at zero separation, and a
    separation that keeps it there."""
    n_sites, length = draw(st.integers(44, 128)), draw(st.floats(8.0, 24.0))
    width = draw(st.floats(2.0 * length / n_sites, length / 22.0))
    reach = max(length / 2.0 - 11.0 * width, 0.0)  # 0 up to roundoff at width L/22
    return {
        "n_sites": n_sites, "length": length, "width": width,
        "wide_width": draw(st.floats(width, length / 8.0, exclude_min=True)),
        "separation": draw(st.floats(-reach, reach)),
        "momentum_mode": draw(st.integers(-4, 4)),
        "n_inference": draw(st.integers(1, 3)),
    }


# Every size and count is set near its least value, so that a whole `all` run
# takes tens of ms; every other key is drawn or left at its default.
_VALID_SECTIONS = {
    "axioms": _keys(
        {"mereology_instances": st.integers(1, 300), "grid_sites": st.integers(49, 64),
         "n_test_states": st.integers(1, 3)},
        atom_pool=st.lists(st.sampled_from("abcdefghijk"), min_size=1, max_size=10),
        spin_values=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), max_size=2, unique=True),
        grid_length=st.floats(4.0, 32.0), grid_masses=_pair(0.5, 3.0)),
    # A case with d >= n keeps sector-orthogonality measuring: without one it
    # measures nothing and exits 2 (test_check_that_measures_nothing_reports_error).
    "symmetry": _keys(
        {"n_random": st.integers(1, 3)},
        cases=st.lists(st.sampled_from([[2, 2], [2, 3], [3, 2], [3, 3], [4, 2], [2, 4]]),
                       min_size=1, max_size=3, unique_by=tuple).filter(
            lambda cases: any(d >= n for n, d in cases))),
    "dynamics": st.fixed_dictionaries({
        "relative": _keys(
            {"n_sites": st.integers(8, 24)},
            length=st.floats(4.0, 32.0), masses=_pair(0.5, 2.0), well_depth=st.floats(-4.0, 4.0),
            well_width=st.floats(0.3, 3.0), v2_scale=st.floats(-1.0, 1.0), v3_scale=st.floats(-1.0, 1.0)),
        "evolution": _keys({"n_steps": st.integers(1, 20)}, t_final=st.floats(0.1, 4.0)),
        "weak_coupling": _keys(
            {"n_sites": st.integers(8, 12)},
            masses=_pair(0.5, 2.0), lambdas=st.lists(st.floats(0.01, 2.0), min_size=2, max_size=4)),
        "momentum": _keys({"n_sites": st.integers(51, 64)}, masses=_pair(0.5, 2.0)),
    }),
    "charge": _keys(
        {"n_observables": st.integers(1, 3), "n_phases": st.integers(1, 8)},
        charges=st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3, 4, 5]), max_size=3).flatmap(
            lambda extra: st.permutations([0, 1, 2, *extra]))),
    "epr": _epr_sections(),
    "bell": _keys(
        {"n_samples": st.integers(10_000, 20_000), "n_random_settings": st.integers(1, 3)},
        angles=st.lists(st.floats(-7.0, 7.0), min_size=4, max_size=4),
        models=st.lists(st.sampled_from(sorted(epr_bell.SHIPPED_LHV_MODELS)), min_size=1, unique=True)),
}


@st.composite
def valid_configs(draw):
    """(config, merged sections) of a small config that every merge accepts."""
    config = {name: draw(section) for name, section in _VALID_SECTIONS.items()}
    try:
        merged = {name: suites._merge(suites._DEFAULTS[name], config[name], name) for name in config}
    except ValueError:  # an epr geometry that a rule rejects, mostly the momentum mode
        assume(False)
    return config, merged


def _with_merged_sections(config):
    """(config, merged sections) of every suite, as ``valid_configs`` draws them."""
    return config, {
        name: suites._merge(defaults, config.get(name, {}), name) for name, defaults in suites._DEFAULTS.items()
    }


@settings(max_examples=25, deadline=None)
@given(valid_configs(), st.integers(0, 3))
# A spacing L/n that is not dyadic once put the shift commutator at 3.05e-13.
@example(_with_merged_sections({"epr": {
    "n_sites": 44, "length": 20.175156469359752, "width": 0.9170525667890796,
    "wide_width": 1.7074550334015246, "separation": 0.0, "momentum_mode": 0,
}}), 0)
def test_main_runs_every_valid_config_to_a_verdict(case, seed):
    config, merged = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            rc = main(["all", "--config", str(path), "--seed", str(seed)])
    assert rc in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    doc = json.loads(out.getvalue())
    assert doc["pass"] is (rc == 0)
    assert {suite["suite"]: suite["config"] for suite in doc["suites"]} == merged


@st.composite
def invalid_flags(draw):
    """(argv, named) with one invalid --tolerance-scale or --seed value."""
    command = draw(st.sampled_from([*SUITE_NAMES, "all"]))
    if draw(st.booleans()):
        return [command, f"--seed={draw(st.integers(max_value=-1))}"], "--seed"
    scale = draw(st.one_of(
        st.floats(max_value=-5e-324).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "", "1,5", "x"]),
    ))
    return [command, f"--tolerance-scale={scale}"], "--tolerance-scale"


@settings(max_examples=40, deadline=None)
@given(invalid_flags())
@example((["bell", "--tolerance-scale=-1"], "--tolerance-scale"))
@example((["bell", "--tolerance-scale", "nan"], "--tolerance-scale"))
@example((["all", "--tolerance-scale", "inf"], "--tolerance-scale"))
@example((["charge", "--seed", "-1"], "argument --seed: must not be negative, got -1"))
@example((["charge", "--seed", "1" * 5000], "argument --seed: too many digits: 5000, at most 4300"))
@example((["bell", "--angles", "0,1,2,3"], "unrecognized arguments: --angles"))
@example((["bell", "--model", "sign-cosine"], "unrecognized arguments: --model"))
@example((["bell", "--samples", "10000"], "unrecognized arguments: --samples"))
@example((["charge", "--out", "/nonexistent/report.json"], "error: cannot write report: "))
@example((["charge", "--out", "."], "error: cannot write report: "))
def test_main_rejects_every_invalid_flag_value_with_exit_2(case):
    argv, named = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 2
    assert named in err.getvalue()
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "text", ["9" * 5000, " +" + "1_2" * 2200, "0" * 4301], ids=["nines", "underscores", "zeros"]
)
def test_seed_past_the_digit_limit_names_the_limit_without_echo(text, capsys):
    assert main(["charge", "--seed", text]) == 2
    err = capsys.readouterr().err
    assert "argument --seed: too many digits" in err
    assert len(err) < 500  # the usage line and the reason, not the input


@pytest.mark.parametrize("text", ["1" * 4300, " 1_000 ", "+7"], ids=["at-limit", "underscore", "sign"])
def test_seed_accepts_every_integer_literal_within_the_limit(text):
    assert _seed(text) == int(text)


@pytest.mark.parametrize(
    "text", ["1__0" * 2000, "+-" + "1" * 5000, "x"], ids=["double-underscore", "two-signs", "letter"]
)
def test_malformed_seed_is_not_an_integer(text, capsys):
    assert main(["charge", "--seed", text]) == 2
    assert "argument --seed: not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("potential", [{"v": "x"}, {"w": 1.0}, {"v": {"r": [{}], "values": [1]}}])
def test_malformed_potential_reports_error(potential, tmp_path, capsys):
    cfg = write_config(tmp_path, {"dynamics": {"relative": {"potential": potential}}})
    rc = main(["dynamics", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key dynamics.relative.potential" in err
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


# Every value of the default report, evolution drifts included, is rounded the
# same at 1 and 2 threads.  Evolution diagonalizes the relative Hamiltonian one
# total S_z block at a time, at most 128 wide at the default 64 sites; one dense
# 256-wide eigensolve rounded differently at 2 threads.  The symmetry suite of
# the many-body workload, up to 256-wide projectors, takes its ranks and
# products on the exchange sectors, at most 35 wide.


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    workloads = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text(encoding="utf-8")
    )
    for command, workload in (("all", "default"), ("symmetry", "many-body")):
        config = tmp_path / f"{workload}.json"
        config.write_text(json.dumps(workloads["workloads"][workload]["config"]))
        reports = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            out = tmp_path / f"{command}-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "qsystems.cli", command, "--config", str(config),
                 "--format", "json", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], (command, workload)


# Each analyzer angle is read mod 2 pi.  From about 1e15 rad, a hidden-variable
# model's jump table and its arcs once rounded a - offset and a + offset
# apart, and every lhv-sampling-consistency check exited 1 (z-scores 11.9,
# 9.7 and 17.6 at 1e15).  With the last angle at 1e14, the common offsets of
# chsh-rotation-invariance once rounded away.
@pytest.mark.parametrize(
    "angles",
    [[1e14, 0.0, 0.0, 0.0], [1e15, 0.0, 0.0, 0.0], [1e17, 0.0, 0.0, 0.0], [1e308, 0.0, 0.0, 0.0],
     [0.0, math.pi / 2.0, math.pi / 4.0, 1e14]],
    ids=["first-1e14", "first-1e15", "first-1e17", "first-1e308", "last-1e14"],
)
def test_far_analyzer_angles_pass(angles, tmp_path, capsys):
    cfg = write_config(tmp_path, {"bell": {"angles": angles}})
    assert main(["bell", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["angles"] == angles


def test_a_run_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, 11-17 ms of every launch.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import contextlib, io, sys\n"
        "from qsystems.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['all'])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                            text=True, timeout=300)
    assert result.stdout.split() == ["0", "False"]
