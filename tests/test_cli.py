"""Command-line interface: reports, determinism, exit codes."""

import argparse
import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from macrocoh import cli
from macrocoh.cli import build_parser, main
from macrocoh.config import replace
from macrocoh.scenario import scenario_kinematics
from macrocoh.testability import scenario_presets

ZERO_SCENARIO = """\
label: zero decoherence
particle:
  radius_nm: 90.0
  density_kg_m3: 2201.0
  permittivity_trap: {real: 2.1, imag: 2.5e-10}
  permittivity_bb: {real: 2.1, imag: 0.57}
environment:
  temperature_K: 0.0
  pressure_Pa: 0.0
  gas_mass_amu: 2.0
trap:
  wavelength_nm: 1064.0
  power_W: 0.1
  waist_um: 10.0
  internal_temperature_K: 0.0
"""

BROKEN_SCENARIO = """\
label: broken
particle:
  radius_nm: 90.0
  density_kg_m3: 2201.0
  permittivity_trap: {real: 2.1, imag: 2.5e-10}
  permittivity_bb: {real: 2.1, imag: 0.57}
environment:
  pressure_Pa: 1.0e-12
  gas_mass_amu: 2.0
trap:
  wavelength_nm: 1064.0
  power_W: 0.1
  waist_um: 10.0
  internal_temperature_K: 98.0
"""


# residual gas at zero temperature: no thermal velocity, undefined rate
COLD_GAS_SCENARIO = ZERO_SCENARIO.replace("pressure_Pa: 0.0", "pressure_Pa: 1.0e-12")

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "macrocoh" / "data"


def packaged_copy(tmp_path, name, edit):
    """A YAML copy of the packaged file `name` with `edit` applied to its
    mapping."""
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / Path(name).name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def value_map(path):
    return {row["quantity"]: row for row in read_rows(path)}


# ------------------------------------------------------ decoherence-report

def test_decoherence_report_baseline(tmp_path, capsys):
    out = tmp_path / "deco.csv"
    assert main(["decoherence-report", "--out", str(out)]) == 0
    values = value_map(out)
    assert float(values["ced"]["value"]) < 175e-9
    emit = float(values["lambda_bb_emit"]["value"])
    total = float(values["lambda_total"]["value"])
    assert emit / total > 0.99
    assert values["cet"]["unit"] == "s"
    manifest = json.loads((tmp_path / "deco.csv.manifest.json").read_text())
    assert manifest["command"] == "decoherence-report"
    assert str(out) in manifest["outputs"]


def test_decoherence_report_infinite_marker(tmp_path):
    scenario = tmp_path / "zero.yaml"
    scenario.write_text(ZERO_SCENARIO)
    out = tmp_path / "zero.csv"
    assert main(["decoherence-report", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    values = value_map(out)
    assert values["cet"]["value"] == "inf"
    assert values["ced"]["value"] == "inf"


def test_decoherence_report_missing_field_exit_2(tmp_path, capsys):
    scenario = tmp_path / "broken.yaml"
    scenario.write_text(BROKEN_SCENARIO)
    out = tmp_path / "broken.csv"
    assert main(["decoherence-report", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "temperature_K" in capsys.readouterr().err
    assert not out.exists()


def test_decoherence_report_mass_underflow_is_invalid_input_exit_2(tmp_path,
                                                                  capsys):
    # a radius of 1e-129 m cubes to 0, so the mass underflows
    scenario = packaged_copy(tmp_path, "scenarios/baseline_fig2.yaml",
                             lambda doc: doc["particle"].update(radius_nm=1e-120))
    assert main(["decoherence-report", "--scenario", str(scenario),
                 "--out", str(tmp_path / "new" / "d.csv")]) == 2
    assert capsys.readouterr() == (
        "", "error: invalid input: mass and trap frequency must be positive\n")
    assert [p.name for p in tmp_path.iterdir()] == ["baseline_fig2.yaml"]


def test_decoherence_report_unknown_preset_exit_2(tmp_path, capsys):
    for command in ("decoherence-report", "testability"):
        assert main([command, "--preset", "nope",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: --preset: unknown preset 'nope'; available: "
            "['fig2_baseline', 'fig3_left', 'fig3_right']\n")
    assert not (tmp_path / "x.csv").exists()


def test_decoherence_report_overflow_exit_1(tmp_path, capsys):
    def huge(doc):
        del doc["particle"]["radius_nm"]
        doc["particle"]["radius_m"] = 1e110

    scenario = packaged_copy(tmp_path, "scenarios/baseline_fig2.yaml", huge)
    out = tmp_path / "deco.csv"
    assert main(["decoherence-report", "--scenario", str(scenario),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: computation failed: 1e+110 ** 3 overflows a float\n"
    assert not out.exists()


def test_decoherence_report_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["decoherence-report", "--out", str(out_a)]) == 0
    assert main(["decoherence-report", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# ------------------------------------------------------------- testability

def test_testability_minimal_run(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--points", "2", "--models", "csl",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert "ced_csl_m" in rows[0] and "violated_csl" in rows[0]


def test_testability_baseline_intervals_nonempty_for_csl(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    intervals = tmp_path / "intervals.csv"
    assert main(["testability", "--preset", "fig2_baseline",
                 "--models", "csl,qg", "--points", "15",
                 "--out", str(out), "--intervals-out", str(intervals)]) == 0
    spans = read_rows(intervals)
    assert any(row["model"] == "csl" for row in spans)
    stdout = capsys.readouterr().out
    assert "ced_qg" in stdout  # highlight row echoes every model


def test_testability_deterministic_bytes(tmp_path):
    args = ["testability", "--points", "6", "--models", "csl,dp"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_testability_bytes_do_not_depend_on_numpy_simd(tmp_path):
    # the grid is built on libm and every column law uses libm or correctly
    # rounded operations, so numpy's AVX-512 paths change no byte
    args = ["testability", "--points", "2000", "--models",
            "csl,csl_adler,qg,k,dp,k_sat"]
    outputs = []
    for name, extra in (("simd", {}), ("plain", {
            "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"})):
        out = tmp_path / name / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "macrocoh.cli", *args, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, **extra, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(),
                        Path(f"{out}.intervals.csv").read_bytes(),
                        proc.stdout.replace(str(out), "<out>"), proc.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 2001


def test_testability_default_run_finite_ced_in_former_bracketing_window(tmp_path, capsys):
    # the K cell at r = 1.4906e-8 m has a CET of 7.77e8 s, below TAU_CAP;
    # it used to be written as inf
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--out", str(out)]) == 0
    row = min(read_rows(out), key=lambda r: abs(float(r["radius_m"]) - 1.4906e-8))
    assert float(row["radius_m"]) == pytest.approx(1.4906e-8, rel=1e-4)
    ced_k = float(row["ced_k_m"])
    assert math.isfinite(ced_k)
    base = scenario_presets()["fig2_baseline"]
    _, _, v_m = scenario_kinematics(base.with_radius(float(row["radius_m"])))
    assert ced_k / v_m == pytest.approx(7.77e8, rel=1e-3)


def test_testability_writes_one_manifest_naming_both_outputs(tmp_path):
    out = tmp_path / "sweep.csv"
    intervals = tmp_path / "spans.csv"
    assert main(["testability", "--points", "3", "--models", "csl",
                 "--out", str(out), "--intervals-out", str(intervals)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "spans.csv", "sweep.csv", "sweep.csv.manifest.json"]
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["command"] == "testability"
    assert manifest["outputs"] == [str(out), str(intervals)]


def test_testability_zero_temperature_with_gas_exit_2(tmp_path, capsys):
    scenario = tmp_path / "cold.yaml"
    scenario.write_text(COLD_GAS_SCENARIO)
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--scenario", str(scenario), "--points", "3",
                 "--out", str(out)]) == 2
    assert f"{scenario}.environment.temperature_K" in capsys.readouterr().err
    assert not out.exists()


def test_testability_and_reports_run_without_scipy(tmp_path):
    # only the quadrature oracle gamma_quadrature needs scipy, and loads it
    # then; only a testability sweep of more than SCALAR_CELLS cells needs numpy
    script = f"""
import sys
import macrocoh.cli
from macrocoh.cli import main
def loaded(package):
    return any(m.split(".")[0] == package for m in sys.modules)
out = {str(tmp_path)!r}
assert not loaded("numpy"), "numpy loaded by the import"
for command in ("decoherence-report", "vacuum-report", "mission-report"):
    assert main([command, "--out", out + "/" + command + ".csv"]) == 0
assert not loaded("numpy"), "numpy loaded by a report"
assert main(["testability", "--models", "dp,k_sat", "--points", "8",
             "--out", out + "/s.csv"]) == 0
assert not loaded("numpy"), "numpy loaded by a sweep of 24 cells"
assert main(["testability", "--models", "dp,k_sat", "--points", "200",
             "--out", out + "/s.csv"]) == 0
assert loaded("numpy")
assert not loaded("scipy"), "scipy loaded"
from macrocoh import qm_channel_rates, scenario_presets
from macrocoh.expansion import gamma_quadrature
scenario = scenario_presets()["fig2_baseline"]
spec = qm_channel_rates(scenario).as_decoherence_spec()
assert gamma_quadrature(1.0, spec, scenario.kinematics) > 0.0
assert "scipy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


WITHOUT_SCIPY_CALLS = [
    ["decoherence-report", "--out", "deco.csv"],
    ["testability", "--out", "sweep.csv"],
    ["vacuum-report", "--out", "vacuum.csv"],
    ["mission-report", "--out", "mission.csv"],
    ["testability", "--points", "2000", "--models", "csl,csl_adler,qg,k",
     "--out", "dense.csv"],
]


def test_every_subcommand_runs_with_scipy_unimportable(tmp_path, capsys,
                                                       monkeypatch):
    # sys.modules["scipy"] = None makes every import of scipy raise, as on an
    # install without the test extra; the outputs equal those of a normal run
    script = f"""
import sys
sys.modules["scipy"] = None
from macrocoh.cli import main
for argv in {WITHOUT_SCIPY_CALLS!r}:
    assert main(argv) == 0, argv
from macrocoh import qm_channel_rates, scenario_presets
from macrocoh.expansion import gamma_quadrature
scenario = scenario_presets()["fig2_baseline"]
spec = qm_channel_rates(scenario).as_decoherence_spec()
try:
    gamma_quadrature(1.0, spec, scenario.kinematics)
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("gamma_quadrature ran without scipy")
"""
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    proc = subprocess.run([sys.executable, "-c", script], cwd=blocked,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr

    normal = tmp_path / "normal"
    normal.mkdir()
    monkeypatch.chdir(normal)
    for argv in WITHOUT_SCIPY_CALLS:
        assert main(argv) == 0, argv
    assert proc.stdout == capsys.readouterr().out
    assert _outputs(blocked) == _outputs(normal)
    assert len(_outputs(normal)) == 12


def test_testability_failed_qm_cells_are_undecided(tmp_path, capsys, monkeypatch):
    # a scenario built in code can skip the zero-temperature check of
    # load_scenario; every QM cell then fails, and no flag may read "false"
    base = scenario_presets()["fig2_baseline"]
    cold = replace(base, environment=replace(base.environment,
                                             temperature=0.0))
    assert cold.environment.pressure > 0.0
    # the CLI resolves presets through the scenario module at call time
    monkeypatch.setattr("macrocoh.scenario.load_preset", lambda name: cold)
    out = tmp_path / "sweep.csv"
    intervals = tmp_path / "intervals.csv"
    assert main(["testability", "--points", "4", "--models", "csl,k",
                 "--out", str(out), "--intervals-out", str(intervals)]) == 1
    rows = read_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert row["ced_qm_m"] == "nan"
        assert float(row["ced_csl_m"]) > 0.0
        assert row["violated_csl"] == row["violated_k"] == "nan"
    assert read_rows(intervals) == []
    err = capsys.readouterr().err
    assert err.count("'qm': 'finite pressure at zero temperature "
                     "is inconsistent'") == 4


def test_testability_radius_beyond_the_particle_formulas_fails_its_row(
        tmp_path, capsys):
    # r^3 underflows at 1e-110 m and overflows at 1e110 m: those rows write
    # nan, and the run still writes both CSVs and succeeds
    out = tmp_path / "sweep.csv"
    intervals = tmp_path / "intervals.csv"
    assert main(["testability", "--radius-min", "1e-110", "--radius-max",
                 "1e110", "--points", "7", "--out", str(out),
                 "--intervals-out", str(intervals)]) == 0
    rows = read_rows(out)
    assert len(rows) == 7
    for row in (rows[0], rows[-1]):
        assert row["ced_qm_m"] == "nan"
        assert {row[f"violated_{n}"] for n in ("csl", "qg", "k", "dp")} == {"nan"}
    assert float(rows[3]["ced_qm_m"]) > 0.0
    assert read_rows(intervals) == []
    err = capsys.readouterr().err
    assert "warning: r=1.000e-110 m: {'qm': 'mass and trap frequency" in err


def test_testability_overflow_messages_name_the_operation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--radius-min", "1e-110", "--radius-max",
                 "1e110", "--points", "7", "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines and not [line for line in lines if "(34, " in line]
    for radius in ("4.642e-74", "2.154e-37"):
        line, = [line for line in lines if f"r={radius} m:" in line]
        assert re.search(r"'k': '[0-9.e+]+ \*\* \d overflows a float'", line)


def test_testability_mass_overflow_writes_nan_and_names_the_mass(tmp_path,
                                                                 capsys):
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--radius-min", "1e-7", "--radius-max",
                 "1e102", "--points", "2", "--models", "qg,dp",
                 "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1]
    assert last == "1e+102," + ",".join(["nan"] * 6)
    message = "'particle mass (4/3) pi r^3 rho overflows a float'"
    assert (f"warning: r=1.000e+102 m: {{'qm': {message}, 'qg': {message}, "
            f"'dp': {message}}}") in capsys.readouterr().err


def test_testability_every_row_failing_exit_1(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--radius-min", "1e-120", "--radius-max",
                 "1e-110", "--points", "2", "--out", str(out)]) == 1
    assert [row["ced_qm_m"] for row in read_rows(out)] == ["nan", "nan"]
    assert (tmp_path / "sweep.csv.intervals.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--radius-max", "inf"), ("--radius-min", "inf"), ("--radius-min", "nan")])
def test_testability_non_finite_radius_bound_exit_2(tmp_path, capsys, flag,
                                                     value):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["testability", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag}: must be finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--radius-min", "1e-6"), "need 0 < radius_min < radius_max"),
    (("--points", "1"), "a sweep needs at least 2 points")])
def test_testability_out_of_range_flag_exit_2_names_the_flags(
        tmp_path, capsys, flags, message):
    out = tmp_path / "sweep.csv"
    assert main(["testability", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --radius-min, --radius-max, --points and --models: "
        f"{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag, extra", [
    ("testability", "--highlight-radius", []),
    ("vacuum-report", "--sphere-radius", []),
    ("vacuum-report", "--time", []),
    ("vacuum-report", "--patch-diameter", ["--distance", "0.1"]),
    ("vacuum-report", "--distance", ["--patch-diameter", "1e-3"]),
    ("vacuum-report", "--cold-temperature", []),
])
def test_non_finite_float_flag_exit_2(tmp_path, capsys, command, flag, extra,
                                      value):
    out = tmp_path / "out.csv"
    assert main([command, f"{flag}={value}", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag}: must be finite, got {value}\n"
    assert not out.exists()


def _float_flags():
    """(command, flag) of every float flag of the parser, in its order."""
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in commands.items()
            for action in parser._actions if action.type is float]


def test_float_flags_are_those_of_the_parser():
    assert _float_flags() == [
        ("testability", "--radius-min"), ("testability", "--radius-max"),
        ("testability", "--highlight-radius"),
        ("vacuum-report", "--sphere-radius"), ("vacuum-report", "--time"),
        ("vacuum-report", "--patch-diameter"), ("vacuum-report", "--distance"),
        ("vacuum-report", "--cold-temperature")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_every_float_flag_must_be_finite(tmp_path, capsys, command, flag,
                                         value):
    # checked before any other flag and before the output paths: no companion
    # flag is needed, and --out naming a folder is not reached
    assert main([command, f"{flag}={value}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag}: must be finite, got {value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, name", [
    ("testability", ["--models", "csl,k,csl"], "--models: csl"),
    ("vacuum-report", ["--material", "kapton", "--material", "cfrp",
                       "--material", "kapton"], "--material: kapton")],
    ids=["models", "material"])
def test_repeated_name_exit_2_names_its_flag(tmp_path, capsys, command, flags,
                                             name):
    # a reader keyed by model or material would keep only one of the rows
    assert main([command, *flags, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {name} given more than once\n"
    assert list(tmp_path.iterdir()) == []


def test_testability_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr("macrocoh.testability.radius_grid", exhausted)
    assert main(["testability", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: computation failed: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_testability_unknown_model_exit_2(tmp_path, capsys):
    assert main(["testability", "--models", "csl,unknown",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown" in capsys.readouterr().err


def test_testability_empty_model_list_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["testability", "--models", ",", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --models: empty model list\n"
    assert not out.exists()


# ----------------------------------------------------------- vacuum-report

def test_vacuum_report_reproduces_collision_rates(tmp_path):
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", "--sphere-radius", "2e-7",
                 "--out", str(out)]) == 0
    rows = {row["material"]: row for row in read_rows(out)}
    expected = {"cfrp": 603.0, "kapton": 113.0, "adhesives": 3896.0}
    for name, rate in expected.items():
        assert float(rows[name]["collision_rate_per_s"]) == pytest.approx(
            rate, rel=0.01)


def test_vacuum_report_time_decays_outgassing(tmp_path):
    fresh = tmp_path / "t0.csv"
    aged = tmp_path / "t1.csv"
    assert main(["vacuum-report", "--out", str(fresh)]) == 0
    assert main(["vacuum-report", "--time", "7.2e6", "--out", str(aged)]) == 0
    fresh_rows = {r["material"]: r for r in read_rows(fresh)}
    aged_rows = {r["material"]: r for r in read_rows(aged)}
    for name in fresh_rows:
        assert (float(aged_rows[name]["mass_loss_rate_kg_s"])
                < float(fresh_rows[name]["mass_loss_rate_kg_s"]))


def test_vacuum_report_optional_columns(tmp_path):
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", "--patch-diameter", "1e-3",
                 "--distance", "0.1", "--cold-temperature", "30",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[0]["dilution_factor"]) == pytest.approx(3.927e-5,
                                                              rel=1e-3)
    assert float(rows[0]["attenuation_at_10_Eroom"]) == pytest.approx(
        3.86e39, rel=1e-2)


@pytest.mark.parametrize("time, diameter, distance", [
    ("3600", "1e-3", "0.1"), ("1e12", "0.01", "1")])
def test_vacuum_report_dilution_factor_is_the_geometry(tmp_path, time,
                                                       diameter, distance):
    # A / (2 x^2) of the patch, whatever the material; at 1e12 s every
    # density has decayed to 0 and the factor is still defined
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", "--time", time, "--patch-diameter", diameter,
                 "--distance", distance, "--out", str(out)]) == 0
    area = math.pi * (0.5 * float(diameter)) ** 2
    factors = {row["dilution_factor"] for row in read_rows(out)}
    assert factors == {repr(area / (2.0 * float(distance) ** 2))}


@pytest.mark.parametrize("given", [["--patch-diameter", "1e-3"],
                                   ["--distance", "0.1"]])
def test_vacuum_report_dilution_needs_both_flags_exit_2(tmp_path, capsys,
                                                        given):
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", *given, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--patch-diameter" in err and "--distance" in err
    assert not out.exists()


def test_vacuum_report_unknown_material_exit_2(tmp_path, capsys):
    assert main(["vacuum-report", "--material", "wood",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_vacuum_report_selected_materials_in_the_given_order(tmp_path):
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", "--material", "kapton", "--material", "cfrp",
                 "--out", str(out)]) == 0
    assert [row["material"] for row in read_rows(out)] == ["kapton", "cfrp"]


@pytest.mark.parametrize("given, message", [
    (["--patch-diameter=-1e-3", "--distance", "0.1"],
     "--patch-diameter: must be positive, got -0.001"),
    (["--patch-diameter", "0", "--distance", "0.1"],
     "--patch-diameter: must be positive, got 0.0"),
    (["--patch-diameter", "1e-3", "--distance", "0"],
     "--patch-diameter and --distance: distance must exceed the patch extent"),
    (["--cold-temperature", "0"],
     "--cold-temperature (t_hot is <packaged materials.yaml>.temperature_K, "
     "300.0 K): need t_hot > t_cold > 0"),
    (["--cold-temperature", "400"],
     "--cold-temperature (t_hot is <packaged materials.yaml>.temperature_K, "
     "300.0 K): need t_hot > t_cold > 0"),
    (["--materials", "{materials}", "--cold-temperature", "260"],
     "--cold-temperature (t_hot is {materials}.temperature_K, 250.0 K): "
     "need t_hot > t_cold > 0"),
    (["--sphere-radius", "-1"],
     "--sphere-radius: sphere radius must be non-negative"),
    (["--time", "-1"], "--time: must be non-negative"),
], ids=["negative-diameter", "zero-diameter", "distance-in-patch",
        "zero-cold", "cold-above-hot", "cold-above-given-hot",
        "negative-sphere", "negative-time"])
def test_vacuum_report_out_of_range_flag_exit_2_names_it(tmp_path, capsys,
                                                         given, message):
    # the domain check stays in vacuum; the command names the flags it
    # blames, and the materials file value a flag was compared with
    materials = packaged_copy(tmp_path, "materials.yaml",
                              lambda doc: doc.update(temperature_K=250.0))
    given = [arg.format(materials=materials) for arg in given]
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", *given, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"error: {message.format(materials=materials)}\n")
    assert not out.exists()


# ---------------------------------------------------------- mission-report

def test_mission_report_defaults(tmp_path):
    out = tmp_path / "mission.csv"
    assert main(["mission-report", "--out", str(out)]) == 0
    values = value_map(out)
    assert float(values["orbital_period_days"]["computed"]) == pytest.approx(
        22.0, rel=0.05)
    assert float(values["perigee_gravity_g_fraction"]["computed"]) == \
        pytest.approx(0.4, rel=0.05)
    assert float(values["perigee_window_minutes"]["computed"]) == \
        pytest.approx(20.2, rel=0.10)
    assert float(values["budget_mission_dry_total"]["computed"]) == 544.0
    assert values["budget_mission_dry_total"]["target"] == "544.0"
    # thruster rows carry both the model result and the design claim
    spread = values["thruster_position_spread_10s"]
    assert float(spread["computed"]) > float(spread["target"])


def test_mission_report_flags_budget_mismatch(tmp_path, capsys):
    budgets = tmp_path / "budgets.yaml"
    budgets.write_text(
        "mass_budgets:\n"
        "  broken:\n"
        "    unit: kg\n"
        "    items: {a: 97.0, b: 237.0, c: 211.0}\n"
        "    declared_total: 544.0\n"
        "power_budgets: {}\n")
    out = tmp_path / "mission.csv"
    assert main(["mission-report", "--budgets", str(budgets),
                 "--out", str(out)]) == 1
    assert "delta" in capsys.readouterr().err
    values = value_map(out)
    assert float(values["budget_broken_total"]["computed"]) == 545.0


def test_mission_report_empty_ledger_exit_2(tmp_path, capsys):
    budgets = tmp_path / "budgets.yaml"
    budgets.write_text(
        "mass_budgets:\n"
        "  hollow:\n"
        "    unit: kg\n"
        "    items: {}\n"
        "    declared_total: 0.0\n"
        "power_budgets: {}\n")
    assert main(["mission-report", "--budgets", str(budgets),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_csv_headers_declare_units(tmp_path):
    deco = tmp_path / "deco.csv"
    vac = tmp_path / "vac.csv"
    mission = tmp_path / "mission.csv"
    assert main(["decoherence-report", "--out", str(deco)]) == 0
    assert main(["vacuum-report", "--out", str(vac)]) == 0
    assert main(["mission-report", "--out", str(mission)]) == 0
    assert deco.read_text().splitlines()[0] == "quantity,value,unit"
    assert mission.read_text().splitlines()[0] == "quantity,computed,target,unit"
    vac_header = vac.read_text().splitlines()[0]
    assert "gamma0_per_m2_s" in vac_header and "pressure_mbar" in vac_header


# ------------------------------------------------------ bad paths

@pytest.mark.parametrize("command, flag", [
    ("decoherence-report", "--scenario"), ("testability", "--scenario"),
    ("vacuum-report", "--materials"), ("mission-report", "--orbit"),
    ("mission-report", "--budgets")])
def test_input_path_that_is_a_directory_exit_2(tmp_path, capsys, command, flag):
    folder = tmp_path / "inputs"
    folder.mkdir()
    out = tmp_path / "out.csv"
    assert main([command, flag, str(folder), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {folder}: cannot read")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inputs"]


@pytest.mark.parametrize("command", ["decoherence-report", "testability",
                                     "vacuum-report", "mission-report"])
def test_output_under_a_file_exit_2(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a folder\n")
    out = blocker / "sub" / "out.csv"
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {out}: cannot make its folder: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "not a folder\n"


@pytest.mark.parametrize("intervals", ["blocker/i.csv", "blocker/sub/i.csv"])
def test_a_folder_that_cannot_be_made_takes_away_those_made_before(
        tmp_path, capsys, intervals):
    # --out's folders are made first, then --intervals-out's fails: a file
    # stands where its folder, or an ancestor of it, should be
    blocker = tmp_path / "blocker"
    blocker.write_text("not a folder\n")
    out = tmp_path / "new" / "deeper" / "x.csv"
    assert main(["testability", "--points", "3", "--out", str(out),
                 "--intervals-out", str(tmp_path / intervals)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / intervals}: cannot make its folder: "
        "Not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "not a folder\n"


@pytest.mark.parametrize("out", ["sub/../d2.csv", "sub/../sub/x.csv"])
def test_an_output_through_a_made_folder_and_back_is_written(
        tmp_path, capsys, monkeypatch, out):
    # once sub is made, sub/.. is there: a folder present, not one that
    # cannot be made
    monkeypatch.chdir(tmp_path)
    assert main(["decoherence-report", "--out", out]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    assert (tmp_path / out).is_file() and (tmp_path / "sub").is_dir()


def test_a_file_past_a_made_folder_and_back_is_not_a_directory(
        tmp_path, capsys, monkeypatch):
    # sub/.. of --out is present, not made, so only sub is taken away when a
    # folder of --intervals-out, or of --out itself, cannot be made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("not a folder\n")
    for out, intervals in (("sub/../sub/x.csv", "blocker/sub/i.csv"),
                           ("sub/../blocker/x.csv", "i.csv")):
        assert main(["testability", "--points", "3", "--out", out,
                     "--intervals-out", intervals]) == 2
        failed = out if intervals == "i.csv" else intervals
        assert capsys.readouterr().err == (
            f"error: {failed}: cannot make its folder: Not a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert (tmp_path / "blocker").read_text() == "not a folder\n"


@pytest.mark.parametrize("intervals", ["blocker/intervals.csv", "folder"])
def test_bad_intervals_path_writes_no_sweep(tmp_path, capsys, intervals):
    (tmp_path / "blocker").write_text("")
    (tmp_path / "folder").mkdir()
    assert main(["testability", "--points", "4", "--out",
                 str(tmp_path / "sweep.csv"), "--intervals-out",
                 str(tmp_path / intervals)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / intervals}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "folder"]
    assert list((tmp_path / "folder").iterdir()) == []


@pytest.mark.parametrize("intervals, line", [
    ("x.csv", "x.csv: --out and --intervals-out name the same file"),
    ("./x.csv", "x.csv: --out and --intervals-out name the same file"),
    ("sub/../x.csv", "sub/../x.csv: --out and --intervals-out name the same file"),
    ("{tmp}/x.csv", "{tmp}/x.csv: --out and --intervals-out name the same file"),
    ("x.csv.manifest.json",
     "x.csv.manifest.json: --intervals-out and the manifest of --out "
     "name the same file"),
], ids=["same", "dot", "parent", "absolute", "manifest"])
def test_colliding_outputs_exit_2_and_write_nothing(tmp_path, capsys,
                                                    monkeypatch, intervals, line):
    monkeypatch.chdir(tmp_path)
    assert main(["testability", "--points", "4", "--out", "x.csv",
                 "--intervals-out", intervals.format(tmp=tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {line.format(tmp=tmp_path)}\n")
    assert list(tmp_path.iterdir()) == []


def test_output_on_a_symlink_loop_replaces_the_link(tmp_path, capsys,
                                                    monkeypatch):
    # the rename replaces the link itself, so the run succeeds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").symlink_to("x.csv")
    assert main(["vacuum-report", "--out", "x.csv"]) == 0
    assert capsys.readouterr().out == "wrote x.csv (3 materials)\n"
    assert not (tmp_path / "x.csv").is_symlink()
    assert len(read_rows(tmp_path / "x.csv")) == 3


def test_manifest_path_that_is_a_directory_writes_no_csv(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert main(["testability", "--points", "4", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "error: x.csv.manifest.json: is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv.manifest.json"]
    assert list((tmp_path / "x.csv.manifest.json").iterdir()) == []


def test_output_that_is_a_directory_exit_2(tmp_path, capsys):
    assert main(["vacuum-report", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["os.open", "os.write", "os.replace"])
def test_failed_write_names_the_output_and_leaves_no_temp_file(
        tmp_path, capsys, monkeypatch, target):
    def refuse(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", "x.tmp")

    monkeypatch.setattr(target, refuse)
    out = tmp_path / "vac.csv"
    assert main(["vacuum-report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {out}: cannot write: No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_write_skips_a_temp_name_already_taken(tmp_path):
    # a temp file left by an earlier process of the same pid stays as it is
    out = tmp_path / "vac.csv"
    stale = tmp_path / f"vac.csv.{os.getpid()}.0.tmp"
    stale.write_text("stale\n")
    assert main(["vacuum-report", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        "vac.csv", "vac.csv.manifest.json", stale.name])
    assert stale.read_text() == "stale\n"
    assert len(read_rows(out)) == 3


def test_colliding_outputs_exit_2_before_the_sweep(tmp_path, capsys,
                                                  monkeypatch):
    def never(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("macrocoh.testability.sweep", never)
    monkeypatch.chdir(tmp_path)
    assert main(["testability", "--points", "200000", "--models", "csl",
                 "--out", "x.csv", "--intervals-out", "x.csv"]) == 2
    assert capsys.readouterr() == (
        "", "error: x.csv: --out and --intervals-out name the same file\n")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------ the run skeleton

SKELETON_RUNS = [["decoherence-report"], ["testability", "--points", "4"],
                 ["vacuum-report", "--patch-diameter", "1e-3", "--distance",
                  "0.1"], ["mission-report"]]


@pytest.mark.parametrize("argv", SKELETON_RUNS, ids=lambda argv: argv[0])
def test_command_returns_what_main_writes_and_touches_no_file(
        tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a command touched a file")

    out = tmp_path / "run" / "out.csv"
    args = build_parser().parse_args([*argv, "--out", str(out)])
    with monkeypatch.context() as patch:
        for name in ("open", "mkdir", "replace"):
            patch.setattr(os, name, refuse)
        run = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []

    assert main([*argv, "--out", str(out)]) == run.status == 0
    assert [path.read_text(encoding="utf-8")
            for path in cli._outputs(args)] == run.texts
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert (manifest["inputs"], manifest["parameters"]) == (run.inputs,
                                                            run.parameters)
    assert capsys.readouterr() == (
        "".join(f"{line}\n" for line in run.stdout),
        "".join(f"warning: {warning}\n" for warning in run.warnings))


def test_command_warnings_and_status_reach_stderr_and_the_exit_code(
        tmp_path, capsys):
    budgets = tmp_path / "budgets.yaml"
    budgets.write_text("mass_budgets:\n  broken:\n    unit: kg\n"
                       "    items: {a: 1.0}\n    declared_total: 2.0\n"
                       "power_budgets: {}\n")
    argv = ["mission-report", "--budgets", str(budgets),
            "--out", str(tmp_path / "m.csv")]
    run = cli.cmd_mission_report(build_parser().parse_args(argv))
    assert (run.warnings, run.status) == (
        ["budget broken: line items sum to 1 kg but declare 2 kg (delta -1)"], 1)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"warning: {run.warnings[0]}\n"


@pytest.mark.parametrize("out", ["x.csv", "new/deeper/x.csv"])
def test_failed_run_leaves_no_output_folder(tmp_path, capsys, monkeypatch,
                                            out):
    # the folders are made after the command, so a run that fails in it
    # leaves nothing behind, however deep its outputs
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr("macrocoh.testability.radius_grid", exhausted)
    assert main(["testability", "--out", str(tmp_path / out)]) == 1
    assert main(["decoherence-report", "--preset", "nope",
                 "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == (
        "error: computation failed: out of memory\n"
        "error: --preset: unknown preset 'nope'; available: "
        "['fig2_baseline', 'fig3_left', 'fig3_right']\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["decoherence-report", "--preset", "nope"],
    ["testability", "--models", "nope"],
    ["vacuum-report", "--time", "-1"],
    ["mission-report", "--orbit", "missing.yaml"]], ids=lambda argv: argv[0])
def test_output_error_comes_before_any_input_error(tmp_path, capsys,
                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "."]) == 2
    assert capsys.readouterr().err == "error: .: is a directory\n"
    if argv[0] == "testability":
        assert main([*argv, "--out", "x.csv", "--intervals-out", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: x.csv: --out and --intervals-out name the same file\n")
    assert list(tmp_path.iterdir()) == []


def test_preset_is_loaded_once_and_an_unknown_one_fails_each_time(
        tmp_path, capsys):
    from macrocoh.scenario import load_preset

    assert load_preset("fig3_right") is load_preset("fig3_right")
    for _ in range(2):
        assert main(["testability", "--preset", "nope",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --preset: unknown preset 'nope'; available: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, missing", [
    (["decoherence-report", "--scenario", "missing.yaml", "--out", "d.csv"],
     "missing.yaml"),
    (["vacuum-report", "--materials", "nope/m.yaml", "--out", "v.csv"],
     "nope/m.yaml"),
], ids=["scenario", "materials"])
def test_a_missing_input_file_exits_2_and_leaves_nothing(tmp_path, capsys,
                                                         monkeypatch, argv,
                                                         missing):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {missing}: file not found\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["decoherence-report", "testability",
                                     "vacuum-report", "mission-report"])
def test_outputs_take_the_umask_mode(tmp_path, command):
    out = tmp_path / "out.csv"
    umask = os.umask(0o022)
    try:
        assert main([command, "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    written = sorted(tmp_path.iterdir())
    assert len(written) == (3 if command == "testability" else 2)
    for path in written:
        assert path.stat().st_mode & 0o777 == 0o644, path.name


def test_manifest_time_is_iso_8601_utc(tmp_path):
    from datetime import datetime, timedelta, timezone

    out = tmp_path / "vac.csv"
    before = datetime.now(timezone.utc)
    assert main(["vacuum-report", "--out", str(out)]) == 0
    after = datetime.now(timezone.utc)
    text = json.loads(Path(f"{out}.manifest.json").read_text())["created_utc"]
    assert re.fullmatch(
        r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", text), text
    created = datetime.fromisoformat(text)
    assert created.utcoffset() == timedelta(0)
    assert before - timedelta(seconds=1) <= created <= after


# ------------------------------------------------------ highlight row

def test_testability_highlight_tie_echoes_the_lower_radius(tmp_path, capsys):
    # a linear grid 1e-7, 2e-7, 3e-7 m; 1.5e-7 m lies exactly half way
    out = tmp_path / "sweep.csv"
    assert main(["testability", "--grid", "linear", "--points", "3",
                 "--radius-min", "1e-7", "--radius-max", "3e-7",
                 "--highlight-radius", "1.5e-7", "--out", str(out)]) == 0
    radii = [float(row["radius_m"]) for row in read_rows(out)]
    assert 1.5e-7 - radii[0] == radii[1] - 1.5e-7
    assert f"highlight r={radii[0]:.3e} m:" in capsys.readouterr().out


def _min_choice(radii, target):
    # the row a linear scan picks: the first of the equally near radii
    return min(range(len(radii)), key=lambda i: abs(radii[i] - target))


# a narrow log grid whose clamped ends repeat its first and its last radius
NARROW = ["--radius-min", "1.0554981866069301e-07", "--radius-max",
          "1.0554981866071171e-07", "--points", "227"]


@pytest.mark.parametrize("flags, target", [
    ([], "1e-9"),
    ([], "1e-6"),
    (["--grid", "linear", "--points", "3", "--radius-min", "1e-7",
      "--radius-max", "3e-7"], "1.5e-7"),
    (NARROW, "1.0554981866069301e-07"),
    (NARROW, "1.0554981866069312e-07"),
    (NARROW, "1.0554981866071171e-07"),
    (NARROW, "1.0554981866071180e-07"),
], ids=["below", "above", "tie", "narrow-min", "narrow-halfway", "narrow-max",
        "narrow-above"])
def test_highlight_row_is_the_nearest_radius_first_of_ties(tmp_path, capsys,
                                                           flags, target):
    out = tmp_path / "sweep.csv"
    assert main(["testability", *flags, "--models", "csl",
                 "--highlight-radius", target, "--out", str(out)]) == 0
    rows = read_rows(out)
    radii = [float(row["radius_m"]) for row in rows]
    index = _min_choice(radii, float(target))
    if flags is NARROW:
        assert radii[0] == radii[1] and radii[-2] == radii[-1]
    row = rows[index]
    assert (f"highlight r={radii[index]:.3e} m: "
            f"ced_qm={float(row['ced_qm_m']):.3e} m, "
            f"ced_csl={float(row['ced_csl_m']):.3e} m\n"
            ) in capsys.readouterr().out


# ------------------------------------------- repeated in-process calls

REPEATED_CALLS = [
    ["testability", "--points", "40", "--models", "dp,k_sat",
     "--out", "a/sat.csv"],
    ["decoherence-report", "--out", "a/deco.csv"],
    ["--help"],
    ["vacuum-report", "--cold-temperature", "30", "--out", "a/vac.csv"],
    ["testability", "--points", "40", "--bogus", "--out", "a/bad.csv"],
    ["mission-report", "--out", "b/mission.csv"],
    ["testability", "--help"],
    ["testability", "--points", "40", "--grid", "linear", "--models",
     "csl,csl_adler,qg,k", "--highlight-radius", "2e-7", "--out", "b/quad.csv"],
    ["testability", "--points", "40", "--models", "dp,k_sat",
     "--out", "b/sat.csv"],
]


def _outputs(folder):
    """Every file under folder by relative path, manifests without their
    timestamp."""
    files = {}
    for path in sorted(folder.rglob("*")):
        if path.is_file():
            text = path.read_text()
            if path.name.endswith(".manifest.json"):
                doc = json.loads(text)
                doc.pop("created_utc")
                text = json.dumps(doc, sort_keys=True)
            files[str(path.relative_to(folder))] = text
    return files


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys,
                                                         monkeypatch):
    # one parser serves every main() call of a process; --help and a usage
    # error in between must leave it as a fresh process builds it
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    procs = [subprocess.Popen([sys.executable, "-m", "macrocoh.cli", *argv],
                              cwd=fresh, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for argv in REPEATED_CALLS]
    expected = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        expected.append((proc.returncode, out, err))

    monkeypatch.setenv("COLUMNS", "80")
    inside = tmp_path / "inside"
    inside.mkdir()
    monkeypatch.chdir(inside)
    parser = cli._parser()
    for argv, want in zip(REPEATED_CALLS, expected):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code,) + tuple(capsys.readouterr())
        assert got == want, argv
        assert cli._parser() is parser
    assert _outputs(inside) == _outputs(fresh)
    assert len(_outputs(inside)) == 15
    assert cli.build_parser() is not parser


def test_main_leaves_the_gc_unfrozen(tmp_path):
    # only entrypoint(), which ends the process, freezes the collector
    frozen = gc.get_freeze_count()
    assert main(["testability", "--points", "3",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["mission-report", "--out", str(tmp_path / "m.csv")]) == 0
    assert gc.get_freeze_count() == frozen


def test_entrypoint_freezes_the_gc_before_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["macrocoh", "vacuum-report", "--out",
                                      str(tmp_path / "v.csv")])
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        assert exit_info.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert (tmp_path / "v.csv").exists()
