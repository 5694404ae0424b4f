"""What each entry point loads, the lazy package namespace, packaged data
read by `json`, and user YAML parsed by either PyYAML loader."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import macrocoh
from macrocoh import config
from macrocoh.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "macrocoh" / "data"
SHIPPED_YAML = sorted(DATA.glob("*.yaml")) + sorted(DATA.glob("scenarios/*.yaml"))

# every name the package exported eagerly before it resolved them on use,
# less the emission-spectrum oracle, which moved to tests/spectrum_oracle.py,
# particle_mass, which the cached property Particle.mass replaced, and
# ModelId, as a ModelSpec now carries its law
FORMER_EXPORTS = """
BudgetCheck BudgetLedger CONSTANTS CSL_ADLER CSL_DEFAULT ChannelRates
ComplexPermittivity CslParams DecoherenceSpec EmissionSummary
Environment ExpansionKinematics GasState GravitySample InfiniteCoherenceError
MODEL_PRESETS MaterialOutgassing ModelSpec OrbitElements
OutgassingSpecies Particle PhysicalConstants QuadratureError Scenario
SweepConfig SweepRow SweepTable Trap VisibilityFactors altitude_window
arrhenius_residence bake_out_power bb_absorb_lambda bb_emit_lambda
bb_scatter_lambda budget_check ced cet_closed_form clausius_mossotti
collision_rate cooling_noise_threshold csl_lambda csl_shape dilution_from_patch
dilution_from_sphere dp_lambda dp_rate emission_rate
expansion_velocity gamma gas_collision_rate ground_state_width
integrated_accuracy k_coherence_cell k_lambda load_budgets load_materials
load_orbit load_preset load_scenario local_gravity orbital_period
outgassing_rate pressure_attenuation qg_lambda qm_channel_rates
scenario_kinematics scenario_presets sigma solve_cet steady_state sweep
thruster_position_noise violation_intervals visibility_factor
""".split()

SWEEP_MODULES = {"testability", "collapse"}
DOMAIN_MODULES = SWEEP_MODULES | {"mission", "vacuum", "decoherence",
                                  "expansion"}


def loaded_after(script, tmp_path, *flags):
    """(macrocoh submodules, other top-level packages) loaded once `script`
    has run in a fresh interpreter started with `flags`."""
    probe = script + """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""
    proc = subprocess.run([sys.executable, *flags, "-c", probe],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    own = {n.split(".", 1)[1] for n in names if n.startswith("macrocoh.")}
    return own, {n.split(".")[0] for n in names}


def run_command(command):
    return f"import macrocoh.cli\nmacrocoh.cli.main({command!r})\n"


def test_package_import_loads_no_submodule(tmp_path):
    own, _ = loaded_after("import macrocoh", tmp_path)
    assert own == set()


def test_cli_import_loads_no_domain_module(tmp_path):
    own, packages = loaded_after("import macrocoh.cli", tmp_path)
    assert own.isdisjoint(DOMAIN_MODULES | {"scenario"}), own
    assert packages.isdisjoint({"numpy", "scipy", "yaml"})


@pytest.mark.parametrize("command, domain", [
    ("vacuum-report", "vacuum"), ("mission-report", "mission")])
def test_reports_load_only_their_domain_module(tmp_path, command, domain):
    own, packages = loaded_after(
        run_command([command, "--out", "report.csv"]), tmp_path)
    assert own == {"cli", "config", "constants", domain}
    assert packages.isdisjoint({"numpy", "scipy", "yaml"})


def test_decoherence_report_loads_no_sweep_module(tmp_path):
    own, packages = loaded_after(
        run_command(["decoherence-report", "--out", "report.csv"]), tmp_path)
    assert own.isdisjoint(SWEEP_MODULES | {"mission", "vacuum"}), own
    assert packages.isdisjoint({"numpy", "scipy", "yaml"})


def test_help_loads_no_domain_module(tmp_path):
    own, packages = loaded_after(
        "import contextlib, io, macrocoh.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        macrocoh.cli.main(['testability', '--help'])\n"
        "    except SystemExit:\n"
        "        pass\n", tmp_path)
    assert own == {"cli", "config"}
    assert "yaml" not in packages


def test_every_former_export_resolves_lazily():
    assert sorted(macrocoh.__all__) == sorted(FORMER_EXPORTS)
    listing = dir(macrocoh)
    for name in FORMER_EXPORTS:
        assert getattr(macrocoh, name) is not None
        assert name in listing
    assert macrocoh.load_preset is macrocoh.scenario.load_preset
    assert macrocoh.sweep is macrocoh.testability.sweep
    with pytest.raises(AttributeError):
        macrocoh.no_such_name
    namespace = {}
    exec("from macrocoh import *", namespace)
    assert set(FORMER_EXPORTS) <= set(namespace)


def test_presets_reachable_from_testability():
    from macrocoh import scenario, testability

    for name in ("PRESET_FILES", "load_preset", "scenario_presets"):
        assert getattr(testability, name) is getattr(scenario, name)


LOADERS = [yaml.SafeLoader, pytest.param(
    getattr(yaml, "CSafeLoader", None), marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML built without libyaml"))]


def test_config_parses_every_document_with_the_chosen_loader(monkeypatch):
    # the packaged documents are JSON text and reach no YAML loader; a user's
    # file goes through the loader that config chooses on its first use
    loaders = []
    parse = yaml.load

    def recording(stream, Loader):
        loaders.append(Loader)
        return parse(stream, Loader)

    monkeypatch.setattr(yaml, "load", recording)
    monkeypatch.setattr(config, "_LOADER", None)
    from macrocoh import (load_budgets, load_materials, load_orbit,
                          load_scenario, scenario_presets)

    scenario_presets()
    load_budgets()
    load_materials()
    load_orbit()
    assert loaders == []
    load_scenario(DATA / "scenarios" / "fig3_right.yaml")
    load_budgets(DATA / "budgets.yaml")
    chosen = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert loaders == [chosen, chosen]
    assert config._LOADER is chosen


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", SHIPPED_YAML, ids=lambda p: p.name)
def test_shipped_yaml_equal_under_both_loaders(path):
    # the package reads these files with json; a user passing one of them
    # as a file gets the same mapping from PyYAML
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == doc
    assert yaml.load(text, Loader=yaml.SafeLoader) == doc


def test_six_yaml_files_shipped():
    assert len(SHIPPED_YAML) == 6


@pytest.mark.parametrize("loader", LOADERS)
def test_malformed_yaml_exit_2_names_the_line(tmp_path, capsys, monkeypatch,
                                              loader):
    monkeypatch.setattr(config, "_LOADER", loader)
    scenario = tmp_path / "bad.yaml"
    scenario.write_text("label: bad\nparticle: [1, 2\nenvironment: {}\n")
    assert main(["decoherence-report", "--scenario", str(scenario),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{scenario}: malformed YAML at line 3" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text, message", [
    ('{\n  "unit": "kg",\n}\n', "malformed JSON at line 3: Expecting "
     "property name enclosed in double quotes"),
    ("unit: kg\n", "malformed JSON at line 1: Expecting value"),
    ("[1.0]\n", "top level must be a mapping"),
])
def test_malformed_packaged_document_names_it(tmp_path, monkeypatch, text,
                                              message):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "budgets.yaml").write_text(text, encoding="utf-8")
    monkeypatch.setattr(config, "_DATA", str(tmp_path / "data"))
    with pytest.raises(config.ConfigError) as caught:
        config.load_document(None, "budgets.yaml")
    assert str(caught.value) == f"<packaged budgets.yaml>: {message}"


@pytest.mark.parametrize("loader", LOADERS)
def test_bad_field_exit_2_names_the_field(tmp_path, capsys, monkeypatch,
                                          loader):
    monkeypatch.setattr(config, "_LOADER", loader)
    budgets = tmp_path / "budgets.yaml"
    budgets.write_text("mass_budgets:\n  dry:\n    unit: kg\n"
                       "    items: {payload: 1.0}\n    declared_total: oops\n"
                       "power_budgets: {}\n")
    assert main(["mission-report", "--budgets", str(budgets),
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert (f"{budgets}.mass_budgets.dry.declared_total: expected a number, "
            "got 'oops'") in capsys.readouterr().err


@pytest.mark.parametrize("script", [
    "import macrocoh.cli\n",
    run_command(["vacuum-report", "--out", "report.csv"])],
    ids=["import", "vacuum-report"])
def test_cli_loads_neither_datetime_nor_tempfile(tmp_path, script):
    # -S: no site module, so no .pth file loads either module beforehand
    own, packages = loaded_after(script, tmp_path, "-S")
    assert "cli" in own
    assert packages.isdisjoint({"datetime", "_datetime", "tempfile"})


@pytest.mark.parametrize("command", [
    "decoherence-report", "mission-report", "vacuum-report"])
def test_reports_load_neither_dataclasses_nor_inspect(tmp_path, command):
    # records are built by config.record, which compiles nothing
    _, packages = loaded_after(run_command([command, "--out", "report.csv"]),
                               tmp_path)
    assert "dataclasses" not in packages and "inspect" not in packages


def test_default_testability_and_evaluate_radius_load_no_numpy(tmp_path):
    # 50 radii x 4 models and a single radius are solved radius by radius
    _, packages = loaded_after(run_command(["testability", "--out", "s.csv"]),
                               tmp_path)
    assert packages.isdisjoint({"numpy", "scipy", "yaml"})
    own, packages = loaded_after(
        "from macrocoh.testability import (MODEL_PRESETS, evaluate_radius,\n"
        "                                  scenario_presets)\n"
        "evaluate_radius(1e-7, scenario_presets()['fig2_baseline'],\n"
        "                tuple(MODEL_PRESETS.values()))\n", tmp_path)
    assert "testability" in own
    assert "numpy" not in packages and "scipy" not in packages
