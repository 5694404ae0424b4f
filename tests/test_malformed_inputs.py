"""Malformed input YAML: a value of the wrong type or shape exits with code 2
and one `error:` line naming the field by its dotted path; a value out of a
record's range names the mapping that holds it."""

import contextlib
import io
import math
from importlib import resources

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from macrocoh.cli import main

# subcommand, flag and packaged file of each input document
INPUTS = {
    "scenario": ("decoherence-report", "--scenario",
                 ("scenarios", "baseline_fig2.yaml")),
    "materials": ("vacuum-report", "--materials", ("materials.yaml",)),
    "orbit": ("mission-report", "--orbit", ("orbit_heo.yaml",)),
    "budgets": ("mission-report", "--budgets", ("budgets.yaml",)),
}
# keys that no command reads
UNREAD = {"orbit": {("label",)}}
MISSING = object()  # run_with's value that deletes the key


def packaged(kind):
    text = resources.files("macrocoh").joinpath(
        "data", *INPUTS[kind][2]).read_text(encoding="utf-8")
    return yaml.safe_load(text)


def key_paths(node, prefix=()):
    """The key path of every value in a parsed document; list positions are
    keys too."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def value_kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "text", type(None): "null", list: "list",
            dict: "mapping"}[type(value)]


VALUES = {
    "number": st.integers(-3, 3) | st.floats(allow_nan=False),
    "text": st.text("ab1.-", max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "mapping": st.dictionaries(st.text("xy", min_size=1, max_size=2),
                               st.integers(0, 3), max_size=2),
}


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run_with(kind, path, value, folder):
    """(exit code, stderr, dotted path of the field) of the command reading
    the packaged document of `kind` with the value at `path` replaced, or
    deleted when it is MISSING."""
    doc = packaged(kind)
    if value is MISSING:
        del lookup(doc, path[:-1])[path[-1]]
    else:
        lookup(doc, path[:-1])[path[-1]] = value
    source = folder / f"{kind}.yaml"
    source.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    command, flag, _ = INPUTS[kind]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, flag, str(source),
                     "--out", str(folder / "out.csv")])
    return code, err.getvalue(), f"{source}.{'.'.join(map(str, path))}"


def assert_names_the_field(code, err, dotted):
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert dotted in err, err


@pytest.mark.parametrize("kind, path, value", [
    ("orbit", ("targets",), [1, 2]),
    ("orbit", ("thrusters",), [1]),
    ("budgets", ("mass_budgets", "mission_dry"), [1]),
    ("orbit", ("targets", "perigee_band_altitude_km"), 5),
    ("orbit", ("targets", "period_days"), [1]),
    ("orbit", ("thrusters", "position_hold_claims"), {"x": 1}),
    ("orbit", ("thrusters", "position_hold_claims", 1, "duration_s"), "10"),
    ("materials", ("summary_table", "kapton"), 3),
    ("scenario", ("environment", "temperature_K"), math.nan),
    ("scenario", ("trap", "power_W"), math.inf),
    ("materials", ("temperature_K",), math.nan),
    ("materials", ("species_table", "cfrp", "tml_percent"), -math.inf),
    ("orbit", ("perigee_altitude_km",), math.inf),
    ("orbit", ("targets", "period_days"), math.nan),
    ("scenario", ("particle", "density_kg_m3"), 10 ** 400),
    ("materials", ("temperature_K",), 0.0),
    ("materials", ("temperature_K",), -5.0),
])
def test_malformed_field_exit_2(tmp_path, kind, path, value):
    assert_names_the_field(*run_with(kind, path, value, tmp_path))


@pytest.mark.parametrize("kind, path, value, message", [
    ("scenario", ("trap", "power_W"), -0.1, "trap power must be positive"),
    ("materials", ("species_table", "cfrp", "tml_percent"), -1.0,
     "TML must be between 0 and 100 percent"),
    ("orbit", ("perigee_altitude_km",), 7e5, "need apogee >= perigee >= 0"),
    ("materials", ("summary_table", "cfrp", "residence_time_h"), 0.0,
     "residence time must be positive"),
    ("materials", ("summary_table", "cfrp", "gamma0_per_m2_s"), 0.0,
     "emission rate must be positive"),
    ("materials", ("summary_table", "cfrp", "species_mass_amu"), 0.0,
     "species mass must be positive"),
    ("materials", ("summary_table", "cfrp", "d_out_kg_s"), -1.0,
     "mass-loss rate must be non-negative"),
    ("materials", ("summary_table", "cfrp", "pressure_mbar"), -1.0,
     "pressure must be non-negative"),
    # a claim whose duration names the row of an earlier claim ('10s')
    ("orbit", ("thrusters", "position_hold_claims", 1, "duration_s"), 10.0,
     "duration_s gives the row thruster_position_spread_10s of claim 0"),
    ("orbit", ("thrusters", "spacecraft_mass_kg"), 0.0,
     "spacecraft mass must be positive"),
    ("orbit", ("thrusters", "force_psd_N_sqrtHz"), -1.0,
     "acceleration PSD must be non-negative"),
    ("orbit", ("thrusters", "position_hold_claims", 1, "duration_s"), 0.0,
     "duration must be positive"),
    ("orbit", ("targets", "accel_psd_m_s2_sqrtHz"), -1.0e-9,
     "psd, integration time, and reference must be positive"),
    ("orbit", ("targets", "perigee_band_altitude_km"), [100.0, 200.0],
     "altitude band lies outside the orbit"),
    # a zero PSD, or a band of one altitude (a window of 0 s), is checked
    # like any other value, not taken as absent
    ("orbit", ("targets", "accel_psd_m_s2_sqrtHz"), 0.0,
     "psd, integration time, and reference must be positive"),
    ("orbit", ("targets", "perigee_band_altitude_km"), [3800.0, 3800.0],
     "psd, integration time, and reference must be positive"),
    ("orbit", ("thrusters", "position_hold_claims", 1, "duration_s"),
     10.0000001,
     "duration_s gives the row thruster_position_spread_10s of claim 0"),
])
def test_out_of_range_value_names_its_section(tmp_path, kind, path, value,
                                              message):
    # a record's own range check names the mapping the record was read from,
    # and a claim that repeats a row name names the claim
    code, err, dotted = run_with(kind, path, value, tmp_path)
    assert code == 2
    assert err == f"error: {dotted.rsplit('.', 1)[0]}: {message}\n"


@pytest.mark.parametrize("key", ["spacecraft_mass_kg", "force_psd_N_sqrtHz"])
def test_missing_thruster_key_names_it(tmp_path, key):
    code, err, dotted = run_with("orbit", ("thrusters", key), MISSING, tmp_path)
    assert code == 2
    assert err == f"error: {dotted}: missing required field\n"


def test_empty_thruster_section_names_a_missing_key(tmp_path):
    # a section given empty is read like a full one, not taken as absent
    code, err, dotted = run_with("orbit", ("thrusters",), {}, tmp_path)
    assert code == 2
    assert err == f"error: {dotted}.force_psd_N_sqrtHz: missing required field\n"


@pytest.mark.parametrize("text, hint", [
    ("1e-08", True), ("1e8", True), ("1.0e8", True), ("10", False),
    ("nan", False), ("1e-08x", False)])
def test_yaml_1_1_number_spelling_gets_a_hint(tmp_path, text, hint):
    # PyYAML reads these as text ('10' because it is quoted); float() takes
    # all but the last
    code, err, dotted = run_with(
        "orbit", ("targets", "accel_psd_m_s2_sqrtHz"), text, tmp_path)
    assert code == 2
    assert err == (f"error: {dotted}: expected a number, got {text!r}"
                   + ("; YAML 1.1 reads it as text: write a '.' and a signed "
                      "exponent, as in 1.0e-08" if hint else "") + "\n")


def test_zero_thruster_force_psd_keeps_its_rows(tmp_path):
    code, err, _ = run_with("orbit", ("thrusters", "force_psd_N_sqrtHz"), 0.0,
                            tmp_path)
    assert code == 0, err
    rows = [line.split(",") for line in
            (tmp_path / "out.csv").read_text().splitlines()[1:]]
    computed = {row[0]: row[1] for row in rows}
    assert computed["thruster_accel_psd"] == "0.0"
    assert computed["thruster_position_spread_10s"] == "0.0"
    assert computed["thruster_position_spread_200s"] == "0.0"


@pytest.mark.parametrize("command", ["decoherence-report", "testability"])
def test_permittivity_minus_two_names_it(tmp_path, capsys, command):
    # eps = -2 has no Clausius-Mossotti factor, so the scenario is rejected
    # as it loads, before any row is computed
    doc = packaged("scenario")
    doc["particle"]["permittivity_bb"] = {"real": -2.0, "imag": 0.0}
    source = tmp_path / "scenario.yaml"
    source.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", str(source), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {source}.particle.permittivity_bb: "
        "eps = -2 has no Clausius-Mossotti factor\n")
    assert not out.exists()


def test_scenario_without_a_radius_exit_2(tmp_path, capsys):
    doc = packaged("scenario")
    del doc["particle"]["radius_nm"]
    source = tmp_path / "scenario.yaml"
    source.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["decoherence-report", "--scenario", str(source),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {source}.particle: missing one of ['radius_m', 'radius_nm']\n")
    assert not out.exists()


def test_orbit_without_its_optional_sections(tmp_path):
    doc = packaged("orbit")
    del doc["targets"], doc["thrusters"]
    source = tmp_path / "orbit.yaml"
    source.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["mission-report", "--orbit", str(source),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows[:3]] == [
        "orbital_period_days", "perigee_gravity", "perigee_gravity_g_fraction"]
    assert [row[2] for row in rows[:3]] == ["", "", ""]
    assert all(row[0].startswith("budget_") for row in rows[3:])


@st.composite
def replacements(draw, kind):
    doc = packaged(kind)
    paths = [p for p in key_paths(doc) if p not in UNREAD.get(kind, ())]
    path = draw(st.sampled_from(paths))
    other = sorted(set(VALUES) - {value_kind(lookup(doc, path))})
    return path, draw(st.sampled_from(other).flatmap(VALUES.get))


@pytest.mark.parametrize("kind", sorted(INPUTS))
@given(data=st.data())
def test_fuzzed_field_exit_2(tmp_path_factory, kind, data):
    path, value = data.draw(replacements(kind))
    folder = tmp_path_factory.mktemp(kind)
    assert_names_the_field(*run_with(kind, path, value, folder))
