"""The matrix and the comparison step of tools/cmp_outputs.py on fixed
records."""

import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import yaml

from macrocoh.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cmp_outputs.py"
spec = importlib.util.spec_from_file_location("cmp_outputs", TOOL)
cmp_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cmp_outputs)

MANIFEST = '{\n  "created_utc": "%s",\n  "outputs": [\n    "%s/sweep.csv"\n  ]\n}\n'


def record(exit=0, stdout="wrote sweep.csv\n", stderr="", files=None,
           folders=()):
    return {"exit": exit, "stdout": stdout, "stderr": stderr,
            "folders": list(folders),
            "files": {"sweep.csv": "radius_m\n1e-08\n"} if files is None
            else files}


def test_matrix_covers_every_sweep_and_report_once():
    commands = cmp_outputs.matrix()
    assert len(commands) == (3 * 8 * 2 * 3 * 3 + 3 * 8
                             + len(cmp_outputs.REPORTS)) == 504
    assert len(set(commands)) == len(commands)
    assert commands[0] == (
        "testability", "--preset", "fig2_baseline", "--radius-min", "1e-8",
        "--radius-max", "5e-7", "--grid", "log", "--points", "2",
        "--models", "csl,csl_adler,qg,k", "--out", "sweep.csv")


def test_each_edited_orbit_changes_one_field_of_the_packaged_one(tmp_path):
    data = Path("src", "macrocoh", "data", "orbit_heo.yaml")
    packaged = Path(__file__).resolve().parents[1] / data
    (tmp_path / data).parent.mkdir(parents=True)
    shutil.copy(packaged, tmp_path / data)
    cmp_outputs.write_edited(tmp_path)
    edited = {path.stem: yaml.safe_load(path.read_text())
              for path in (tmp_path / "edited").iterdir()}
    expected = {name: json.loads(packaged.read_text())
                for name in ("no_force_psd", "no_spacecraft_mass",
                             "empty_thrusters", "colliding_claims")}
    del expected["no_force_psd"]["thrusters"]["force_psd_N_sqrtHz"]
    del expected["no_spacecraft_mass"]["thrusters"]["spacecraft_mass_kg"]
    expected["empty_thrusters"]["thrusters"] = {}
    claims = expected["colliding_claims"]["thrusters"]["position_hold_claims"]
    claims[1]["duration_s"] = 10.0000001
    assert edited == expected
    assert [args[2] for args in cmp_outputs.matrix()
            if args[2].startswith("<tree>/edited/")] == [
        f"<tree>/edited/{name}.yaml" for name in expected]
    # each file reaches the error it was made for
    for name, field in (("no_force_psd", "force_psd_N_sqrtHz: missing"),
                        ("no_spacecraft_mass", "spacecraft_mass_kg: missing"),
                        ("empty_thrusters", "force_psd_N_sqrtHz: missing"),
                        ("colliding_claims", "position_hold_claims.1: ")):
        orbit = tmp_path / "edited" / f"{name}.yaml"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["mission-report", "--orbit", str(orbit),
                         "--out", str(tmp_path / "mission.csv")])
        assert code == 2
        assert err.getvalue().startswith(f"error: {orbit}.thrusters.{field}")


def test_normalize_blanks_the_time_and_the_run_folder():
    # and the tree, which stands in the paths of the packaged files
    one = record(stderr="error: /runs/a/1/x: cannot write\n", files={
        "sweep.csv.manifest.json": MANIFEST % ("2026-01-01T00:00:00", "/runs/a/1")},
        stdout="read /a/tree/src/s.yaml\n")
    two = record(stderr="error: /runs/b/1/x: cannot write\n", files={
        "sweep.csv.manifest.json": MANIFEST % ("2027-05-05T11:11:11", "/runs/b/1")},
        stdout="read /b/tree/src/s.yaml\n")
    one, two = (cmp_outputs.normalize(one, "/runs/a/1", "/a/tree"),
                cmp_outputs.normalize(two, "/runs/b/1", "/b/tree"))
    assert one == two
    assert one["stderr"] == "error: <out>/x: cannot write\n"
    assert one["stdout"] == "read <tree>/src/s.yaml\n"
    assert '"created_utc": ""' in one["files"]["sweep.csv.manifest.json"]


def test_differing_runs_grouped_by_the_parents_exit_and_last_stderr_line():
    commands = [("testability", str(i)) for i in range(5)]
    aborted = record(exit=2, stderr="warning\nerror: invalid input: mass\n",
                     files={}, stdout="")
    parent = [record(), aborted, aborted, record(), record(stderr="w\n")]
    change = [record(), record(), record(exit=1), record(files={}),
              record(stderr="w\n", folders=["new"])]
    groups = cmp_outputs.differing(commands, parent, change)
    assert groups == {
        (2, "error: invalid input: mass"): [("testability 1", change[1]),
                                            ("testability 2", change[2])],
        (0, ""): [("testability 3", change[3])],
        (0, "w"): [("testability 4", change[4])],
    }
    assert cmp_outputs.differing(commands, parent, parent) == {}


def test_a_run_records_the_folders_it_made_as_well_as_its_files(tmp_path):
    tree = Path(__file__).resolve().parents[1]
    made = cmp_outputs.run(tree, ("vacuum-report", "--out", "new/deeper/v.csv"),
                           tmp_path / "made")
    assert made["exit"] == 0
    assert made["folders"] == ["new", "new/deeper"]
    assert sorted(made["files"]) == ["new/deeper/v.csv",
                                     "new/deeper/v.csv.manifest.json"]
    failed = cmp_outputs.run(tree, ("decoherence-report", "--preset", "nope",
                                    "--out", "new/deco.csv"), tmp_path / "failed")
    assert (failed["exit"], failed["folders"], failed["files"]) == (2, [], {})
