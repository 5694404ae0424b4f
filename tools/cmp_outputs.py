"""Run a fixed matrix of command-line invocations on two commits and print
the runs whose outputs differ.

    python3 tools/cmp_outputs.py <parent> <change>

Each commit is exported with `export` from tools/bench_pairs.py into its own
temporary directory.  Every invocation of the matrix runs there as a fresh
`python -m macrocoh.cli` process, with the tree's src/ on PYTHONPATH, in an
empty folder of its own.  A run's record is its exit code, stdout, stderr,
every folder it made and the text of every file it wrote (CSVs and
manifests), with each manifest's `created_utc`, the run folder and the tree
blanked.

The matrix is 3 presets x 8 radius ranges x log/linear grids x 2/7/301
points x 3 model sets of `testability`, then 3 presets x 8 radius ranges of
2000 log points x all six models, whose failing stretches are halved more
than twice, plus the report variants in REPORTS.  Some of those pass the
tree's own data files by path (`<tree>` in an argument stands for the tree),
so that PyYAML's reading of the packaged files is compared as well.  Others
pass an orbit file of ORBIT_EDITS: the tree's packaged orbit with one field
changed or deleted, written beside the tree's src/ before its runs.
Runs whose records differ are printed grouped by the parent's exit code and
last stderr line; the exit code is 0 when every run matches and 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from operator import getitem
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export  # noqa: E402

PRESETS = ("fig2_baseline", "fig3_left", "fig3_right")
TREE = "<tree>"
DATA = f"{TREE}/src/macrocoh/data"
MISSING = object()  # an edit's value that deletes the field
# name -> (key path, new value) of an edited orbit file
ORBIT_EDITS = {
    "no_force_psd": (("thrusters", "force_psd_N_sqrtHz"), MISSING),
    "no_spacecraft_mass": (("thrusters", "spacecraft_mass_kg"), MISSING),
    "empty_thrusters": (("thrusters",), {}),
    # the first claim lasts 10.0 s: both rows would be named '10s'
    "colliding_claims": (("thrusters", "position_hold_claims", 1,
                          "duration_s"), 10.0000001),
}
RANGES = (("1e-8", "5e-7"), ("1e-9", "1e-5"), ("1e-7", "1e60"),
          ("1e-110", "1e110"), ("1e-40", "1e-38"), ("1e-20", "1e20"),
          ("1e-120", "1e-7"), ("1e-7", "1e104"))
GRIDS = ("log", "linear")
POINTS = ("2", "7", "301")
MODEL_SETS = ("csl,csl_adler,qg,k", "dp,k_sat", "csl,csl_adler,qg,k,dp,k_sat")
REPORTS = (
    *(("decoherence-report", "--preset", preset, "--out", "deco.csv")
      for preset in PRESETS),
    ("testability", "--out", "sweep.csv"),
    ("testability", "--out", "sweep.csv",
     "--intervals-out", "new/folder/intervals.csv"),
    # outputs that name one file, or the manifest
    ("testability", "--out", "sweep.csv", "--intervals-out", "./sweep.csv"),
    ("testability", "--out", "sweep.csv",
     "--intervals-out", "sweep.csv.manifest.json"),
    ("testability", "--radius-max", "inf", "--highlight-radius", "inf",
     "--out", "sweep.csv"),
    ("testability", "--highlight-radius", "nan", "--out", "sweep.csv"),
    ("vacuum-report", "--out", "vacuum.csv"),
    ("vacuum-report", "--patch-diameter", "1e-3", "--distance", "0.1",
     "--cold-temperature", "30", "--time", "3600", "--out", "vacuum.csv"),
    ("mission-report", "--out", "mission.csv"),
    ("decoherence-report", "--preset", "nope", "--out", "deco.csv"),
    ("testability", "--models", "csl,nope", "--out", "sweep.csv"),
    ("vacuum-report", "--material", "wood", "--out", "vacuum.csv"),
    ("vacuum-report", "--material", "kapton", "--material", "cfrp",
     "--out", "vacuum.csv"),
    ("vacuum-report", "--material", "kapton", "--material", "kapton",
     "--out", "vacuum.csv"),
    *(("vacuum-report", *flags, "--out", "vacuum.csv") for flags in (
        ("--patch-diameter=-1e-3", "--distance", "0.1"),
        ("--patch-diameter", "0", "--distance", "0.1"),
        ("--patch-diameter", "1e-3", "--distance", "0"),
        ("--cold-temperature", "0"), ("--cold-temperature", "400"),
        ("--sphere-radius", "-1"), ("--time", "-1"))),
    ("testability", "--models", ",", "--out", "sweep.csv"),
    *(("testability", *flags, "--out", "sweep.csv") for flags in (
        ("--radius-min", "1e-6"), ("--points", "1"), ("--models", "csl,csl"),
        ("--radius-min", "nan"))),
    # every density decays to 0; the dilution factor is the geometry's
    ("vacuum-report", "--time", "1e12", "--patch-diameter", "0.01",
     "--distance", "1", "--out", "vacuum.csv"),
    # each packaged file given as a user file, parsed by PyYAML
    *((command, "--scenario", f"{DATA}/scenarios/{name}.yaml", "--out", out)
      for name in ("baseline_fig2", "fig3_left", "fig3_right")
      for command, out in (("decoherence-report", "deco.csv"),
                           ("testability", "sweep.csv"))),
    ("vacuum-report", "--materials", f"{DATA}/materials.yaml",
     "--patch-diameter", "1e-3", "--distance", "0.1",
     "--cold-temperature", "30", "--out", "vacuum.csv"),
    ("mission-report", "--orbit", f"{DATA}/orbit_heo.yaml",
     "--budgets", f"{DATA}/budgets.yaml", "--out", "mission.csv"),
    *(("mission-report", "--orbit", f"{TREE}/edited/{name}.yaml", "--out",
       "mission.csv") for name in ORBIT_EDITS),
    # a log grid so narrow that 10 ** y of an inner point passes radius_max
    ("testability", "--radius-min", "1.0554981866069301e-07",
     "--radius-max", "1.0554981866071171e-07", "--points", "227",
     "--out", "sweep.csv"),
    # a bad input and a bad output path in one run; a run that fails leaves
    # no folder
    ("vacuum-report", "--time", "-1", "--out", "."),
    ("testability", "--models", "nope", "--out", "x.csv",
     "--intervals-out", "x.csv"),
    ("decoherence-report", "--preset", "nope", "--out", "new/deco.csv"),
    # an output path through a folder it makes and back out of it
    ("decoherence-report", "--out", "sub/../d2.csv"),
    ("decoherence-report", "--out", "sub/../sub/x.csv"),
)
CREATED = re.compile(r'("created_utc": )"[^"]*"')


def matrix():
    """Every invocation, as argument tuples, in a fixed order."""
    sweeps = [("testability", "--preset", preset, "--radius-min", lo,
               "--radius-max", hi, "--grid", grid, "--points", points,
               "--models", models, "--out", "sweep.csv")
              for preset in PRESETS for lo, hi in RANGES for grid in GRIDS
              for points in POINTS for models in MODEL_SETS]
    deep = [("testability", "--preset", preset, "--radius-min", lo,
             "--radius-max", hi, "--grid", "log", "--points", "2000",
             "--models", MODEL_SETS[-1], "--out", "sweep.csv")
            for preset in PRESETS for lo, hi in RANGES]
    return sweeps + deep + list(REPORTS)


def write_edited(tree):
    """Write each orbit of ORBIT_EDITS as <tree>/edited/<name>.yaml, dumped by
    PyYAML, which writes floats as YAML 1.1 reads them back (json would write
    5e-15, which YAML 1.1 reads as text)."""
    folder = Path(tree, "edited")
    folder.mkdir()
    for name, (keys, value) in ORBIT_EDITS.items():
        doc = json.loads(Path(tree, "src", "macrocoh", "data",
                              "orbit_heo.yaml").read_text(encoding="utf-8"))
        *parents, last = keys
        node = reduce(getitem, parents, doc)
        if value is MISSING:
            del node[last]
        else:
            node[last] = value
        Path(folder, f"{name}.yaml").write_text(
            yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def normalize(record, folder, tree):
    """`record` with every manifest's created_utc, the run folder and the
    tree blanked."""
    def blank(text):
        text = text.replace(folder, "<out>").replace(tree, TREE)
        return CREATED.sub(r'\1""', text)

    return {"exit": record["exit"], "stdout": blank(record["stdout"]),
            "stderr": blank(record["stderr"]), "folders": record["folders"],
            "files": {name: blank(text)
                      for name, text in record["files"].items()}}


def run(tree, args, folder):
    """The normalized record of one invocation of the CLI in `tree`."""
    folder.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")))
    args = [arg.replace(TREE, str(tree)) for arg in args]
    proc = subprocess.run([sys.executable, "-m", "macrocoh.cli", *args],
                          cwd=folder, env=env, capture_output=True, text=True)
    made = sorted(folder.rglob("*"))
    files = {str(path.relative_to(folder)): path.read_text(encoding="utf-8")
             for path in made if path.is_file()}
    folders = [str(path.relative_to(folder)) for path in made if path.is_dir()]
    return normalize({"exit": proc.returncode, "stdout": proc.stdout,
                      "stderr": proc.stderr, "folders": folders,
                      "files": files}, str(folder), str(tree))


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def differing(commands, parent, change):
    """{(parent exit code, parent's last stderr line): [(command, change
    record), ...]} of the runs whose records differ."""
    groups = {}
    for args, old, new in zip(commands, parent, change, strict=True):
        if old != new:
            key = (old["exit"], last_line(old["stderr"]))
            groups.setdefault(key, []).append((" ".join(args), new))
    return groups


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commands = matrix()
    records = {}
    with tempfile.TemporaryDirectory(prefix="cmp_outputs_") as tmp, \
            ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        for side, commit in zip(("parent", "change"), args):
            tree = Path(tmp, side, "tree")
            export(commit, tree)
            write_edited(tree)
            folders = [Path(tmp, side, "runs", str(i))
                       for i in range(len(commands))]
            records[side] = list(pool.map(run, [tree] * len(commands),
                                          commands, folders))
    groups = differing(commands, records["parent"], records["change"])
    for (code, line), runs in sorted(groups.items()):
        print(f"parent exit {code}, {line or '<no stderr>'}: {len(runs)} runs")
        for command, new in runs:
            print(f"  {command}\n    change exit {new['exit']}, "
                  f"{last_line(new['stderr']) or '<no stderr>'}")
    total = sum(map(len, groups.values()))
    print(f"{total} of {len(commands)} runs differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
