"""Run the committed benchmark on two commits in alternating pairs and
record the result as BENCH_<pr>.json.

Each commit is exported with `git archive` into its own temporary directory,
and `python3 bench/run.py` runs there, so each side measures exactly its
committed files.  Within a pair both sides run the same workload and seed,
one after the other: the parent first in even pairs, the change first in odd
pairs, so that a drift of the machine hits both sides alike.  The last line
of each run's standard output is its JSON result.  The summary gives, per
workload and seed, each end-to-end metric's median and quartiles on both
sides and the number of pairs the change won.  A metric is marked
unresolved when it has fewer than MIN_PAIRS pairs, or when the parent's
spread, (q3 - q1) / median, exceeds the metric's bound in BENCHMARK.json:
such a median cannot tell a change of the bound's size from noise.  The
record also keeps the line count of `src/` on both sides, counted in the
exported trees.

    python3 tools/bench_pairs.py --pr 7 --parent HEAD~1 --change HEAD \\
        --runs 1:10 --runs 2:10

Every run lasts 20 s and covers all three workloads; the record is written
to BENCH_<pr>.json at the root of the repository.

This script runs the benchmark only as a program; it neither imports nor
changes anything under bench/.
"""

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli_reports", "sweep_quadratic", "sweep_saturated")
SIDES = ("parent", "change")
SECONDS = 20
MIN_PAIRS = 10
ORDER = "pairs of runs, parent first in even pairs and change first in odd pairs"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(commit, where):
    """The committed files of `commit`, unpacked into `where`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(where, filter="data")


def src_lines(tree):
    """Lines of the Python files under src/ of an exported tree, as wc -l
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in Path(tree, "src").rglob("*.py"))


def bench_command(workload, seed):
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]


def run_once(checkout, workload, seed):
    """(exit code, final JSON line or None) of one benchmark run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(bench_command(workload, seed), cwd=checkout,
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = None
    return proc.returncode, final


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _value(run, metric):
    return ((run["final_line"] or {}).get("metrics", {}).get(metric, {})
            .get("value"))


def summarize(runs, better, bounds=None):
    """Summary per "<workload>/seed<seed>" of run records.

    `better` maps each end-to-end metric to "lower" or "higher", `bounds`
    some of them to their relative bound.  Only pairs with both sides count.
    A pair is won by the change when its value is strictly better than the
    parent's in the same pair.  A metric is "resolved" when it has at least
    MIN_PAIRS pairs and the parent's (q3 - q1) / median is within its bound.
    """
    groups = {}
    for run in runs:
        key = f"{run['workload']}/seed{run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for key, pairs in groups.items():
        complete = [p for p in pairs.values() if set(SIDES) <= set(p)]
        finals = {side: [p[side]["final_line"] or {} for p in complete]
                  for side in SIDES}
        entry = {
            "pairs": len(complete),
            "failed": {side: sum(f.get("failed", 0) for f in finals[side])
                       for side in SIDES},
            "correct": {side: all(p[side]["exit"] == 0 and f.get("correct") is True
                                  for p, f in zip(complete, finals[side]))
                        for side in SIDES},
        }
        for metric, direction in better.items():
            measured = [(_value(p["parent"], metric), _value(p["change"], metric))
                        for p in complete]
            measured = [pair for pair in measured if None not in pair]
            if len(measured) < 2:
                continue
            parent, change = (quartiles(list(v)) for v in zip(*measured))
            sign = 1.0 if direction == "lower" else -1.0
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            bound = (bounds or {}).get(metric, math.inf)
            entry[metric] = {
                "better": direction, "parent": parent, "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "change_wins": sum(sign * (c - p) < 0.0 for p, c in measured),
                "resolved": len(measured) >= MIN_PAIRS and spread <= bound}
        summary[key] = entry
    return summary


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "memory_gb": round(pages / 2**30), "os": platform.platform()}


def versions():
    found = {"python": platform.python_version()}
    for name, dist in (("numpy", "numpy"), ("scipy", "scipy"),
                       ("pyyaml", "PyYAML")):
        try:
            found[name] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            found[name] = None
    try:
        import yaml
        found["libyaml"] = bool(yaml.__with_libyaml__)
    except ImportError:
        found["libyaml"] = None
    return found


def parse_runs(text):
    seed, _, pairs = text.partition(":")
    return int(seed), int(pairs or 10)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--runs", type=parse_runs, action="append",
                        metavar="SEED:PAIRS",
                        help="a seed and its number of pairs (default 1:10); "
                             "repeatable")
    parser.add_argument("--note", help="free text kept in the record")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    runs_per_seed = args.runs or [(1, 10)]
    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in (("parent", args.parent),
                                 ("change", args.change))}
    metrics = json.loads(git("show", f"{commits['change']}:BENCHMARK.json")
                         )["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {}
        for side, commit in commits.items():
            checkouts[side] = Path(tmp) / side
            export(commit, checkouts[side])
        lines = {side: src_lines(checkouts[side]) for side in SIDES}
        for workload in WORKLOADS:
            for seed, pairs in runs_per_seed:
                for pair in range(pairs):
                    first = "parent" if pair % 2 == 0 else "change"
                    order = [first, "change" if first == "parent" else "parent"]
                    for side in order:
                        code, final = run_once(checkouts[side], workload, seed)
                        runs.append({"workload": workload, "seed": seed,
                                     "pair": pair, "first": first,
                                     "side": side, "exit": code,
                                     "final_line": final})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"exit {code} {json.dumps(final)}",
                              file=sys.stderr, flush=True)
    record = {
        "pr": args.pr,
        "command": " ".join(["python3"]
                            + bench_command("<workload>", "<seed>")[1:]),
        "seconds": SECONDS,
        "seeds": [seed for seed, _ in runs_per_seed],
        "order": ORDER,
        "commits": commits,
        "src_lines": lines,
    }
    if args.note:
        record["note"] = args.note
    record.update(machine=machine(), versions=versions(),
                  summary=summarize(runs, better, bounds), runs=runs)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
