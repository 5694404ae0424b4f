#!/usr/bin/env python3
"""End-to-end benchmark of the macrocoh CLI, checked against an oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_quadratic --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop: one client, the next operation starts when
the previous one has ended):

    cli_reports      rounds of the four subcommands with shipped defaults,
                     each invocation a fresh `python -m macrocoh.cli` process
    sweep_quadratic  in-process `macrocoh.cli.main(["testability", ...])`,
                     2000 radii x csl,csl_adler,qg,k
    sweep_saturated  the same loop with 200 radii x dp,k_sat

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run (see trace_layers.py).  Every output is checked against
oracle.py; cells hit by the known bracketing fault of `expansion.solve_cet`
count as failed operations.  README.md has the details.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import oracle  # noqa: E402

SWEEPS = {
    "sweep_quadratic": {"models": ("csl", "csl_adler", "qg", "k"), "points": 2000},
    "sweep_saturated": {"models": ("dp", "k_sat"), "points": 200},
}
WORKLOADS = ("cli_reports",) + tuple(SWEEPS)

SETUP_SAMPLES = 5     # fresh interpreters timed per run for setup_s
CHILD_TIMEOUT_S = 120

# Speed scaling.  The speed of this kind of shared machine drifts by tens of
# per cent within a minute, so every timed operation is bracketed by a
# calibration that runs no program code, and reported scaled to a reference
# machine: scaled = measured * nominal / calibration.
#
# In-process operations are measured in process CPU time (user + system) and
# bracketed by a fixed pure-Python loop, also in CPU time.  Fresh-process
# operations (CLI invocations, set-up) are measured in wall time and
# bracketed by a reference interpreter that imports the libraries alone.
CAL_NOMINAL_S = 0.0230        # CPU time of calibrate() on the reference machine
CAL_ITERATIONS = 120000
REFERENCE_SNIPPET = "import numpy, yaml, scipy.integrate"
REFERENCE_NOMINAL_S = 0.90    # wall time of the reference interpreter there


def calibrate():
    """CPU seconds taken by a fixed loop that runs no program code.

    It touches only its own locals and runs with the garbage collector off,
    so neither the program's objects nor its garbage change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        acc = 0.0
        table = {}
        for i in range(CAL_ITERATIONS):
            acc += (i * 0.5) ** 0.5
            table[i & 255] = acc
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


class Context:
    """Paths and settings of one benchmark run."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.points = args.points
        self.setup_samples = args.setup_samples
        self.root = Path.cwd()
        self.src = self.root / "src"
        if not (self.src / "macrocoh" / "cli.py").is_file():
            raise BenchError(f"no program source at {self.src}/macrocoh; "
                             "run from the root of a checkout")
        self.work = (self.root / ".bench_work"
                     / f"{self.workload}-{self.seed}-{os.getpid()}")
        self.ref_env = {k: v for k, v in os.environ.items()
                        if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
        self.env = dict(self.ref_env, PYTHONPATH=str(self.src))

    def import_program(self):
        sys.path.insert(0, str(self.src))
        import macrocoh
        import macrocoh.cli
        where = Path(macrocoh.__file__).resolve()
        if self.src.resolve() not in where.parents:
            raise BenchError(f"imported macrocoh from {where}, not from {self.src}")
        return macrocoh


class Tally:
    """Timed operations, attempted/failed counts and correctness problems."""

    def __init__(self):
        self.raw = []        # s per operation
        self.scaled = []     # reference-machine s per operation
        self.op_cells = []   # data cells per operation
        self.calibrations = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_time(self, wall, scaled, calibrations, cells):
        """Record one operation: its wall time, its scaled time, the
        calibration samples that bracketed it and the data cells it wrote."""
        self.raw.append(wall)
        self.scaled.append(scaled)
        self.calibrations.extend(calibrations)
        self.op_cells.append(cells)

    def add_in_process(self, wall, cpu, cal_before, cal_after, cells):
        """An in-process operation: CPU time scaled by the calibration loop."""
        cal = 0.5 * (cal_before + cal_after)
        self.add_time(wall, cpu * CAL_NOMINAL_S / cal, [cal_before, cal_after], cells)

    def cells_per_s(self, times):
        """Median over operations of data cells per second."""
        return statistics.median(c / t for c, t in zip(self.op_cells, times))

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest(tally, out, outputs, command):
    path = Path(str(out) + ".manifest.json")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        tally.problem(f"{path}: no readable manifest ({exc})")
        return
    if doc.get("command") != command or doc.get("outputs") != [str(p) for p in outputs]:
        tally.problem(f"{path}: manifest names {doc.get('command')!r} "
                      f"{doc.get('outputs')!r}, expected {command!r} {outputs!r}")


def check_repeat(tally, digests, key, paths):
    """Data files of a repeated operation must be byte-identical."""
    digest = tuple(sha256(p) for p in paths)
    first = digests.setdefault(key, digest)
    if digest != first:
        tally.problem(f"{key}: output bytes differ between repeats")


def timed_subprocess_ready(cmd, env, cwd):
    """Seconds from spawning `cmd` until it prints its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed (exit {proc.returncode}): {err[-500:]}")
    return elapsed


def reference_run(ctx, to_ready=False):
    """Wall seconds of the reference interpreter (no program code)."""
    cmd = [sys.executable, "-c", REFERENCE_SNIPPET + "\nprint('ready', flush=True)"]
    if to_ready:
        return timed_subprocess_ready(cmd, ctx.ref_env, ctx.work)
    start = time.perf_counter()
    subprocess.run(cmd, env=ctx.ref_env, cwd=ctx.work, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def measure_setup(ctx, snippet):
    """Median over fresh interpreters of the scaled time until `snippet` is done.

    The samples alternate with reference interpreters; each sample is scaled
    by the mean of the references just before and just after it.  One
    untimed interpreter runs first so that byte-code caches exist.
    Returns (median scaled s, raw samples, scaled samples).
    """
    cmd = [sys.executable, "-c", snippet + "\nprint('ready', flush=True)"]
    timed_subprocess_ready(cmd, ctx.env, ctx.work)
    raw, scaled = [], []
    reference = reference_run(ctx, to_ready=True)
    for _ in range(ctx.setup_samples):
        sample = timed_subprocess_ready(cmd, ctx.env, ctx.work)
        before, reference = reference, reference_run(ctx, to_ready=True)
        raw.append(sample)
        scaled.append(sample * REFERENCE_NOMINAL_S / (0.5 * (before + reference)))
    return statistics.median(scaled), raw, scaled


def run_rounds(ctx, round_fn):
    """Whole rounds until --seconds of wall time have passed (at least one)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        if time.perf_counter() - start >= ctx.seconds:
            return rounds


def call_in_process(mc, op):
    """`macrocoh.cli.main(argv)` in this process.

    Returns (exit code, wall s, CPU s, stderr text); stdout is discarded.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        code = mc.cli.main(op["args"])
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
    return code, wall, cpu, err.getvalue()


# ----------------------------------------------------------------- sweeps


def sweep_expectations(ops, models, points, tally):
    """Oracle values for every distinct operation of a round."""
    import numpy as np

    from macrocoh.scenario import load_scenario
    from macrocoh.testability import scenario_presets

    radii = [float(r) for r in np.geomspace(inputs.RADIUS_MIN, inputs.RADIUS_MAX, points)]
    presets = scenario_presets()
    expect = {}
    for op in ops:
        if op["scenario"] is None:
            scenario = presets[op["preset"]]
        else:
            scenario = load_scenario(op["scenario"])
            check_loaded_environment(tally, op["scenario"], scenario)
        expect[op["key"]] = oracle.expect_sweep(scenario, radii, models)
    return expect


def check_loaded_environment(tally, path, scenario):
    """The seeded values must reach the program unchanged."""
    import yaml

    doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    got = (scenario.environment.temperature, scenario.environment.pressure,
           scenario.trap.internal_temperature)
    want = (doc["environment"]["temperature_K"], doc["environment"]["pressure_Pa"],
            doc["trap"]["internal_temperature_K"])
    if got != want:
        tally.problem(f"{path}: loaded environment {got} != file {want}")


class SweepWorkload:
    """In-process `testability` runs; one operation counted per cell."""

    def __init__(self, ctx, mc):
        self.ctx = ctx
        self.mc = mc
        spec = SWEEPS[ctx.workload]
        self.models = spec["models"]
        self.points = ctx.points or spec["points"]
        self.ops = inputs.sweep_round(ctx.src, ctx.work, ctx.seed, self.models,
                                      self.points)
        self.tally = Tally()
        self.expect = sweep_expectations(self.ops, self.models, self.points,
                                         self.tally)
        self.digests = {}
        self.fault_cells = {}

    def setup_snippet(self):
        out = self.ctx.work / "setup.csv"
        args = ["testability", "--points", "2", "--models", ",".join(self.models),
                "--out", str(out)]
        return ("import contextlib, io\n"
                "import macrocoh.cli\n"
                "from macrocoh.testability import scenario_presets\n"
                "scenario_presets()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    macrocoh.cli.main({args!r})")

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.mc.cli.main(["testability", "--points", "2", "--models",
                              ",".join(self.models), "--out",
                              str(self.ctx.work / "warmup.csv")])

    def call(self, op):
        return call_in_process(self.mc, op)

    def run_op(self, op, tally=None):
        tally = tally or self.tally
        cal_before = calibrate()
        code, wall, cpu, err = self.call(op)
        cal_after = calibrate()
        cells = self.check(op, code, err, tally)
        tally.add_in_process(wall, cpu, cal_before, cal_after, cells)

    def check(self, op, code, err, tally):
        """Check one testability run; returns its number of cells."""
        expect = self.expect[op["key"]]
        cells_per_op = len(expect.radii) * (1 + len(self.models))
        tally.attempted += cells_per_op
        if code != 0:
            tally.problem(f"{op['key']}: exit code {code}: {err[-300:]}")
            tally.failed += cells_per_op
            return cells_per_op
        out = op["out"]
        intervals = Path(str(out) + ".intervals.csv")
        problems, cells, failed, faults = oracle.check_sweep_csv(
            out.read_text(encoding="utf-8"), intervals.read_text(encoding="utf-8"),
            expect)
        for text in problems:
            tally.problem(f"{op['key']}: {text}")
        if cells != cells_per_op:
            tally.problem(f"{op['key']}: {cells} cells checked, {cells_per_op} expected")
        tally.failed += failed
        known = self.fault_cells.setdefault(op["key"], [c[:2] for c in faults])
        if [c[:2] for c in faults] != known:
            tally.problem(f"{op['key']}: failed cells changed between repeats")
        check_manifest(tally, out, [out, intervals], "testability")
        check_repeat(tally, self.digests, op["key"], [out, intervals])
        return cells_per_op

    def round(self, tally=None):
        for op in self.ops:
            self.run_op(op, tally)


# ------------------------------------------------------------ cli_reports


class CliWorkload:
    """Fresh `python -m macrocoh.cli` processes; one operation per invocation."""

    def __init__(self, ctx, mc):
        self.ctx = ctx
        self.mc = mc
        self.ops = inputs.cli_round(ctx.work, ctx.seed)
        self.tally = Tally()
        self.last_reference = None
        self.digests = {}
        self.docs = self.load_docs()
        self.expect = self.testability_expectation()

    def load_docs(self):
        import yaml

        data = self.ctx.src / "macrocoh" / "data"
        return {name: yaml.safe_load((data / f"{name}.yaml").read_text(encoding="utf-8"))
                for name in ("orbit_heo", "budgets", "materials")}

    def testability_expectation(self):
        """Oracle for the shipped testability defaults, read from the parser."""
        import numpy as np

        from macrocoh.testability import scenario_presets

        parser = self.mc.cli.build_parser()
        args = parser.parse_args(["testability", "--out", "unused.csv"])
        models = [m.strip() for m in args.models.split(",")]
        radii = [float(r) for r in np.geomspace(args.radius_min, args.radius_max,
                                                args.points)]
        scenario = scenario_presets()[args.preset]
        return oracle.expect_sweep(scenario, radii, models)

    def setup_snippet(self):
        return "import macrocoh.cli"

    def warm_up(self):
        pass

    def call(self, op):
        cmd = [sys.executable, "-m", "macrocoh.cli"] + op["args"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.ctx.env, cwd=self.ctx.work,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        return proc.returncode, wall, wall, proc.stderr

    def round(self, tally=None):
        """One timed operation of the latency metric: the four invocations.

        Each invocation is scaled by the mean of the reference interpreters
        run just before and just after it.
        """
        tally = tally or self.tally
        if self.last_reference is None:
            self.last_reference = reference_run(self.ctx)
        wall = scaled = 0.0
        references = []
        results = []
        for op in self.ops:
            before = self.last_reference
            code, elapsed, _, err = self.call(op)
            self.last_reference = reference_run(self.ctx)
            reference = 0.5 * (before + self.last_reference)
            references.append(reference)
            wall += elapsed
            scaled += elapsed * REFERENCE_NOMINAL_S / reference
            results.append((op, code, err))
        cells = sum(self.check(op, code, err, tally) for op, code, err in results)
        tally.add_time(wall, scaled, references, cells)

    def check(self, op, code, err, tally):
        """Check one invocation; returns the data cells of its CSVs."""
        tally.attempted += 1
        out = op["out"]
        name = op["key"]
        if code != 0:
            tally.failed += 1
            tally.problem(f"{name}: exit code {code}: {err[-300:]}")
            return 0
        text = out.read_text(encoding="utf-8")
        outputs = [out]
        cells = oracle.data_cells(text)
        failed = False
        if name == "testability":
            intervals = Path(str(out) + ".intervals.csv")
            outputs.append(intervals)
            intervals_text = intervals.read_text(encoding="utf-8")
            cells += oracle.data_cells(intervals_text)
            problems, _, bad, _ = oracle.check_sweep_csv(
                text, intervals_text, self.expect)
            # the invocation fails as a whole when any cell hits the fault
            failed = bad > 0
        elif name == "decoherence-report":
            problems = oracle.check_decoherence_report(text)
        elif name == "mission-report":
            problems = oracle.check_mission_report(
                text, self.docs["orbit_heo"], self.docs["budgets"])
        else:
            problems = oracle.check_vacuum_report(text, self.docs["materials"])
        for problem in problems:
            tally.problem(f"{name}: {problem}")
        if failed:
            tally.failed += 1
        check_manifest(tally, out, outputs, name)
        check_repeat(tally, self.digests, name, outputs)
        return cells


# ------------------------------------------------------------------ main


def make_workload(ctx, mc):
    if ctx.workload == "cli_reports":
        return CliWorkload(ctx, mc)
    return SweepWorkload(ctx, mc)


def end_to_end(ctx):
    mc = ctx.import_program()
    wl = make_workload(ctx, mc)
    setup_s, setup_raw, setup_scaled = measure_setup(ctx, wl.setup_snippet())
    wl.warm_up()
    tally = wl.tally
    start = time.perf_counter()
    rounds = run_rounds(ctx, wl.round)
    wall = time.perf_counter() - start
    if ctx.workload == "cli_reports":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_s": (statistics.median(tally.scaled), "s"),
        "cells_per_s": (tally.cells_per_s(tally.scaled), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {
        "rounds": rounds,
        "timed_operations": len(tally.raw),
        "wall_s": round(wall, 3),
        "latency_raw_wall_s": statistics.median(tally.raw),
        "cells_per_s_raw_wall": tally.cells_per_s(tally.raw),
        "calibration_s": statistics.median(tally.calibrations),
        "op_scaled_s": [round(x, 4) for x in tally.scaled],
        "op_keys": [op["key"] for op in wl.ops],
        "setup_raw_s": statistics.median(setup_raw),
        "setup_samples_raw_s": [round(x, 4) for x in setup_raw],
        "setup_samples_scaled_s": [round(x, 4) for x in setup_scaled],
    }
    return tally, metrics, info


def emit(tally, metrics, info):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in info.items():
        print(f"# {name}: {value}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}")
    for problem in tally.problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the benchmark's own smoke tests: a smaller grid, fewer set-ups
    parser.add_argument("--points", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        ctx = Context(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import trace_layers
            tally, metrics, info = trace_layers.traced_run(ctx)
        else:
            tally, metrics, info = end_to_end(ctx)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    emit(tally, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
