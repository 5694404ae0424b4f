"""Per-layer metrics: the traced run behind `run.py --trace 1`.

Spans are recorded from the benchmark's side only: wrappers replace public
functions of the program's modules while the traced rounds run, count the
calls and time them, then the originals are put back.  The same run also

* profiles one round with cProfile (self time per module),
* times `python -X importtime -c "import macrocoh.cli"` in fresh
  interpreters, and
* probes each layer on fixed inputs (preset fig2_baseline), untraced for
  the per-call times and with counters for the per-solve counts, so that
  every metric exists on every workload, also for model families a
  workload does not use.

A function the program no longer has reads as 0; the per-layer metrics have
no bound.  Raw dumps (pstats, importtime log) go to .bench_work/trace/.
"""

import contextlib
import cProfile
import io
import pstats
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import run as bench

FAMILIES = ("qm", "csl", "qg", "k", "dp", "k_sat")
PROFILE_MODULES = ("cli", "config", "scenario", "decoherence", "collapse",
                   "expansion", "numerics", "testability", "vacuum", "mission",
                   "constants")
PROFILE_LIBRARIES = ("scipy", "numpy", "yaml")
CLI_COMMANDS = {"decoherence-report": "cli.decoherence_report_s",
                "testability": "cli.testability_default_s",
                "vacuum-report": "cli.vacuum_report_s",
                "mission-report": "cli.mission_report_s"}
IMPORT_SAMPLES = 3
PROBE_RADII = 24


def per_layer_names():
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = ["import.total_us", "import.scipy_us", "import.modules_loaded",
             "import.scipy_modules"]
    names += list(CLI_COMMANDS.values())
    names += ["cli.write_manifest_us", "cli.bytes_written",
              "config.scenario_presets_us", "config.load_materials_us",
              "config.load_orbit_us", "config.load_budgets_us",
              "scenario.with_radius_us", "scenario.kinematics_us",
              "decoherence.qm_channel_rates_us", "collapse.model_spec_us"]
    names += [f"expansion.solve_cet_us.{f}" for f in FAMILIES]
    names += [f"expansion.gamma_calls_per_solve.{f}" for f in FAMILIES]
    names += ["expansion.cet_closed_form_us"]
    names += [f"numerics.quad_calls_per_solve.{f}" for f in FAMILIES]
    names += ["numerics.quad_checked_us", "numerics.bisect_calls",
              "testability.sweep_s", "testability.write_csv_s",
              "testability.violation_intervals_us"]
    names += [f"profile.{m}_self_s" for m in PROFILE_MODULES + PROFILE_LIBRARIES]
    names += ["bench.calibration_s", "trace.overhead"]
    return names


def unit_of(name):
    stem = name.split(".")[1]    # e.g. solve_cet_us in expansion.solve_cet_us.dp
    if stem.endswith("_us"):
        return "us"
    if stem.endswith("_s"):
        return "s"
    if stem == "overhead":
        return "ratio"
    return "count"


class Tracer:
    """Wraps module attributes to count calls and accumulate inclusive time."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.bytes_written = 0
        self.family = None
        self.per_family = defaultdict(Counter)   # family -> counter deltas
        self._patches = []

    def wrap(self, owner, attr, key, before=None):
        original = getattr(owner, attr, None)
        if original is None:
            return
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start
                calls[key] += 1

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_solve(self, owner, attr):
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            family = tracer.family or "unknown"
            before = Counter(tracer.calls)
            try:
                return original(*args, **kwargs)
            finally:
                delta = Counter(tracer.calls)
                delta.subtract(before)
                delta["solves"] = 1
                tracer.per_family[family].update(delta)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def set_family(self, family):
        self.family = family

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install_operation_spans(tracer):
    """Spans around the layers an operation passes through once or a few
    times (CSV and manifest writing, the sweep), plus a bisection count.

    Functions are wrapped under every name they are looked up by: the CLI
    imports some of them by name.
    """
    from macrocoh import cli, expansion, numerics, testability

    def count_bytes(path, text):
        tracer.bytes_written += len(text.encode("utf-8"))

    tracer.wrap(cli, "atomic_write_text", "cli.atomic_write_text", before=count_bytes)
    tracer.wrap(cli, "write_manifest", "cli.write_manifest")
    for mod in (cli, testability):
        tracer.wrap(mod, "sweep", "testability.sweep")
        tracer.wrap(mod, "write_sweep_csv", "testability.write_csv")
        tracer.wrap(mod, "write_intervals_csv", "testability.write_csv")
        tracer.wrap(mod, "violation_intervals", "testability.violation_intervals")
    for mod in (expansion, numerics):
        tracer.wrap(mod, "bisect_increasing", "numerics.bisect")


def install_solver_counters(tracer):
    """Per-solve counts of Gamma evaluations and quadratures, attributed to
    the family set with `tracer.set_family`.  Too costly for whole rounds:
    a solve evaluates Gamma about 80 times."""
    from macrocoh import decoherence, expansion, numerics

    tracer.wrap_solve(expansion, "solve_cet")
    tracer.wrap(expansion, "gamma", "expansion.gamma")
    for mod in (expansion, decoherence, numerics):
        tracer.wrap(mod, "quad_checked", "numerics.quad_checked")


# ------------------------------------------------------------------ probes


def median_call_us(fn, args_list, repeats=5):
    """Median over `repeats` passes of the mean per-call time, in us."""
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        passes.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(passes) * 1e6


def probe_import(ctx, metrics):
    """Fresh interpreters: `-X importtime` and the modules each import loads."""
    snippet = ("import sys\nbefore = set(sys.modules)\nimport macrocoh.cli\n"
               "new = set(sys.modules) - before\n"
               "print(len(new), sum(1 for m in new if m.split('.')[0] == 'scipy'))")
    totals, scipy_us, logs = [], [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", snippet],
                              env=ctx.env, cwd=ctx.work, capture_output=True,
                              text=True, timeout=bench.CHILD_TIMEOUT_S, check=True)
        total = scipy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cumulative = int(fields[0]), int(fields[1])
            except ValueError:
                continue     # header line
            name = fields[2].rstrip()
            module = name.lstrip(" ")
            package = module.split(".")[0]
            if package == "scipy":
                scipy += self_us
            if package == "macrocoh" and len(name) - len(module) == 1:
                total += cumulative      # a top-level import of the program
        totals.append(total)
        scipy_us.append(scipy)
        logs.append(proc.stderr)
        loaded, loaded_scipy = (int(x) for x in proc.stdout.split())
    (trace_dir(ctx) / f"{ctx.workload}.importtime.txt").write_text(logs[-1])
    metrics["import.total_us"] = statistics.median(totals)
    metrics["import.scipy_us"] = statistics.median(scipy_us)
    metrics["import.modules_loaded"] = loaded
    metrics["import.scipy_modules"] = loaded_scipy


def probe_cli(ctx, mc, metrics):
    """In-process `main` of each subcommand with its defaults, after import."""
    out = ctx.work / "probe"
    for command, key in CLI_COMMANDS.items():
        argv = [command, "--out", str(out / f"{command}.csv")]
        samples = []
        for _ in range(4):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                mc.cli.main(argv)
                samples.append(time.perf_counter() - start)
        metrics[key] = statistics.median(samples[1:])


def probe_layers(mc, metrics):
    """Per-call cost of config loading, channel rates and each CET solve."""
    import numpy as np

    from macrocoh import expansion, mission, scenario, testability, vacuum

    probe = {}
    probe["config.scenario_presets_us"] = (testability, "scenario_presets", [()])
    probe["config.load_materials_us"] = (vacuum, "load_materials", [(None,)])
    probe["config.load_orbit_us"] = (mission, "load_orbit", [(None,)])
    probe["config.load_budgets_us"] = (mission, "load_budgets", [(None,)])
    for key, (mod, attr, args_list) in probe.items():
        fn = getattr(mod, attr, None)
        metrics[key] = median_call_us(fn, args_list * 5) if fn else 0.0

    base = testability.scenario_presets()["fig2_baseline"]
    radii = [float(r) for r in np.geomspace(1e-8, 5e-7, PROBE_RADII)]
    rows = [base.with_radius(r) for r in radii]
    metrics["scenario.with_radius_us"] = median_call_us(
        base.with_radius, [(r,) for r in radii])
    metrics["scenario.kinematics_us"] = median_call_us(
        scenario.scenario_kinematics, [(s,) for s in rows])
    metrics["decoherence.qm_channel_rates_us"] = median_call_us(
        mc.decoherence.qm_channel_rates, [(s,) for s in rows])
    presets = testability.MODEL_PRESETS
    spec_fn = getattr(testability, "model_decoherence_spec", None)
    metrics["collapse.model_spec_us"] = median_call_us(
        spec_fn, [(presets[n], s.particle) for n in presets for s in rows]) \
        if spec_fn else 0.0

    kins = []
    for s in rows:
        _, x0, v_m = scenario.scenario_kinematics(s)
        kins.append(expansion.ExpansionKinematics(x0=x0, v_m=v_m))
    specs = {"qm": [mc.decoherence.qm_channel_rates(s).as_decoherence_spec()
                    for s in rows]}
    for family in FAMILIES[1:]:
        specs[family] = [spec_fn(presets[family], s.particle) for s in rows] \
            if spec_fn else []

    def solve(spec, kin, solver="solve_cet"):
        # looked up on every call, so that the tracer's wrapper is seen
        try:
            getattr(expansion, solver)(spec, kin)
        except expansion.InfiniteCoherenceError:
            pass

    for family in FAMILIES:
        pairs = list(zip(specs[family], kins))
        metrics[f"expansion.solve_cet_us.{family}"] = \
            median_call_us(solve, pairs, repeats=3) if pairs else 0.0
    metrics["expansion.cet_closed_form_us"] = median_call_us(
        solve, [(spec, kin, "cet_closed_form") for spec, kin in zip(specs["qm"], kins)])

    tracer = Tracer()
    install_solver_counters(tracer)
    try:
        for family in FAMILIES:
            tracer.set_family(family)
            for spec, kin in zip(specs[family], kins):
                solve(spec, kin)
    finally:
        tracer.restore()
    for family in FAMILIES:
        counts = tracer.per_family[family]
        solves = counts["solves"] or 1
        metrics[f"expansion.gamma_calls_per_solve.{family}"] = \
            counts["expansion.gamma"] / solves
        metrics[f"numerics.quad_calls_per_solve.{family}"] = \
            counts["numerics.quad_checked"] / solves
    quads = tracer.calls["numerics.quad_checked"]
    metrics["numerics.quad_checked_us"] = \
        tracer.seconds["numerics.quad_checked"] / quads * 1e6 if quads else 0.0


# -------------------------------------------------------------- workload


def trace_dir(ctx):
    path = ctx.root / ".bench_work" / "trace"
    path.mkdir(parents=True, exist_ok=True)
    return path


def profile_round(ctx, wl, metrics):
    """cProfile the operations of one round; self seconds per module per op.

    Only the operations run under the profiler, not the output checks.
    """
    tally = bench.Tally()
    profiler = cProfile.Profile()
    for op in wl.ops:
        code, _, _, err = profiler.runcall(wl.call, op)
        wl.check(op, code, err, tally)
    profiler.dump_stats(str(trace_dir(ctx) / f"{ctx.workload}.pstats"))
    stats = pstats.Stats(profiler)
    self_s = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        path = Path(filename)
        parts = path.parts
        if "macrocoh" in parts and path.suffix == ".py":
            self_s[path.stem] += tottime
        else:
            for lib in PROFILE_LIBRARIES:
                if lib in parts:
                    self_s[lib] += tottime
                    break
    for name in PROFILE_MODULES + PROFILE_LIBRARIES:
        metrics[f"profile.{name}_self_s"] = self_s[name] / len(wl.ops)
    return tally


def traced_run(ctx):
    """Whole traced rounds for --seconds, plus the probes; per-layer metrics."""
    mc = ctx.import_program()
    wl = bench.make_workload(ctx, mc)
    if ctx.workload == "cli_reports":
        wl = InProcessCli(wl)
    wl.warm_up()
    metrics = {}

    # untraced reference round for the overhead ratio
    untraced = bench.Tally()
    wl.round(untraced)

    tracer = Tracer()
    install_operation_spans(tracer)
    try:
        rounds = bench.run_rounds(ctx, lambda: wl.round(wl.tally))
    finally:
        tracer.restore()
    tally = wl.tally
    ops = len(tally.raw)
    per_round = len(untraced.raw)
    traced_rounds = [sum(tally.raw[i:i + per_round]) for i in range(0, ops, per_round)]
    metrics["trace.overhead"] = statistics.median(traced_rounds) / sum(untraced.raw)

    def per_call(key, scale=1.0, calls_key=None):
        calls = tracer.calls[calls_key or key]
        return tracer.seconds[key] / calls * scale if calls else 0.0

    metrics["cli.write_manifest_us"] = per_call("cli.write_manifest", 1e6)
    metrics["cli.bytes_written"] = tracer.bytes_written / ops
    metrics["numerics.bisect_calls"] = tracer.calls["numerics.bisect"] / ops
    # per testability run (one sweep call each)
    metrics["testability.sweep_s"] = per_call("testability.sweep")
    metrics["testability.write_csv_s"] = per_call(
        "testability.write_csv", calls_key="testability.sweep")
    metrics["testability.violation_intervals_us"] = per_call(
        "testability.violation_intervals", 1e6)

    profiled = profile_round(ctx, wl, metrics)
    for problem in untraced.problems + profiled.problems:
        tally.problem(problem)
    probe_import(ctx, metrics)
    probe_cli(ctx, mc, metrics)
    try:
        probe_layers(mc, metrics)
    except (AttributeError, TypeError, ValueError) as exc:
        # the probes call public functions on fixed inputs; a program that
        # changed their signatures gets 0 for the metrics not yet measured
        print(f"bench: layer probe stopped: {exc!r}", file=sys.stderr)
    metrics["bench.calibration_s"] = statistics.median(tally.calibrations)

    result = {name: (float(metrics.get(name, 0.0)), unit_of(name))
              for name in per_layer_names()}
    info = {"rounds": rounds, "timed_operations": ops,
            "traced_round_s": statistics.median(traced_rounds),
            "untraced_round_s": sum(untraced.raw)}
    return tally, result, info


class InProcessCli:
    """cli_reports with every invocation run as `main(argv)` in this process,
    so that wrappers and the profiler see it; checks as in the CLI workload."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = wl.ops
        self.tally = wl.tally

    def warm_up(self):
        for op in self.ops:
            self.call(op)

    def call(self, op):
        return bench.call_in_process(self.wl.mc, op)

    def check(self, op, code, err, tally):
        return self.wl.check(op, code, err, tally)

    def round(self, tally):
        for op in self.ops:
            cal_before = bench.calibrate()
            code, wall, cpu, err = self.call(op)
            cal_after = bench.calibrate()
            cells = self.check(op, code, err, tally)
            tally.add_in_process(wall, cpu, cal_before, cal_after, cells)
