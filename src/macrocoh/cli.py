"""Command-line surface: batch analysis reports as deterministic CSV files.

Commands: decoherence-report, testability, vacuum-report, mission-report.
Each imports the modules it needs when it runs, so building the parser loads
none and the reports never load the sweep modules or numpy; `testability`
loads numpy only for a sweep of more than `testability.SCALAR_CELLS` cells
(radii x (1 + models)), which its default of 50 radii x 4 models is not.
Each run checks every output path, then writes its outputs and a manifest,
<first output>.manifest.json, naming them and the resolved inputs; only the
manifest holds a timestamp, so repeated runs give byte-identical data files.

Exit codes: 0 success, 1 computation failure or budget mismatch warning,
2 input validation failure, such as a NaN or infinite float flag or two
outputs that name one file.
"""

import argparse
import functools
import gc
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ConfigError, build, csv_text, number, pair, section


def atomic_write_text(path, text):
    """Write via a temp file in the target directory plus rename; a failure
    is a ConfigError naming the output and leaves no temp file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_manifest(path, command, inputs, outputs, parameters):
    """Provenance sidecar at `path` naming every output of the run and its
    resolved inputs."""
    manifest = json.dumps(
        {"command": command, "tool_version": __version__,
         "created_utc": datetime.now(timezone.utc).isoformat(),
         "inputs": [str(p) for p in inputs],
         "outputs": [str(p) for p in outputs], "parameters": parameters},
        indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, manifest)


def write_outputs(command, inputs, outputs, parameters):
    """Write each (path, text) of the list `outputs`, named by --out and
    then --intervals-out (a dict would merge two equal paths), and then the
    manifest <first output>.manifest.json.  Every path is checked first: two
    that name one file, a folder that cannot be made or a directory in the
    way is a ConfigError naming it, and nothing is written."""
    paths = [Path(path) for path, _ in outputs]
    paths.append(Path(f"{paths[0]}.manifest.json"))
    names = [*("--out", "--intervals-out")[:len(outputs)], "the manifest of --out"]
    named = {}  # by realpath, which unlike Path.resolve allows a symlink loop
    for name, path in zip(names, paths, strict=True):
        first = named.setdefault(os.path.realpath(path), name)
        if first != name:
            raise ConfigError(f"{path}: {first} and {name} name the same file")
    for path in paths:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"{path}: cannot make its folder: {exc.strerror}") from None
        if path.is_dir():
            raise ConfigError(f"{path}: is a directory")
    for path, (_, text) in zip(paths, outputs):
        atomic_write_text(path, text)
    write_manifest(paths[-1], command, inputs, [p for p, _ in outputs],
                   parameters)


def _require_finite(args, *names):
    """A ConfigError naming the first float flag of `names` given as NaN or
    infinite; an optional flag left out (None) passes."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            flag = name.replace("_", "-")
            raise ConfigError(f"--{flag}: must be finite, got {value}")


def _pick(flag, names, available):
    """`names`, keys of `available` given once each; else a ConfigError
    naming `flag` and the unknown names or the first one given twice."""
    unknown = [n for n in names if n not in available]
    if unknown:
        raise ConfigError(
            f"{flag}: unknown {unknown}; available: {sorted(available)}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{flag}: {name} given more than once")
    return names


def _resolve_scenario(args):
    from . import scenario

    if args.scenario is not None:
        return scenario.load_scenario(args.scenario), str(args.scenario)
    return (build(scenario.load_preset, "--preset", args.preset),
            f"preset:{args.preset}")


# ---------------------------------------------------------------- commands


def cmd_decoherence_report(args):
    from . import expansion
    from .decoherence import qm_channel_rates

    scenario, source = _resolve_scenario(args)
    kin = scenario.kinematics
    rates = qm_channel_rates(scenario)
    spec = rates.as_decoherence_spec()
    cet = expansion.cet_or_inf(spec, kin)
    ced = kin.v_m * cet
    amplitude = visibility = math.nan
    if math.isfinite(cet):
        amplitude, visibility = expansion.visibility_factor(
            expansion.gamma(cet, spec, kin))

    rows = [
        ("particle_radius", scenario.particle.radius, "m"),
        ("particle_mass", scenario.particle.mass, "kg"),
        ("ground_state_width", kin.x0, "m"),
        ("expansion_velocity", kin.v_m, "m/s"),
        ("gas_rate", rates.gas_rate, "1/s"),
        ("lambda_bb_scatter", rates.lambda_bb_scatter, "1/(m^2 s)"),
        ("lambda_bb_absorb", rates.lambda_bb_absorb, "1/(m^2 s)"),
        ("lambda_bb_emit", rates.lambda_bb_emit, "1/(m^2 s)"),
        ("lambda_total", rates.total_lambda, "1/(m^2 s)"),
        ("cet", cet, "s"),
        ("ced", ced, "m"),
        ("amplitude_factor_at_cet", amplitude, "1"),
        ("visibility_at_cet", visibility, "1"),
    ]
    write_outputs("decoherence-report", [source],
                  [(args.out, csv_text(("quantity", "value", "unit"), rows))],
                  {"scenario": source, "label": scenario.label})
    cet_text = "inf" if math.isinf(cet) else f"{cet:.4e} s"
    ced_text = "inf" if math.isinf(ced) else f"{ced:.4e} m"
    print(f"{scenario.label or source}: lambda_total="
          f"{rates.total_lambda:.4e} 1/(m^2 s), cet={cet_text}, ced={ced_text}")
    print(f"wrote {args.out}")
    return 0


def cmd_testability(args):
    from . import testability

    _require_finite(args, "radius_min", "radius_max", "highlight_radius")
    scenario, source = _resolve_scenario(args)
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    if not names:
        raise ConfigError("--models: empty model list")
    presets = testability.MODEL_PRESETS
    models = [presets[n] for n in _pick("--models", names, presets)]
    config = build(testability.SweepConfig,
                   "--radius-min, --radius-max, --points and --models",
                   radius_min=args.radius_min, radius_max=args.radius_max,
                   points=args.points, grid=args.grid, scenario=scenario,
                   models=tuple(models))
    table = testability.sweep(config)
    intervals = {name: testability.violation_intervals(table, name)
                 for name in names}

    intervals_out = args.intervals_out or str(args.out) + ".intervals.csv"
    write_outputs("testability", [source],
                  [(args.out, testability.write_sweep_csv(table)),
                   (intervals_out, testability.write_intervals_csv(intervals))],
                  {"scenario": source, "radius_min": args.radius_min,
                   "radius_max": args.radius_max, "points": args.points,
                   "grid": args.grid, "models": names,
                   "highlight_radius": args.highlight_radius})

    for name, spans in intervals.items():
        pretty = "; ".join(f"[{lo:.3e}, {hi:.3e}] m" for lo, hi in spans) or "none"
        print(f"{name}: violation intervals {pretty}")
    nearest = table[min(range(len(table)), key=lambda i: abs(
        table.radius[i] - args.highlight_radius))]
    marks = ", ".join(f"ced_{n}={nearest.ced_model[n]:.3e} m" for n in names)
    print(f"highlight r={nearest.radius:.3e} m: ced_qm={nearest.ced_qm:.3e} m, {marks}")

    for i, errors in table.errors.items():
        print(f"warning: r={table.radius[i]:.3e} m: {errors}", file=sys.stderr)
    print(f"wrote {args.out} and {intervals_out}")
    if table.errors and len(table.errors) == len(table):
        return 1
    return 0


def cmd_vacuum_report(args):
    from . import vacuum

    _require_finite(args, "sphere_radius", "time", "patch_diameter",
                    "distance", "cold_temperature")
    if args.time < 0.0:
        raise ConfigError("--time: must be non-negative")
    temperature, _, summaries, source = vacuum.load_materials(args.materials)
    selected = _pick("--material", args.material or list(summaries), summaries)

    header = ["material", "mass_loss_rate_kg_s", "gamma0_per_m2_s",
              "pressure_mbar", "number_density_per_m3", "collision_rate_per_s",
              "implied_area_m2"]
    with_dilution = args.patch_diameter is not None
    if with_dilution != (args.distance is not None):
        raise ConfigError("--patch-diameter and --distance: give both or neither")
    if with_dilution:
        if not args.patch_diameter > 0.0:
            raise ConfigError(
                f"--patch-diameter: must be positive, got {args.patch_diameter}")
        patch_area = math.pi * (0.5 * args.patch_diameter) ** 2
        # the density ratio of the geometry alone, the same for every row
        dilution = build(vacuum.dilution_from_patch,
                         "--patch-diameter and --distance",
                         1.0, patch_area, args.distance)
        header += ["diluted_density_per_m3", "dilution_factor"]
    if args.cold_temperature is not None:
        hot = f"t_hot is {source}.temperature_K, {temperature} K"
        attenuation = [build(vacuum.pressure_attenuation,
                             f"--cold-temperature ({hot})",
                             energy, temperature, args.cold_temperature)
                       for energy in (10.0, 30.0)]
        header += ["attenuation_at_10_Eroom", "attenuation_at_30_Eroom"]

    rows = []
    for name in selected:
        row = summaries[name]
        decay = math.exp(-args.time / row.residence_time)
        gamma0 = row.gamma0 * decay
        state = vacuum.steady_state(gamma0, temperature, row.species_mass)
        cells = [name, row.mass_loss_rate * decay, gamma0,
                 state.pressure / vacuum.MBAR, state.number_density,
                 build(vacuum.collision_rate, "--sphere-radius", gamma0,
                       args.sphere_radius),
                 vacuum.implied_emitting_area(row.mass_loss_rate,
                                              row.species_mass, row.gamma0)]
        if with_dilution:
            cells += [vacuum.dilution_from_patch(state.number_density,
                                                 patch_area, args.distance),
                      dilution]
        if args.cold_temperature is not None:
            cells += attenuation
        rows.append(cells)

    write_outputs("vacuum-report", [source],
                  [(args.out, csv_text(header, rows))],
                  {"sphere_radius": args.sphere_radius, "time": args.time,
                   "materials": selected,
                   "patch_diameter": args.patch_diameter,
                   "distance": args.distance,
                   "cold_temperature": args.cold_temperature})
    print(f"wrote {args.out} ({len(selected)} materials)")
    return 0


def cmd_mission_report(args):
    from . import mission

    orbit, doc, source = mission.load_orbit(args.orbit)
    # optional sections, but mappings when given
    targets, thrusters = (section(doc, key, source) if key in doc else {}
                          for key in ("targets", "thrusters"))
    ledgers, budgets_source = mission.load_budgets(args.budgets)

    period = mission.orbital_period(orbit)
    gravity = mission.local_gravity(orbit, orbit.perigee_altitude)
    where = f"{source}.targets"
    rows = [
        ("orbital_period_days", period / 86400.0,
         number(targets, "period_days", where, ""), "day"),
        ("perigee_gravity", gravity.acceleration, "", "m/s^2"),
        ("perigee_gravity_g_fraction", gravity.g_fraction,
         number(targets, "perigee_gravity_g", where, ""), "g"),
    ]

    window = None
    if "perigee_band_altitude_km" in targets:
        low, high = pair(targets, "perigee_band_altitude_km", where)
        window = build(mission.altitude_window, where, orbit, low * 1e3,
                       high * 1e3)
        rows.append(("perigee_window_minutes", window / 60.0,
                     number(targets, "perigee_window_minutes", where, ""), "min"))
    psd = number(targets, "accel_psd_m_s2_sqrtHz", where, None)
    if psd is not None and window is not None:
        acc = build(mission.integrated_accuracy, where, psd, window,
                    reference_accel=gravity.acceleration)
        rows.append(("integrated_accuracy", acc.absolute,
                     number(targets, "integrated_accuracy_m_s2", where, ""),
                     "m/s^2"))
        rows.append(("integrated_fraction_of_perigee_g", acc.fractional, "", "1"))

    if "thrusters" in doc:
        where = f"{source}.thrusters"
        accel = build(mission.thruster_accel_psd, where,
                      number(thrusters, "force_psd_N_sqrtHz", where),
                      number(thrusters, "spacecraft_mass_kg", where))
        where += ".position_hold_claims"
        claims = thrusters.get("position_hold_claims", [])
        if not isinstance(claims, list):
            raise ConfigError(f"{where}: expected a list, got {claims!r}")
        claims, named = dict(enumerate(claims)), {}
        for i in claims:
            claim = section(claims, i, where)
            duration = number(claim, "duration_s", f"{where}.{i}")
            name = f"thruster_position_spread_{duration:g}s"
            if name in named:
                raise ConfigError(f"{where}.{i}: duration_s gives the row "
                                  f"{name} of claim {named[name]}")
            named[name] = i
            noise = build(mission.thruster_position_noise, f"{where}.{i}",
                          duration, accel)
            rows.append((name, noise.position_spread,
                         number(claim, "position_m", f"{where}.{i}", ""), "m"))
        rows.append(("thruster_accel_psd", accel, "", "(m/s^2)/sqrt(Hz)"))

    warnings = []
    for name in sorted(ledgers):
        check = mission.budget_check(ledgers[name])
        unit = ledgers[name].unit
        rows.append((f"budget_{name}_total", check.computed_total,
                     check.declared_total, unit))
        if abs(check.delta) > 0.5:
            warnings.append(
                f"budget {name}: line items sum to {check.computed_total:g} {unit}"
                f" but declare {check.declared_total:g} {unit}"
                f" (delta {check.delta:+g})")

    write_outputs("mission-report", [source, budgets_source],
                  [(args.out, csv_text(("quantity", "computed", "target", "unit"),
                                       rows))],
                  {"orbit": str(args.orbit), "budgets": str(args.budgets)})

    print(f"period {period / 86400.0:.2f} d, perigee gravity "
          f"{gravity.g_fraction:.3f} g"
          + (f", window {window / 60.0:.1f} min" if window is not None else ""))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if warnings else 0


# ---------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macrocoh",
        description="Feasibility analysis for macroscopic superposition "
                    "experiments with optically trapped nanospheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    deco = sub.add_parser("decoherence-report",
                          help="per-channel decoherence rates, CET, and CED "
                               "of one scenario")
    deco.add_argument("--scenario", type=Path, help="scenario YAML file")
    deco.add_argument("--preset", default="fig2_baseline",
                      help="packaged scenario preset (default fig2_baseline)")
    deco.add_argument("--out", type=Path, required=True, help="output CSV")
    deco.set_defaults(func=cmd_decoherence_report)

    testa = sub.add_parser("testability",
                           help="radius sweep comparing quantum-theory CED "
                                "against collapse models")
    testa.add_argument("--scenario", type=Path)
    testa.add_argument("--preset", default="fig2_baseline")
    testa.add_argument("--radius-min", type=float, default=1e-8,
                       help="smallest sphere radius in m (default 1e-8)")
    testa.add_argument("--radius-max", type=float, default=5e-7,
                       help="largest sphere radius in m (default 5e-7)")
    testa.add_argument("--points", type=int, default=50)
    testa.add_argument("--grid", choices=("log", "linear"), default="log")
    testa.add_argument("--models", default="csl,qg,k,dp",
                       help="comma-separated collapse models "
                            "(default %(default)s)")
    testa.add_argument("--highlight-radius", type=float, default=9e-8,
                       help="radius in m whose row is echoed to stdout")
    testa.add_argument("--out", type=Path, required=True, help="sweep CSV")
    testa.add_argument("--intervals-out", type=Path,
                       help="violation intervals CSV "
                            "(default <out>.intervals.csv)")
    testa.set_defaults(func=cmd_testability)

    vac = sub.add_parser("vacuum-report",
                         help="outgassing summary: emission rates, pressures, "
                              "collision rates")
    vac.add_argument("--materials", type=Path, help="materials YAML "
                                                    "(default packaged presets)")
    vac.add_argument("--material", action="append",
                     help="restrict to this material (repeatable)")
    vac.add_argument("--sphere-radius", type=float, default=2e-7,
                     help="sphere radius in m for collision rates (default 2e-7)")
    vac.add_argument("--time", type=float, default=0.0,
                     help="elapsed outgassing time in s (default 0)")
    vac.add_argument("--patch-diameter", type=float,
                     help="emitting patch diameter in m for dilution columns")
    vac.add_argument("--distance", type=float,
                     help="patch distance in m for dilution columns")
    vac.add_argument("--cold-temperature", type=float,
                     help="cold operating temperature in K for attenuation "
                          "columns")
    vac.add_argument("--out", type=Path, required=True)
    vac.set_defaults(func=cmd_vacuum_report)

    mis = sub.add_parser("mission-report",
                         help="orbit figures, sensor integration, thruster "
                              "noise, and budget checks")
    mis.add_argument("--orbit", type=Path, help="orbit YAML (default packaged)")
    mis.add_argument("--budgets", type=Path,
                     help="budgets YAML (default packaged)")
    mis.add_argument("--out", type=Path, required=True)
    mis.set_defaults(func=cmd_mission_report)

    return parser


@functools.cache
def _parser():
    # built on the first main() call, not at import, and reused: parsing
    # (--help and usage errors included) leaves a parser as it was
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: computation failed: out of memory", file=sys.stderr)
        return 1


def entrypoint():
    status = main()
    # the process ends here: move every object into the permanent
    # generation, so that shutdown skips the cyclic-GC pass over what numpy,
    # PyYAML and argparse made, and the OS reclaims it.  main() never
    # freezes, as library callers run it many times in one process.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
