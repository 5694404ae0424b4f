"""Seeded inputs for the benchmark workloads.

The program sees only what these functions produce: CLI argument lists and
scenario YAML files.  The seed sets

* the order of the operations inside every round,
* for every shipped scenario preset, one variant YAML whose environment
  temperature, residual-gas pressure and internal sphere temperature are
  drawn from physical ranges.

The variants keep the preset's particle (radius, density, permittivities)
and trap, because those alone set every collapse-model column: the model
CEDs, and with them the cells hit by the known bracketing fault, are then
the same for every seed, while the QM column and the violation flags move.
The radius grid is fixed for the same reason.
"""

import random
from pathlib import Path

import yaml

PRESETS = {
    "fig2_baseline": "baseline_fig2.yaml",
    "fig3_left": "fig3_left.yaml",
    "fig3_right": "fig3_right.yaml",
}

# Physical ranges of the seeded environment (cold external platform).
ENV_TEMPERATURE_K = (8.0, 40.0)
PRESSURE_PA_LOG10 = (-13.5, -10.5)
INTERNAL_TEMPERATURE_K = (40.0, 160.0)

RADIUS_MIN = 1e-8  # m, the CLI default
RADIUS_MAX = 5e-7  # m, the CLI default


def preset_path(src, preset):
    return Path(src) / "macrocoh" / "data" / "scenarios" / PRESETS[preset]


def scenario_variant(src, preset, rng):
    """A preset's scenario mapping with a seeded environment."""
    doc = yaml.safe_load(preset_path(src, preset).read_text(encoding="utf-8"))
    doc["label"] = f"{doc.get('label', preset)} (seeded environment)"
    doc["environment"] = {
        "temperature_K": round(rng.uniform(*ENV_TEMPERATURE_K), 3),
        "pressure_Pa": float(f"{10.0 ** rng.uniform(*PRESSURE_PA_LOG10):.4e}"),
        "gas_mass_amu": doc["environment"].get("gas_mass_amu", 2.0),
    }
    doc["trap"]["internal_temperature_K"] = round(
        rng.uniform(*INTERNAL_TEMPERATURE_K), 3)
    return doc


def write_variants(src, workdir, seed):
    """Write one seeded variant per preset; returns {preset: path}."""
    rng = random.Random(f"scenarios:{seed}")
    paths = {}
    for preset in PRESETS:
        doc = scenario_variant(src, preset, rng)
        path = Path(workdir) / f"seeded_{preset}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        paths[preset] = path
    return paths


def sweep_round(src, workdir, seed, models, points):
    """The operations of one sweep round, in seeded order.

    Each shipped preset runs twice per round: once by name and once as its
    seeded variant.  Every op is a dict with its key, the CLI arguments,
    the output path, the preset and the variant YAML (None for a preset).
    """
    variants = write_variants(src, workdir, seed)
    ops = []
    for preset in PRESETS:
        for source in ("preset", "seeded"):
            key = f"{source}:{preset}"
            out = Path(workdir) / f"sweep_{source}_{preset}.csv"
            args = ["testability"]
            if source == "preset":
                args += ["--preset", preset]
            else:
                args += ["--scenario", str(variants[preset])]
            args += ["--radius-min", repr(RADIUS_MIN),
                     "--radius-max", repr(RADIUS_MAX),
                     "--points", str(points), "--grid", "log",
                     "--models", ",".join(models), "--out", str(out)]
            ops.append({"key": key, "args": args, "out": out,
                        "scenario": variants[preset] if source == "seeded" else None,
                        "preset": preset})
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


CLI_COMMANDS = ("decoherence-report", "testability", "vacuum-report",
                "mission-report")


def cli_round(workdir, seed):
    """The four subcommands with their shipped defaults, in seeded order."""
    ops = [{"key": name, "args": [name, "--out", str(Path(workdir) / f"{name}.csv")],
            "out": Path(workdir) / f"{name}.csv"} for name in CLI_COMMANDS]
    random.Random(f"order:{seed}").shuffle(ops)
    return ops
