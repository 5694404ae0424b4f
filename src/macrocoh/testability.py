"""Radius sweeps comparing quantum-theory coherence against collapse models.

For every radius on a grid the sweep evaluates the coherent expansion
distance (CED) predicted by standard decoherence and by each requested
collapse model; a model counts as violated at a radius when its CED falls
short of the quantum-theory one, i.e. the model predicts collapse where
quantum theory still predicts interference.  Contiguous violated runs form
the testable radius intervals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import expansion
from .collapse import (CSL_ADLER, CSL_DEFAULT, CslParams, ModelId, csl_lambda,
                       dp_lambda, k_coherence_cell, k_lambda, qg_lambda)
from .config import csv_cell
from .decoherence import qm_channel_rates
from .expansion import DecoherenceSpec, ExpansionKinematics, InfiniteCoherenceError
from .scenario import load_packaged_scenario, particle_mass, scenario_kinematics


@dataclass(frozen=True)
class ModelSpec:
    """A collapse model plus its parameterization, named so that two
    parameterizations of the same model can ride one sweep."""

    name: str
    model: ModelId
    csl: CslParams = None
    k_saturation: bool = False

    def __post_init__(self):
        if self.model is ModelId.CSL and self.csl is None:
            raise ValueError(f"model spec {self.name!r}: CSL requires parameters")


MODEL_PRESETS = {
    "csl": ModelSpec("csl", ModelId.CSL, csl=CSL_DEFAULT),
    "csl_adler": ModelSpec("csl_adler", ModelId.CSL, csl=CSL_ADLER),
    "qg": ModelSpec("qg", ModelId.QG),
    "k": ModelSpec("k", ModelId.K),
    "k_sat": ModelSpec("k_sat", ModelId.K, k_saturation=True),
    "dp": ModelSpec("dp", ModelId.DP),
}


@dataclass(frozen=True)
class SweepConfig:
    radius_min: float
    radius_max: float
    points: int
    scenario: object          # Scenario template; radius is overridden per row
    models: tuple
    grid: str = "log"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        if not 0.0 < self.radius_min < self.radius_max:
            raise ValueError("need 0 < radius_min < radius_max")
        if self.grid not in ("log", "linear"):
            raise ValueError(f"grid must be 'log' or 'linear', got {self.grid!r}")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ValueError("model names must be unique within a sweep")


@dataclass(frozen=True)
class SweepRow:
    radius: float   # m
    mass: float     # kg
    ced_qm: float   # m; math.inf when coherence never decays
    ced_model: dict = field(default_factory=dict)   # name -> m (inf/nan allowed)
    violated: dict = field(default_factory=dict)    # name -> bool
    errors: dict = field(default_factory=dict)      # name (or "qm") -> message


def radius_grid(config):
    if config.grid == "log":
        values = np.geomspace(config.radius_min, config.radius_max, config.points)
    else:
        values = np.linspace(config.radius_min, config.radius_max, config.points)
    return [float(r) for r in values]


def model_decoherence_spec(model_spec, particle):
    """DecoherenceSpec carrying only the given collapse model's law.

    CSL, QG and K are quadratic; DP saturates at the sphere radius and the
    saturated K variant at one coherence cell.
    """
    model = model_spec.model
    if model is ModelId.CSL:
        return DecoherenceSpec(
            quadratic_lambda=csl_lambda(particle, model_spec.csl))
    if model is ModelId.QG:
        return DecoherenceSpec(
            quadratic_lambda=qg_lambda(particle_mass(particle)))
    if model is ModelId.K:
        cell = k_coherence_cell(particle) if model_spec.k_saturation else math.inf
        return DecoherenceSpec(quadratic_lambda=k_lambda(particle),
                               saturation_separation=cell)
    if model is ModelId.DP:
        return DecoherenceSpec(quadratic_lambda=dp_lambda(particle),
                               saturation_separation=particle.radius)
    raise ValueError(f"unknown model {model!r}")


def _ced_or_flag(spec, kin, errors, key):
    try:
        return expansion.ced(spec, kin)
    except InfiniteCoherenceError:
        return math.inf
    except Exception as exc:  # recorded per row, never aborts the sweep
        errors[key] = str(exc)
        return math.nan


def evaluate_radius(radius, scenario, models):
    """One sweep row: QM and per-model CED at a single radius."""
    row_scenario = scenario.with_radius(radius)
    mass, x0, v_m = scenario_kinematics(row_scenario)
    kin = ExpansionKinematics(x0=x0, v_m=v_m)
    errors = {}

    try:
        qm_spec = qm_channel_rates(row_scenario).as_decoherence_spec()
        ced_qm = _ced_or_flag(qm_spec, kin, errors, "qm")
    except Exception as exc:
        errors["qm"] = str(exc)
        ced_qm = math.nan

    ced_model = {}
    violated = {}
    for model_spec in models:
        try:
            spec = model_decoherence_spec(model_spec, row_scenario.particle)
            value = _ced_or_flag(spec, kin, errors, model_spec.name)
        except Exception as exc:
            errors[model_spec.name] = str(exc)
            value = math.nan
        ced_model[model_spec.name] = value
        # inf model CED never violates; inf QM CED dominates any finite model
        violated[model_spec.name] = value < ced_qm

    return SweepRow(radius=radius, mass=mass, ced_qm=ced_qm,
                    ced_model=ced_model, violated=violated, errors=errors)


def sweep(config):
    """Evaluate every grid radius; rows are returned ordered by radius."""
    return [evaluate_radius(r, config.scenario, config.models)
            for r in radius_grid(config)]


def violation_intervals(rows, model_name):
    """Maximal contiguous violated runs as (r_lo, r_hi) pairs at grid resolution."""
    intervals = []
    start = None
    last = None
    for row in rows:
        if row.violated.get(model_name, False):
            if start is None:
                start = row.radius
            last = row.radius
        elif start is not None:
            intervals.append((start, last))
            start = None
    if start is not None:
        intervals.append((start, last))
    return intervals


def scenario_presets():
    """Named scenarios shipped with the package."""
    return {
        "fig2_baseline": load_packaged_scenario("baseline_fig2.yaml"),
        "fig3_left": load_packaged_scenario("fig3_left.yaml"),
        "fig3_right": load_packaged_scenario("fig3_right.yaml"),
    }


def write_sweep_csv(rows, model_names, stream):
    header = ["radius_m", "mass_kg", "ced_qm_m"]
    header += [f"ced_{name}_m" for name in model_names]
    header += [f"violated_{name}" for name in model_names]
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [csv_cell(row.radius), csv_cell(row.mass), csv_cell(row.ced_qm)]
        cells += [csv_cell(row.ced_model[name]) for name in model_names]
        cells += ["true" if row.violated[name] else "false"
                  for name in model_names]
        stream.write(",".join(cells) + "\n")


def write_intervals_csv(rows, model_names, stream):
    stream.write("model,r_lo_m,r_hi_m\n")
    for name in model_names:
        for lo, hi in violation_intervals(rows, name):
            stream.write(f"{name},{csv_cell(lo)},{csv_cell(hi)}\n")
