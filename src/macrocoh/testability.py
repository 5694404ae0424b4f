"""Radius sweeps comparing quantum-theory coherence against collapse models.

For every radius on a grid the sweep evaluates the coherent expansion
distance (CED) predicted by standard decoherence and by each requested
collapse model; a model counts as violated at a radius when its CED falls
short of the quantum-theory one, i.e. the model predicts collapse where
quantum theory still predicts interference.  Contiguous violated runs form
the testable radius intervals.

The sweep works on columns.  The grid is one numpy array, set as the radius
of the scenario's particle, and the same coefficient laws and closed-form
CET that serve a single radius (`collapse`, `decoherence`, `expansion`) fill
one column per law at once; the mass and `Scenario.kinematics` are evaluated
once per column and shared by every law.  Every value equals the
single-radius result bit for bit (`numerics` states the rule that makes it
so), and the CSV texts are built column by column.  A column that raises, or
on which numpy flags a division by zero or an invalid operation, is solved
again radius by radius with Python floats, so each failing cell gets its own
message and a NaN: a radius whose mass or kinematics fail fails only its
row.  A NaN cell that raised nothing gets SILENT_NAN.  numpy is imported by
the functions that build columns, never at module import.
"""

import math
from functools import partial
from operator import attrgetter

from .collapse import (CSL_ADLER, CSL_DEFAULT, CslParams, ModelId, csl_lambda,
                       dp_lambda, k_coherence_cell, k_lambda, qg_lambda)
from .config import csv_text, factory, record
from .decoherence import qm_channel_rates
from .expansion import DecoherenceSpec, ced_or_inf
from .scenario import (PRESET_FILES, load_preset, particle_mass,  # noqa: F401
                       scenario_presets)


@record
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


@record
class SweepConfig:
    radius_min: float
    radius_max: float
    points: int
    scenario: object          # Scenario template; the grid replaces its radius
    models: tuple
    grid: str = "log"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        for name in ("radius_min", "radius_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.radius_min < self.radius_max:
            raise ValueError("need 0 < radius_min < radius_max")
        if self.grid not in ("log", "linear"):
            raise ValueError(f"grid must be 'log' or 'linear', got {self.grid!r}")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ValueError("model names must be unique within a sweep")


@record
class SweepRow:
    """One radius of a sweep; a view of a SweepTable row."""

    radius: float   # m
    mass: float     # kg
    ced_qm: float   # m; math.inf when coherence never decays
    ced_model: dict = factory(dict)   # name -> m (inf/nan allowed)
    violated: dict = factory(dict)    # name -> bool, None if undecided
    errors: dict = factory(dict)      # name (or "qm") -> message


@record
class SweepTable:
    """A solved sweep stored by column, rows in grid order.

    Columns are lists of Python floats.  `violated[name]` holds True or
    False per row, or None where either CED of the row is NaN: a failed cell
    is undecided, never "not violated".  `errors` maps a row index to
    {"qm" or model name: message}.  Indexing and iteration give SweepRow
    views.
    """

    radius: list                  # m
    mass: list                    # kg
    ced_qm: list                  # m
    ced_model: dict               # name -> column of CED (m)
    violated: dict                # name -> column of True/False/None
    errors: dict = factory(dict)

    def __len__(self):
        return len(self.radius)

    def __getitem__(self, index):
        i = range(len(self.radius))[index]
        return SweepRow(
            radius=self.radius[i], mass=self.mass[i], ced_qm=self.ced_qm[i],
            ced_model={name: col[i] for name, col in self.ced_model.items()},
            violated={name: col[i] for name, col in self.violated.items()},
            errors=dict(self.errors.get(i, {})))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.radius)))


def radius_grid(config):
    """The sweep radii as a numpy column, ascending."""
    import numpy as np

    if config.grid == "log":
        return np.geomspace(config.radius_min, config.radius_max, config.points)
    return np.linspace(config.radius_min, config.radius_max, config.points)


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
        cell = k_coherence_cell(particle)
        return DecoherenceSpec(
            quadratic_lambda=k_lambda(particle, cell),
            saturation_separation=cell if model_spec.k_saturation else math.inf)
    if model is ModelId.DP:
        return DecoherenceSpec(quadratic_lambda=dp_lambda(particle),
                               saturation_separation=particle.radius)
    raise ValueError(f"unknown model {model!r}")


def _qm_ced(scenario):
    return ced_or_inf(qm_channel_rates(scenario).as_decoherence_spec(),
                      scenario.kinematics)


def _model_ced(model_spec, scenario):
    return ced_or_inf(model_decoherence_spec(model_spec, scenario.particle),
                      scenario.kinematics)


# the message of a NaN cell whose solve raised nothing
SILENT_NAN = "CED is NaN: a non-finite intermediate value, nothing raised"


def _column(cell, key, column, errors):
    """cell(scenario) over the whole column, or radius by radius with each
    failing cell's first message recorded under `key` in `errors`; a NaN
    cell without a message gets SILENT_NAN."""
    import numpy as np

    radius = column.particle.radius
    try:
        values = np.broadcast_to(cell(column), radius.shape)
    except Exception:
        values = []
        for i, r in enumerate(radius.tolist()):
            try:
                values.append(cell(column.with_radius(r)))
            except Exception as exc:  # recorded per cell, never aborts the sweep
                errors.setdefault(i, {}).setdefault(key, str(exc))
                values.append(math.nan)
        values = np.array(values)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        errors.setdefault(i, {}).setdefault(key, SILENT_NAN)
    return values


def _violation_flags(ced_model, ced_qm):
    """Flags of one model, None where either CED is NaN."""
    import numpy as np

    # inf model CED never violates; inf QM CED dominates any finite model
    flags = (ced_model < ced_qm).tolist()
    for i in np.flatnonzero(np.isnan(ced_model) | np.isnan(ced_qm)).tolist():
        flags[i] = None
    return flags


def _solve(radii, scenario, models):
    """SweepTable of the given radii, each law solved as one column."""
    import numpy as np

    column = scenario.with_radius(np.asarray(radii, dtype=float))
    errors = {}
    with np.errstate(divide="raise", invalid="raise", over="ignore",
                     under="ignore"):
        mass = _column(attrgetter("particle.mass"), "qm", column, errors)
        ced_qm = _column(_qm_ced, "qm", column, errors)
        ced = {spec.name: _column(partial(_model_ced, spec), spec.name,
                                  column, errors)
               for spec in models}
    return SweepTable(
        radius=column.particle.radius.tolist(), mass=mass.tolist(),
        ced_qm=ced_qm.tolist(),
        ced_model={name: values.tolist() for name, values in ced.items()},
        violated={name: _violation_flags(values, ced_qm)
                  for name, values in ced.items()},
        errors=dict(sorted(errors.items())))


def sweep(config):
    """Evaluate every grid radius; a SweepTable in radius order."""
    return _solve(radius_grid(config), config.scenario, config.models)


def evaluate_radius(radius, scenario, models):
    """One sweep row: QM and per-model CED at a single radius."""
    return _solve([radius], scenario, models)[0]


def violation_intervals(table, model_name):
    """Maximal contiguous violated runs as (r_lo, r_hi) pairs at grid
    resolution; an undecided row ends a run like a non-violated one."""
    intervals = []
    start = None
    last = None
    for radius, flag in zip(table.radius, table.violated[model_name]):
        if flag:
            if start is None:
                start = radius
            last = radius
        elif start is not None:
            intervals.append((start, last))
            start = None
    if start is not None:
        intervals.append((start, last))
    return intervals


_FLAG_TEXT = {True: "true", False: "false", None: "nan"}


def write_sweep_csv(table):
    """Text of the sweep CSV, built column by column; floats as their repr."""
    names = list(table.ced_model)
    header = ["radius_m", "mass_kg", "ced_qm_m"]
    header += [f"ced_{name}_m" for name in names]
    header += [f"violated_{name}" for name in names]
    floats = [table.radius, table.mass, table.ced_qm]
    floats += [table.ced_model[name] for name in names]
    cells = [map(repr, values) for values in floats]
    cells += [map(_FLAG_TEXT.__getitem__, table.violated[name])
              for name in names]
    return "\n".join([",".join(header), *map(",".join, zip(*cells)), ""])


def write_intervals_csv(intervals):
    """Text of the intervals CSV of {model name: violation_intervals(...)}."""
    return csv_text(("model", "r_lo_m", "r_hi_m"),
                    [(name, lo, hi) for name, spans in intervals.items()
                     for lo, hi in spans])
