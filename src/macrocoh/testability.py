"""Radius sweeps comparing quantum-theory coherence against collapse models.

For every radius on a grid the sweep evaluates the coherent expansion
distance (CED) predicted by standard decoherence and by each requested
collapse model; a model counts as violated at a radius when its CED falls
short of the quantum-theory one, i.e. the model predicts collapse where
quantum theory still predicts interference.  Contiguous violated runs form
the testable radius intervals.

The grid is built in pure Python on libm (`radius_grid`), in numpy's own
operation order, so it is the same on every host.  One recursion solves the
laws of a sweep (mass, QM CED, each model's CED).  A part of at most
SCALAR_CELLS cells goes radius by radius on Python floats and never imports
numpy; that covers the CLI default (50 radii x 4 models) and
`evaluate_radius`.  A larger part works on columns: its radii become one
numpy array, set as the radius of the scenario's particle, and the same
coefficient laws and closed-form CET that serve a single radius
(`collapse`, `decoherence`, `expansion`) fill one column per law at once,
and the table keeps the columns until they become text (SweepTable); the
mass and `Scenario.kinematics` are evaluated once per column.  The laws
whose column raises, or on which numpy flags a division by zero or an
invalid operation, go down together into the two halves of the part, so
each failing cell gets its own message and a NaN, and a radius whose mass
or kinematics fail fails only its row.  Every value equals the single-radius
result bit for bit (`numerics` states the rule that makes it so), so every
split gives the same table.  A NaN cell that raised nothing gets SILENT_NAN.

The sweep CSV (`write_sweep_csv`) writes every float as its repr.  A table
of fewer than KERNEL_FLOATS float cells is written by repr itself, a larger
one by the numpy kernel of `reprtext`, which gives the same bytes.
"""

import math
import re
from functools import partial
from operator import attrgetter

from .collapse import (CSL_ADLER, CSL_DEFAULT, csl_law, dp_law, k_law,
                       k_sat_law, qg_law)
from .config import csv_text, record
from .decoherence import qm_channel_rates
from .expansion import ced_or_inf
from .numerics import is_column
from .scenario import PRESET_FILES, load_preset, scenario_presets  # noqa: F401


@record
class ModelSpec:
    """A collapse model under the name its sweep columns carry: `law(particle)`
    gives the model's DecoherenceSpec, as each law of `collapse` does.  Two
    parameterizations of one model ride one sweep under two names, as
    ModelSpec("adler", csl_law(CSL_ADLER)) beside MODEL_PRESETS["csl"]."""

    name: str
    law: object   # particle -> DecoherenceSpec

    def __post_init__(self):
        if not callable(self.law):
            raise ValueError(f"model spec {self.name!r}: law must be callable, "
                             f"got {type(self.law).__name__}")


MODEL_PRESETS = {
    "csl": ModelSpec("csl", csl_law(CSL_DEFAULT)),
    "csl_adler": ModelSpec("csl_adler", csl_law(CSL_ADLER)),
    "qg": ModelSpec("qg", qg_law),
    "k": ModelSpec("k", k_law),
    "k_sat": ModelSpec("k_sat", k_sat_law),
    "dp": ModelSpec("dp", dp_law),
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


_FLAGS = (True, False, None)  # the flag of each code of a flag column
_FLAG_WORDS = ("true", "false", "nan")  # and its text in the sweep CSV


@record
class SweepRow:
    """One radius of a sweep; a view of a SweepTable row."""

    radius: float   # m
    mass: float     # kg
    ced_qm: float   # m; math.inf when coherence never decays
    ced_model: dict   # name -> m (inf/nan allowed)
    violated: dict    # name -> bool, None if undecided
    errors: dict      # name (or "qm") -> message


@record
class SweepTable:
    """A solved sweep stored by column, rows in grid order.

    `radius` is a list of Python floats.  The other columns are lists in a
    table solved radius by radius and numpy arrays in one solved by columns:
    float64 for the floats, uint8 for the flags.  A flag column holds a code
    per row, an index into _FLAGS: undecided where either CED of the row is
    NaN, a failed cell being never "not violated".  `errors` maps a row index
    to {"qm" or model name: message}.  Indexing and iteration give SweepRow
    views of Python floats and True/False/None, and two tables are equal
    when their row views are.
    """

    radius: list                  # m
    mass: object                  # kg; list or float64 array
    ced_qm: object                # m; list or float64 array
    ced_model: dict               # name -> column of CED (m)
    violated: dict                # name -> column of flag codes
    errors: dict

    def __len__(self):
        return len(self.radius)

    def __getitem__(self, index):
        i = range(len(self.radius))[index]
        return SweepRow(
            radius=self.radius[i], mass=float(self.mass[i]),
            ced_qm=float(self.ced_qm[i]),
            ced_model={name: float(col[i]) for name, col in self.ced_model.items()},
            violated={name: _FLAGS[col[i]] for name, col in self.violated.items()},
            errors=dict(self.errors.get(i, {})))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.radius)))

    def __eq__(self, other):
        # by row views: an array column has no truth value to give
        if other.__class__ is not self.__class__:
            return NotImplemented
        return list(self) == list(other)


def radius_grid(config):
    """The sweep radii as a list of Python floats, non-decreasing and inside
    [radius_min, radius_max].

    numpy's `linspace` and `geomspace` in their own operation order, on
    libm, so the grid is the same on every host: y_i = i*step + lo with
    step = (hi - lo)/(n - 1), the first point lo and the last hi.  A log
    grid takes lo and hi as math.log10 of the bounds and maps each inner
    point to 10.0 ** y_i; its ends are the bounds themselves.  Each inner
    point is clamped into the bounds: on a narrow log grid the rounding of
    the logarithms can put 10.0 ** y_i past a bound, which numpy allows.
    """
    r_min, r_max, n = config.radius_min, config.radius_max, config.points
    lo, hi = r_min, r_max
    if config.grid == "log":
        lo, hi = math.log10(lo), math.log10(hi)
    step = (hi - lo) / (n - 1)
    inner = [i * step + lo for i in range(1, n - 1)]
    if config.grid == "log":
        inner = [10.0 ** y for y in inner]
    inner = [r_min if r < r_min else r_max if r > r_max else r for r in inner]
    return [r_min, *inner, r_max]


def model_decoherence_spec(model_spec, particle):
    """DecoherenceSpec carrying only the given collapse model's law."""
    return model_spec.law(particle)


def _qm_ced(scenario):
    return ced_or_inf(qm_channel_rates(scenario).as_decoherence_spec(),
                      scenario.kinematics)


def _model_ced(model_spec, scenario):
    return ced_or_inf(model_spec.law(scenario.particle), scenario.kinematics)


# the message of a NaN cell whose solve raised nothing
SILENT_NAN = "CED is NaN: a non-finite intermediate value, nothing raised"

# A part of a sweep of at most this many cells, radii x the errors keys of
# its laws (1 + models for a whole sweep), is solved radius by radius, a
# larger one by columns.  On a 2-vCPU x86-64 VM a cell takes about 20 us by
# radius and 2-5 us in a column, and importing numpy takes 170-210 ms.  So a
# fresh process gains below several thousand cells, while a caller that
# already has numpy loses 15-18 us per cell: about 6 ms at 400 cells, a few
# per cent of the import.
SCALAR_CELLS = 400


def _laws(models):
    """(errors key, cell) of each column of a sweep, in table order: the
    mass, the QM CED, then each model's CED."""
    return [("qm", attrgetter("particle.mass")), ("qm", _qm_ced),
            *((spec.name, partial(_model_ced, spec)) for spec in models)]


def _cells(cell, rows):
    """cell(row) of each single-radius scenario of `rows`, and the message
    that a NaN there carries: the text of what it raised, else SILENT_NAN."""
    values, messages = [], []
    for row in rows:
        try:
            value, message = cell(row), SILENT_NAN
        except Exception as exc:  # recorded per cell, never aborts the sweep
            value, message = math.nan, str(exc)
        values.append(value)
        messages.append(message)
    return values, messages


def _part(radii, scenario, laws):
    """(values, messages) of each of `laws` over `radii`, as `_cells` gives
    them, the values as numpy columns where the part went by columns.  A part
    of one radius or of at most SCALAR_CELLS cells goes radius by radius, one
    single-radius scenario per radius serving all its laws, so no radius is
    built twice.  A larger part solves each law as one numpy column; the laws
    whose column raises are solved again, together, on its two halves."""
    keys = {key for key, _ in laws}
    if len(radii) == 1 or len(radii) * len(keys) <= SCALAR_CELLS:
        rows = list(map(scenario.with_radius, radii))
        return [_cells(cell, rows) for _, cell in laws]
    import numpy as np

    column = scenario.with_radius(np.array(radii))
    solved, failed = {}, []
    with np.errstate(divide="raise", invalid="raise", over="ignore",
                     under="ignore"):
        for law in laws:
            try:
                solved[law] = (np.broadcast_to(law[1](column), len(radii)),
                               [SILENT_NAN] * len(radii))
            except Exception:  # solved again on the halves
                failed.append(law)
    if failed:
        half = len(radii) // 2
        for law, low, high in zip(failed, _part(radii[:half], scenario, failed),
                                  _part(radii[half:], scenario, failed)):
            solved[law] = np.concatenate((low[0], high[0])), low[1] + high[1]
    return [solved[law] for law in laws]


def _solve(radii, scenario, models):
    """SweepTable of the given radii.  A NaN cell records its message under
    its errors key, the first per key and row.  A model's flag is None where
    either CED is NaN, else model CED < QM CED, so an inf model CED never
    violates and an inf QM CED dominates any finite model; its codes index
    _FLAGS."""
    radii = list(map(float, radii))
    laws = _laws(models)
    parts = _part(radii, scenario, laws)
    columns = [values for values, _ in parts]
    if is_column(columns[0]):
        import numpy as np

        undecided = [np.isnan(values) for values in columns]
        nans = [np.flatnonzero(mask).tolist() for mask in undecided]
        flags = [np.where(mask | undecided[1], np.uint8(2), values >= columns[1])
                 for values, mask in zip(columns[2:], undecided[2:])]
    else:
        nans = [[i for i, value in enumerate(values) if value != value]
                for values in columns]
        flags = [[2 if m != m or q != q else int(m >= q)
                  for m, q in zip(values, columns[1])] for values in columns[2:]]
    errors = {}
    for (key, _), (_, messages), rows in zip(laws, parts, nans):
        for i in rows:
            errors.setdefault(i, {}).setdefault(key, messages[i])
    mass, ced_qm, *ced = columns
    names = [spec.name for spec in models]
    return SweepTable(
        radius=radii, mass=mass, ced_qm=ced_qm,
        ced_model=dict(zip(names, ced)), violated=dict(zip(names, flags)),
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
    # the runs of code 0 in the flag column, a byte per row as uint8 codes
    runs = re.finditer(b"\0+", bytes(table.violated[model_name]))
    return [(table.radius[run.start()], table.radius[run.end() - 1])
            for run in runs]


# A sweep CSV of at least this many float cells, radii x (3 + models), is
# written by the numpy kernel of `reprtext`, a smaller one by repr; both
# give the same bytes.  On a 2-vCPU x86-64 VM with numpy loaded (process
# CPU, medians of 40 alternating calls, three rounds, on a column table),
# repr took 0.82-0.98 ms for 1,001 floats, 3.3-3.7 ms for 4,004 and
# 11.7-12.2 ms for 14,000, the kernel 0.46-0.62, 1.8-1.9 and 5.0-5.2 ms.
# A process first pays 6-7 ms to compile and import the kernel and fault in
# its numpy loops: a first call took 9.0 ms against repr's 6.0 at 4,004
# floats, 15.6 against 15.9 at 10,003 and 22.2 against 24.3 at 14,000
# (medians of 11 fresh processes).  So a process that writes one sweep loses
# at most about 3 ms below 10,000 floats, one that writes several gains from
# about 1,000, and a small sweep (200 radii x 2 models is 1,000 floats)
# never loads the kernel nor the 0.6 MB it adds to the resident memory.
KERNEL_FLOATS = 4000


def write_sweep_csv(table):
    """Text of the sweep CSV, built column by column; floats as their repr.
    A table of at least KERNEL_FLOATS float cells has its text written by
    `reprtext.csv_rows`, byte for byte what repr gives, a smaller one by
    repr itself."""
    names = list(table.ced_model)
    header = ["radius_m", "mass_kg", "ced_qm_m"]
    header += [f"ced_{name}_m" for name in names]
    header += [f"violated_{name}" for name in names]
    floats = [table.radius, table.mass, table.ced_qm]
    floats += [table.ced_model[name] for name in names]
    flags = [table.violated[name] for name in names]
    if len(floats) * len(table) >= KERNEL_FLOATS:
        from .reprtext import csv_rows

        return csv_rows(header, floats, flags, _FLAG_WORDS)
    lists = [c.tolist() if is_column(c) else c for c in floats + flags]
    cells = [map(repr, values) for values in lists[:len(floats)]]
    cells += [map(_FLAG_WORDS.__getitem__, codes) for codes in lists[len(floats):]]
    return "\n".join([",".join(header), *map(",".join, zip(*cells)), ""])


def write_intervals_csv(intervals):
    """Text of the intervals CSV of {model name: violation_intervals(...)}."""
    return csv_text(("model", "r_lo_m", "r_hi_m"),
                    [(name, lo, hi) for name, spans in intervals.items()
                     for lo, hi in spans])
