"""Radius sweeps, violation flags and intervals, scenario presets."""

import json
import math
import os
import platform
import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from macrocoh import (CONSTANTS, CSL_ADLER, CslParams, Environment,
                      ExpansionKinematics, InfiniteCoherenceError,
                      csl_lambda, expansion, k_lambda, numerics,
                      qm_channel_rates, scenario_kinematics, testability)
from macrocoh.config import ConfigError, replace
from macrocoh.scenario import Scenario
from macrocoh.testability import (MODEL_PRESETS, PRESET_FILES, SILENT_NAN,
                                  ModelSpec, SweepConfig, SweepRow, SweepTable,
                                  csl_law, evaluate_radius, k_sat_law,
                                  load_preset, model_decoherence_spec,
                                  radius_grid,
                                  scenario_presets, sweep, violation_intervals,
                                  write_intervals_csv, write_sweep_csv)

BASELINE = scenario_presets()["fig2_baseline"]
K_UNDERFLOW = ("K-model coefficient hbar / (8 m a_c^4) divides by zero: "
               "8 m a_c^4 underflows to 0")


def zeroed_scenario():
    return replace(
        BASELINE,
        environment=Environment(temperature=0.0, pressure=0.0,
                                gas_particle_mass=2.0 * CONSTANTS.m_u),
        trap=replace(BASELINE.trap, internal_temperature=0.0))


def test_zero_decoherence_sweep_flags_infinite_ced():
    config = SweepConfig(radius_min=5e-8, radius_max=1e-7, points=2,
                         scenario=zeroed_scenario(), models=())
    rows = sweep(config)
    assert len(rows) == 2
    assert all(math.isinf(row.ced_qm) for row in rows)
    assert all(not row.errors for row in rows)


def test_baseline_sweep_csl_violated_at_reference_radius():
    models = (MODEL_PRESETS["csl"],)
    config = SweepConfig(radius_min=1e-8, radius_max=5e-7, points=25,
                         scenario=BASELINE, models=models)
    rows = sweep(config)
    nearest = min(rows, key=lambda row: abs(row.radius - 9e-8))
    assert nearest.violated["csl"]
    assert csl_lambda(BASELINE.particle) > \
        qm_channel_rates(BASELINE).total_lambda
    intervals = violation_intervals(rows, "csl")
    assert intervals
    assert any(lo <= nearest.radius <= hi for lo, hi in intervals)


def test_rows_match_direct_single_radius_evaluation():
    models = (MODEL_PRESETS["csl"], MODEL_PRESETS["dp"])
    config = SweepConfig(radius_min=3e-8, radius_max=2e-7, points=5,
                         scenario=BASELINE, models=models)
    rows = sweep(config)
    for row in rows:
        direct = evaluate_radius(row.radius, BASELINE, models)
        assert direct == row


def test_sweep_is_a_pure_map_under_permutation():
    models = (MODEL_PRESETS["csl"], MODEL_PRESETS["qg"])
    config = SweepConfig(radius_min=2e-8, radius_max=4e-7, points=8,
                         scenario=BASELINE, models=models)
    ordered = sweep(config)
    shuffled = radius_grid(config)
    random.Random(7).shuffle(shuffled)
    recomputed = sorted((evaluate_radius(r, BASELINE, models)
                         for r in shuffled), key=lambda row: row.radius)
    assert recomputed == list(ordered)


def _ced_alone(spec, kin):
    try:
        return expansion.ced(spec, kin)
    except InfiniteCoherenceError:
        return math.inf


@pytest.mark.parametrize("preset", sorted(PRESET_FILES))
def test_sweep_cells_equal_single_radius_solves(preset):
    # every column cell is bit for bit the scalar solve of its own radius
    scenario = load_preset(preset)
    models = tuple(MODEL_PRESETS.values())
    table = sweep(SweepConfig(radius_min=1e-8, radius_max=5e-7, points=500,
                              scenario=scenario, models=models))
    for i, radius in enumerate(table.radius):
        row = scenario.with_radius(radius)
        mass, x0, v_m = scenario_kinematics(row)
        kin = ExpansionKinematics(x0=x0, v_m=v_m)
        assert table.mass[i] == mass
        assert table.ced_qm[i] == _ced_alone(
            qm_channel_rates(row).as_decoherence_spec(), kin)
        for model in models:
            assert table.ced_model[model.name][i] == _ced_alone(
                model_decoherence_spec(model, row.particle), kin), \
                (model.name, radius)


def test_failing_cells_keep_their_messages_and_stay_undecided():
    # far beyond physical radii K divides by an underflowed cell and r^6
    # overflows: each failing cell is solved alone for its own message, the
    # other cells keep their values, and a NaN cell is never "not violated"
    models = (MODEL_PRESETS["csl"], MODEL_PRESETS["k"], MODEL_PRESETS["dp"])
    table = sweep(SweepConfig(radius_min=1e-7, radius_max=1e60, points=7,
                              scenario=BASELINE, models=models))
    assert list(table.errors) == [3, 4, 5, 6]
    assert table.errors[3] == {"k": K_UNDERFLOW}
    assert list(table.errors[6]) == ["qm", "csl", "k"]
    # the QM CED of row 5 is NaN although nothing raised: it gets a message
    assert math.isnan(table.ced_qm[5])
    assert table.errors[5] == {"qm": SILENT_NAN, "k": K_UNDERFLOW}
    for row in table:
        for name in ("csl", "k", "dp"):
            ced_model, flag = row.ced_model[name], row.violated[name]
            if math.isnan(ced_model) or math.isnan(row.ced_qm):
                assert flag is None
            else:
                assert flag is (ced_model < row.ced_qm)
    assert violation_intervals(table, "k") == [(table.radius[1],
                                                table.radius[2])]
    alone = evaluate_radius(table.radius[4], BASELINE, models)
    assert alone.errors == table.errors[4]
    assert alone.ced_model["dp"] == table.ced_model["dp"][4]
    # with no models the silent QM NaN keeps its message
    bare = sweep(SweepConfig(radius_min=1e-7, radius_max=1e60, points=7,
                             scenario=BASELINE, models=()))
    assert bare.errors[5] == {"qm": SILENT_NAN}
    assert evaluate_radius(table.radius[5], BASELINE, ()).errors == {
        "qm": SILENT_NAN}


def test_a_radius_the_particle_formulas_cannot_take_fails_only_its_row():
    # r^3 underflows to a zero mass at 1e-110 m and overflows at 1e110 m:
    # those rows are NaN with messages under "qm" and every model, and the
    # row between them is the one a single-radius evaluation gives
    models = (MODEL_PRESETS["csl"], MODEL_PRESETS["k"], MODEL_PRESETS["dp"])
    table = sweep(SweepConfig(radius_min=1e-110, radius_max=1e110, points=3,
                              scenario=BASELINE, models=models))
    assert list(table.errors) == [0, 2]
    for i in (0, 2):
        assert list(table.errors[i]) == ["qm", "csl", "k", "dp"]
        assert math.isnan(table.ced_qm[i])
        for name in ("csl", "k", "dp"):
            assert math.isnan(table.ced_model[name][i])
            assert table[i].violated[name] is None
    assert table.mass[0] == 0.0 and math.isnan(table.mass[2])
    assert "mass and trap frequency" in table.errors[0]["qm"]
    assert table.errors[2]["qm"] == "1e+110 ** 3 overflows a float"
    assert table[1] == evaluate_radius(table.radius[1], BASELINE, models)


@pytest.mark.parametrize("points, names, passes", [
    (2000, "csl,csl_adler,qg,k", 30), (200, "dp,k_sat", 20),
    (50, "csl,csl_adler,qg,k,dp,k_sat", 43)])
def test_libm_passes_per_sweep(monkeypatch, points, names, passes):
    # each column evaluates the kinematics once, whatever the model count;
    # SCALAR_CELLS = 0 keeps the 350-cell sweep on columns
    calls = []
    libm = numerics._libm

    def counted(*args):
        calls.append(args[0])
        return libm(*args)

    monkeypatch.setattr(numerics, "_libm", counted)
    monkeypatch.setattr(testability, "SCALAR_CELLS", 0)
    models = tuple(MODEL_PRESETS[name] for name in names.split(","))
    radii = radius_grid(SweepConfig(radius_min=1e-8, radius_max=5e-7,
                                    points=points, scenario=BASELINE,
                                    models=models))
    testability._solve(radii, BASELINE, models)
    assert len(calls) == passes


def test_load_preset_reads_one_file_and_names_the_others():
    assert load_preset("fig3_left") == scenario_presets()["fig3_left"]
    with pytest.raises(ConfigError, match="available: .*fig3_right"):
        load_preset("nope")


def test_violation_antisymmetry_under_stronger_model():
    models = (MODEL_PRESETS["csl"],)
    stronger = (ModelSpec("csl", csl_law(CslParams(lambda0=1e-15))),)  # 10x rate
    for radius in (5e-8, 9e-8, 3e-7):
        row = evaluate_radius(radius, BASELINE, models)
        if row.violated["csl"]:
            boosted = evaluate_radius(radius, BASELINE, stronger)
            assert boosted.violated["csl"]


def _table_from_patterns(**patterns):
    # abstract grid units; None marks an undecided (NaN) cell, and a flag
    # column holds the code of each flag, its index in _FLAGS
    size = len(next(iter(patterns.values())))
    ced = {True: 0.5, False: 2.0, None: math.nan}
    codes = {flag: code for code, flag in enumerate(testability._FLAGS)}
    return SweepTable(radius=array("d", [float(k + 1) for k in range(size)]),
                      mass=array("d", [1.0] * size),
                      ced_qm=array("d", [1.0] * size),
                      ced_model={name: array("d", [ced[flag] for flag in flags])
                                 for name, flags in patterns.items()},
                      violated={name: bytes(codes[flag] for flag in flags)
                                for name, flags in patterns.items()},
                      errors={})


def test_violation_intervals_run_length_logic():
    assert violation_intervals(_table_from_patterns(m=[False, False]), "m") == []
    rows = _table_from_patterns(m=[False, True, True, False, True])
    assert violation_intervals(rows, "m") == [(2.0, 3.0), (5.0, 5.0)]
    # an undecided row breaks a run as a non-violated one does
    undecided = _table_from_patterns(m=[True, None, True, True])
    assert violation_intervals(undecided, "m") == [(1.0, 1.0), (3.0, 4.0)]
    # idempotent and covering exactly the violated rows
    spans = violation_intervals(rows, "m")
    covered = [row.radius for row in rows
               if any(lo <= row.radius <= hi for lo, hi in spans)]
    assert covered == [row.radius for row in rows if row.violated["m"]]


def test_interval_intersection_semantics_across_models():
    # joint testability of two models = rows where both are violated
    rows = _table_from_patterns(a=[False, True, True, True, False],
                                b=[False, False, True, True, True])
    spans_a = violation_intervals(rows, "a")
    spans_b = violation_intervals(rows, "b")
    both = [row.radius for row in rows
            if row.violated["a"] and row.violated["b"]]
    joint = [row.radius for row in rows
             if any(lo <= row.radius <= hi for lo, hi in spans_a)
             and any(lo <= row.radius <= hi for lo, hi in spans_b)]
    assert joint == both == [3.0, 4.0]


def test_infinite_comparisons():
    # finite model CED under an infinite QM CED counts as violated; two
    # infinities do not
    rows = sweep(SweepConfig(radius_min=5e-8, radius_max=1e-7, points=2,
                             scenario=zeroed_scenario(),
                             models=(MODEL_PRESETS["csl"],)))
    assert all(math.isinf(row.ced_qm) for row in rows)
    assert all(row.violated["csl"] for row in rows)

    silent = (ModelSpec("null_csl",
                        csl_law(CslParams(lambda0=1e-300, alpha=1e-280))),)
    row = evaluate_radius(9e-8, zeroed_scenario(), silent)
    assert math.isinf(row.ced_qm) and math.isinf(row.ced_model["null_csl"])
    assert not row.violated["null_csl"]


def test_scenario_presets_carry_cited_values():
    presets = scenario_presets()
    fig2 = presets["fig2_baseline"]
    assert fig2.environment.temperature == 32.0
    assert fig2.environment.pressure == 1e-12
    assert fig2.trap.internal_temperature == 98.0

    fig3_right = presets["fig3_right"]
    assert fig3_right.particle.density == 9680.0
    assert fig3_right.environment.temperature == 12.0

    fig3_left = presets["fig3_left"]
    assert fig3_left.particle.permittivity_trap.imag_part == 2.5e-13
    # identical to the baseline except for the trap-band absorption
    patched = replace(
        fig2.particle, permittivity_trap=fig3_left.particle.permittivity_trap)
    assert patched == fig3_left.particle
    assert fig3_left.environment == fig2.environment
    assert fig3_left.trap == fig2.trap


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(radius_min=1e-8, radius_max=5e-7, points=1,
                    scenario=BASELINE, models=())
    with pytest.raises(ValueError):
        SweepConfig(radius_min=5e-7, radius_max=1e-8, points=5,
                    scenario=BASELINE, models=())
    with pytest.raises(ValueError):
        SweepConfig(radius_min=1e-8, radius_max=5e-7, points=5,
                    scenario=BASELINE, models=(), grid="cubic")
    # the CLI rejects a repeated --models name itself; library callers get this
    with pytest.raises(ValueError, match="model names must be unique"):
        SweepConfig(radius_min=1e-8, radius_max=5e-7, points=5,
                    scenario=BASELINE,
                    models=(MODEL_PRESETS["qg"], MODEL_PRESETS["qg"]))


def test_csv_round_trip_precision_and_layout():
    models = (MODEL_PRESETS["csl"], MODEL_PRESETS["k"])
    rows = sweep(SweepConfig(radius_min=1e-8, radius_max=1e-7, points=3,
                             scenario=BASELINE, models=models))
    lines = write_sweep_csv(rows).splitlines()
    assert lines[0] == ("radius_m,mass_kg,ced_qm_m,ced_csl_m,ced_k_m,"
                        "violated_csl,violated_k")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == rows[0].radius  # repr round-trips exactly
    assert float(first[2]) == rows[0].ced_qm
    assert first[5] in ("true", "false")

    text = write_intervals_csv({name: violation_intervals(rows, name)
                                for name in ("csl", "k")})
    assert text.splitlines()[0] == "model,r_lo_m,r_hi_m"


def test_a_mass_beyond_the_float_range_fails_its_row():
    # r^3 is finite at 1e102 m but (4/3) pi r^3 rho is not: the row writes a
    # NaN mass, and its messages name the mass, not a later step
    with pytest.raises(OverflowError, match="particle mass"):
        BASELINE.with_radius(1e102).particle.mass
    models = (MODEL_PRESETS["qg"], MODEL_PRESETS["dp"])
    table = sweep(SweepConfig(radius_min=1e-7, radius_max=1e102, points=2,
                              scenario=BASELINE, models=models))
    assert list(table.errors) == [1]
    assert math.isnan(table.mass[1]) and math.isnan(table.ced_qm[1])
    assert list(table.errors[1]) == ["qm", "qg", "dp"]
    for message in table.errors[1].values():
        assert message == "particle mass (4/3) pi r^3 rho overflows a float"
    assert table[0] == evaluate_radius(1e-7, BASELINE, models)


def test_sweep_records_take_every_field():
    columns = dict(radius=[], mass=[], ced_qm=[], ced_model={}, violated={})
    with pytest.raises(TypeError, match="SweepTable\\(\\) missing field 'errors'"):
        SweepTable(**columns)
    with pytest.raises(TypeError, match="SweepRow\\(\\) missing field 'ced_model'"):
        SweepRow(1e-7, 1e-17, 1e-8)


@pytest.mark.parametrize("points", [100, 2000])
def test_specs_built_from_laws_equal_their_presets_bit_for_bit(points):
    # qm and two models: 300 cells go radius by radius, 6000 by columns; the
    # range fails whole stretches, so messages are compared too
    built = (ModelSpec("adler", csl_law(CSL_ADLER)),
             ModelSpec("saturated_k", k_sat_law))
    presets = (MODEL_PRESETS["csl_adler"], MODEL_PRESETS["k_sat"])
    assert (3 * points <= testability.SCALAR_CELLS) == (points == 100)
    mine, theirs = (sweep(SweepConfig(radius_min=1e-110, radius_max=1e110,
                                      points=points, scenario=BASELINE,
                                      models=models))
                    for models in (built, presets))
    renamed = {"adler": "csl_adler", "saturated_k": "k_sat", "qm": "qm"}
    assert mine.errors  # the failing stretches are exercised
    assert {i: {renamed[key]: message for key, message in row.items()}
            for i, row in mine.errors.items()} == theirs.errors
    # the CSV writes every float as its round-trip repr
    assert (write_sweep_csv(mine).split("\n", 1)[1]
            == write_sweep_csv(theirs).split("\n", 1)[1])


def _libm_grid(lo, hi, points, grid):
    # numpy's linspace/geomspace operation order, written out on libm, with
    # each inner point clamped into [lo, hi]
    if grid == "linear":
        step = (hi - lo) / (points - 1)
        inner = [i * step + lo for i in range(1, points - 1)]
    else:
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        step = (log_hi - log_lo) / (points - 1)
        inner = [math.pow(10.0, i * step + log_lo)
                 for i in range(1, points - 1)]
    return [lo] + [min(max(r, lo), hi) for r in inner] + [hi]


@given(st.floats(-120.0, 120.0), st.floats(1e-12, 180.0),
       st.integers(2, 3000), st.sampled_from(["log", "linear"]))
@example(32.0, 1e-12, 284, "log")
@example(math.log10(1.0554981866069301e-07),
         math.log10(1.0554981866071171e-07 / 1.0554981866069301e-07),
         227, "log")
def test_radius_grid_is_the_libm_formula(log_lo, decades, points, grid):
    lo = 10.0 ** log_lo
    hi = lo * 10.0 ** decades
    assume(lo < hi)
    radii = radius_grid(SweepConfig(radius_min=lo, radius_max=hi,
                                    points=points, scenario=BASELINE,
                                    models=(), grid=grid))
    expected = _libm_grid(lo, hi, points, grid)
    assert len(radii) == points
    for i, (radius, value) in enumerate(zip(radii, expected)):
        assert type(radius) is float and radius == value, (i, radius, value)
    assert radii == sorted(radii)


NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the disabled features are x86-64 ones")
def test_radius_grid_equals_numpy_without_its_simd_paths():
    # with its SIMD log10 and power disabled, numpy's grid functions call
    # libm in the order radius_grid follows
    rng = random.Random(11)
    cases = [(10.0 ** rng.uniform(-110.0, 60.0), rng.uniform(0.01, 50.0),
              rng.randint(2, 400), rng.choice(["log", "linear"]))
             for _ in range(200)]
    cases = [(lo, lo * 10.0 ** span, n, grid) for lo, span, n, grid in cases]
    script = """
import json, sys
import numpy as np
out = []
for lo, hi, n, grid in json.loads(sys.stdin.read()):
    make = np.geomspace if grid == "log" else np.linspace
    out.append([x.hex() for x in make(lo, hi, n).tolist()])
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          input=json.dumps(cases), capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, **NO_AVX512))
    assert proc.returncode == 0, proc.stderr
    for case, grid in zip(cases, json.loads(proc.stdout), strict=True):
        lo, hi, points, kind = case
        radii = radius_grid(SweepConfig(radius_min=lo, radius_max=hi,
                                        points=points, scenario=BASELINE,
                                        models=(), grid=kind))
        assert [r.hex() for r in radii] == grid, case


def _by_radius_and_by_column(monkeypatch, scenario, lo, hi, points):
    # SCALAR_CELLS = inf sends the whole sweep radius by radius
    models = tuple(MODEL_PRESETS.values())
    radii = radius_grid(SweepConfig(radius_min=lo, radius_max=hi,
                                    points=points, scenario=scenario,
                                    models=models))
    by_column = testability._solve(radii, scenario, models)
    with monkeypatch.context() as patch:
        patch.setattr(testability, "SCALAR_CELLS", math.inf)
        by_radius = testability._solve(radii, scenario, models)
    return by_radius, by_column


@pytest.mark.parametrize("lo, hi", [(1e-8, 5e-7), (1e-110, 1e110),
                                    (1e-7, 1e104)])
@pytest.mark.parametrize("preset", sorted(PRESET_FILES))
def test_scalar_and_column_paths_give_equal_tables(monkeypatch, preset, lo,
                                                   hi):
    # the ranges beyond physical radii fail whole stretches of a column, so
    # the column path halves them down to radius-by-radius parts
    by_radius, by_column = _by_radius_and_by_column(
        monkeypatch, load_preset(preset), lo, hi, 301)
    assert by_radius == by_column
    if lo < 1e-100:
        assert by_column.errors  # the halving is exercised


@pytest.mark.parametrize("lo, hi", [(1e-110, 1e110), (1e-7, 1e104)])
def test_scalar_and_column_paths_give_equal_tables_halved_deep(monkeypatch,
                                                               lo, hi):
    # 2000 radii x 7 keys: leaves of at most 57 radii, 6 halvings down
    sizes = []
    part = testability._part

    def traced(radii, scenario, laws):
        sizes.append(len(radii))
        return part(radii, scenario, laws)

    monkeypatch.setattr(testability, "_part", traced)
    by_radius, by_column = _by_radius_and_by_column(monkeypatch, BASELINE,
                                                    lo, hi, 2000)
    assert by_radius == by_column
    assert min(sizes) < 2000 // 4  # more than two levels of halving


def _cell_rows(monkeypatch):
    """The row count of each `_cells` call from now on, a law solved radius
    by radius over that many rows."""
    sizes = []
    cells = testability._cells

    def traced(cell, rows):
        sizes.append(len(rows))
        return cells(cell, rows)

    monkeypatch.setattr(testability, "_cells", traced)
    return sizes


def test_row_views_and_intervals_give_python_values_on_both_paths(
        monkeypatch):
    # the column solve, first, goes radius by radius only on the leaves of
    # its failing stretches; the radius solve gives its 8 laws the whole grid
    sizes = _cell_rows(monkeypatch)
    tables = _by_radius_and_by_column(monkeypatch, BASELINE, 1e-7, 1e104,
                                      2000)
    assert max(sizes[:-8]) < 2000 and sizes[-8:] == [2000] * 8
    for table in tables:
        kinds, flags = set(), set()
        for row in table:
            cells = [row.radius, row.mass, row.ced_qm, *row.ced_model.values()]
            assert {type(cell) for cell in cells} == {float}
            kinds.update(map(type, row.violated.values()))
            flags.update(row.violated.values())
        assert kinds == {bool, type(None)} and flags == {True, False, None}
        spans = [violation_intervals(table, name) for name in MODEL_PRESETS]
        assert any(spans)
        for lo, hi in (span for model in spans for span in model):
            assert type(lo) is float and type(hi) is float and lo <= hi
    assert ([violation_intervals(tables[0], name) for name in MODEL_PRESETS]
            == [violation_intervals(tables[1], name) for name in MODEL_PRESETS])


def test_tables_compare_column_by_column(monkeypatch):
    # a table solved by columns, with no failing cell, equals one solved
    # radius by radius; doubling a column makes it unequal
    sizes = _cell_rows(monkeypatch)
    config = SweepConfig(radius_min=1e-8, radius_max=5e-7, points=301,
                         scenario=BASELINE, models=tuple(MODEL_PRESETS.values()))
    table = sweep(config)
    assert sizes == [] and not table.errors
    assert table == sweep(config)
    by_radius, _ = _by_radius_and_by_column(monkeypatch, BASELINE, 1e-8, 5e-7,
                                            301)
    assert sizes == [301] * 8 and by_radius == table
    doubled = array("d", [2.0 * ced for ced in table.ced_qm])
    assert replace(table, ced_qm=doubled) != table


def test_tables_with_nan_cells_are_equal_bit_for_bit(monkeypatch):
    # 2000 radii x all six models over 1e-7 to 1e104 m fail most rows with
    # NaN cells: a table still equals itself and a new solve, on both paths
    config = SweepConfig(radius_min=1e-7, radius_max=1e104, points=2000,
                         scenario=BASELINE, models=tuple(MODEL_PRESETS.values()))
    table = sweep(config)
    assert len(table.errors) > 1000 and math.isnan(table.ced_qm[-1])
    assert table == table and table == sweep(config)
    by_radius, by_column = _by_radius_and_by_column(monkeypatch, BASELINE,
                                                    1e-7, 1e104, 2000)
    assert by_radius == by_radius and by_radius == by_column == table
    with monkeypatch.context() as patch:
        patch.setattr(testability, "SCALAR_CELLS", math.inf)
        assert sweep(config) == by_radius
    # one CED a bit off, or -0.0 in place of 0.0, makes a table unequal
    ced = array("d", table.ced_model["csl"])
    ced[0] = math.nextafter(ced[0], math.inf)
    assert replace(table, ced_model={**table.ced_model, "csl": ced}) != table
    zero, minus_zero = array("d", table.mass), array("d", table.mass)
    zero[0], minus_zero[0] = 0.0, -0.0
    assert replace(table, mass=zero) != replace(table, mass=minus_zero)
    # one format on both paths: array('d') floats and bytes of flag codes
    for one in (by_radius, by_column):
        floats = [one.radius, one.mass, one.ced_qm, *one.ced_model.values()]
        assert {(type(c), c.typecode) for c in floats} == {(array, "d")}
        assert {type(c) for c in one.violated.values()} == {bytes}


def test_sweeps_choose_their_path_by_cell_count(monkeypatch):
    calls = []
    part, cells = testability._part, testability._cells

    def traced_part(radii, scenario, laws):
        calls.append(["by column", len(radii), len(laws) - 2])
        return part(radii, scenario, laws)

    def traced_cells(cell, rows):
        calls[-1][0] = "by radius"
        return cells(cell, rows)

    monkeypatch.setattr(testability, "_part", traced_part)
    monkeypatch.setattr(testability, "_cells", traced_cells)
    for points, names in ((50, "csl,qg,k,dp"), (200, "dp,k_sat"),
                          (200, "csl"), (201, "k")):
        models = tuple(MODEL_PRESETS[n] for n in names.split(","))
        sweep(SweepConfig(radius_min=1e-8, radius_max=5e-7, points=points,
                          scenario=BASELINE, models=models))
    evaluate_radius(1e-7, BASELINE, tuple(MODEL_PRESETS.values()))
    assert testability.SCALAR_CELLS == 400
    assert calls == [["by radius", 50, 4], ["by column", 200, 2],
                     ["by radius", 200, 1], ["by column", 201, 1],
                     ["by radius", 1, 6]]


def test_a_failing_stretch_builds_each_radius_once(monkeypatch):
    # the laws that fail on a part go down its halves together, so the
    # single-radius scenarios of a leaf serve every law in it
    built = []
    with_radius = Scenario.with_radius

    def traced(self, radius):
        if not numerics.is_column(radius):
            built.append(radius)
        return with_radius(self, radius)

    monkeypatch.setattr(Scenario, "with_radius", traced)
    table = sweep(SweepConfig(radius_min=1e-7, radius_max=1e104, points=2000,
                              scenario=BASELINE,
                              models=tuple(MODEL_PRESETS.values())))
    assert len(table.errors) > 1000
    assert len(built) >= len(table.errors)
    assert len(set(built)) == len(built)


def test_a_law_whose_column_solves_never_goes_by_radius(monkeypatch):
    # on 1e-8 to 1e26 m only K's coefficient underflows, at the large radii
    by_radius = set()
    cells = testability._cells

    def traced(cell, rows):
        by_radius.add(cell.args[0].name if hasattr(cell, "args") else "qm")
        return cells(cell, rows)

    monkeypatch.setattr(testability, "_cells", traced)
    table = sweep(SweepConfig(radius_min=1e-8, radius_max=1e26, points=2000,
                              scenario=BASELINE,
                              models=tuple(MODEL_PRESETS.values())))
    assert by_radius == {"k", "k_sat"}
    assert {key for row in table.errors.values() for key in row} == by_radius


@pytest.mark.parametrize("lo, hi, row, shown", [
    (1e-110, 1e110, 4, "4.642e+36"), (1e-7, 1e60, 6, "1.000e+60")])
def test_an_underflowed_k_denominator_names_the_law(lo, hi, row, shown):
    # a_c^4 underflows at these radii, so 8 m a_c^4 is 0
    models = (MODEL_PRESETS["k"], MODEL_PRESETS["k_sat"])
    config = SweepConfig(radius_min=lo, radius_max=hi, points=7,
                         scenario=BASELINE, models=models)
    radius = radius_grid(config)[row]
    assert f"{radius:.3e}" == shown
    particle = BASELINE.with_radius(radius).particle
    with pytest.raises(ZeroDivisionError) as exc:
        k_lambda(particle)
    assert str(exc.value) == K_UNDERFLOW
    errors = sweep(config).errors[row]
    assert errors["k"] == errors["k_sat"] == K_UNDERFLOW


@pytest.mark.parametrize("name", ["radius_min", "radius_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sweep_config_names_a_non_finite_bound(name, value):
    bounds = {"radius_min": 1e-8, "radius_max": 5e-7, name: value}
    with pytest.raises(ValueError) as exc:
        SweepConfig(**bounds, points=5, scenario=BASELINE, models=())
    assert str(exc.value) == f"{name} must be finite"
