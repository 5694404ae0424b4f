"""Tests of the benchmark itself: oracle, checkers and tiny smoke runs.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run as bench  # noqa: E402

from macrocoh import expansion  # noqa: E402
from macrocoh.cli import main as cli_main  # noqa: E402
from macrocoh.testability import scenario_presets  # noqa: E402


def random_saturated_law(rng):
    x0 = 10.0 ** rng.uniform(-13, -10)
    v = 10.0 ** rng.uniform(-9, -5)
    lam = 10.0 ** rng.uniform(8, 22)
    f_c = rng.choice([0.0, 10.0 ** rng.uniform(-6, 0)])
    b = 2.0 * x0 * 10.0 ** rng.uniform(-0.5, 4)
    return lam, f_c, x0, v, b


def test_oracle_matches_program_quadrature_on_random_saturated_laws():
    rng = random.Random(20261018)
    for _ in range(40):
        lam, f_c, x0, v, b = random_saturated_law(rng)
        tau = oracle.cet(lam, f_c, x0, v, b)
        spec = expansion.DecoherenceSpec(
            constant_rate=f_c,
            general_rate=lambda dx, lam=lam, b=b: lam * min(dx, b) ** 2,
            general_breakpoints=(b,))
        kin = expansion.ExpansionKinematics(x0=x0, v_m=v)
        assert 4.0 * expansion.gamma_quadrature(tau, spec, kin) == \
            pytest.approx(1.0, rel=1e-7)


def test_oracle_cubic_matches_four_gamma():
    rng = random.Random(7)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-5, 25)
        f_c = rng.choice([0.0, 10.0 ** rng.uniform(-8, 3)])
        x0 = 10.0 ** rng.uniform(-13, -9)
        v = 10.0 ** rng.uniform(-9, -3)
        tau = oracle.cet(lam, f_c, x0, v)
        assert oracle.four_gamma(tau, lam, f_c, x0, v) == pytest.approx(1.0, rel=1e-13)


def test_oracle_flags_the_bracketing_window():
    # a constant rate with the closed-form root 7e8 s lies in the fault window
    tau = oracle.cet(0.0, 1.0 / (4.0 * 7e8), 1e-12, 1e-6)
    assert tau == pytest.approx(7e8, rel=1e-15)
    assert oracle.FAULT_TAU_LO < tau <= oracle.TAU_CAP


def sweep_files(tmp_path, models=("csl", "k", "dp"), points=40):
    out = tmp_path / "s.csv"
    code = cli_main(["testability", "--points", str(points), "--models",
                     ",".join(models), "--out", str(out)])
    assert code == 0
    radii = [float(r) for r in np.geomspace(1e-8, 5e-7, points)]
    expect = oracle.expect_sweep(scenario_presets()["fig2_baseline"], radii,
                                 list(models))
    intervals = Path(str(out) + ".intervals.csv")
    return out.read_text(), intervals.read_text(), expect


def test_checker_accepts_program_output(tmp_path, capsys):
    text, intervals, expect = sweep_files(tmp_path)
    problems, cells, failed, faults = oracle.check_sweep_csv(text, intervals, expect)
    assert problems == []
    assert cells == 40 * 4
    assert failed == len(faults)


def corrupt_cell(text, row, col, fn):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("col, fn", [
    (2, lambda s: repr(float(s) * (1.0 + 1e-6))),     # ced_qm off by 1e-6
    (3, lambda s: repr(float(s) * 0.5)),               # ced_csl halved
    (1, lambda s: repr(float(s) * 1.01)),              # mass
    (7, lambda s: "true" if s == "false" else "false"),  # a violation flag
])
def test_checker_rejects_a_corrupted_cell(tmp_path, capsys, col, fn):
    text, intervals, expect = sweep_files(tmp_path)
    bad = corrupt_cell(text, 30, col, fn)
    problems, _, _, _ = oracle.check_sweep_csv(bad, intervals, expect)
    assert problems


def test_checker_rejects_a_shortened_interval(tmp_path, capsys):
    text, intervals, expect = sweep_files(tmp_path)
    lines = intervals.splitlines()
    assert len(lines) > 1
    name, lo, hi = lines[1].split(",")
    lines[1] = ",".join([name, lo, repr(float(hi) * 0.99)])
    problems, _, _, _ = oracle.check_sweep_csv(text, "\n".join(lines) + "\n", expect)
    assert problems


def test_report_checkers_reject_corruption(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli_main(["decoherence-report", "--out", str(out)]) == 0
    text = out.read_text()
    assert oracle.check_decoherence_report(text) == []
    for old, new in (("visibility_at_cet,0.367", "visibility_at_cet,0.368"),
                     ("\ncet,0.022", "\ncet,0.023")):
        assert old in text
        assert oracle.check_decoherence_report(text.replace(old, new))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_each_workload(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--points", "12", "--setup-samples", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    for name in ("setup_s", "latency_s", "cells_per_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0
        assert not math.isnan(result["metrics"][name]["value"])


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_saturated", "--seed", "3",
         "--seconds", "0", "--points", "6", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_program_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "cli_reports",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
