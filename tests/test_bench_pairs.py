"""The summary step of tools/bench_pairs.py on fixed run records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"latency_s": "lower", "cells_per_s": "higher"}


def record(pair, side, latency, cells, failed=0, correct=True, exit=0,
           workload="sweep_saturated", seed=1):
    final = {"correct": correct, "attempted": 100, "failed": failed,
             "metrics": {"latency_s": {"value": latency, "unit": "s"},
                         "cells_per_s": {"value": cells, "unit": "1/s"}}}
    return {"workload": workload, "seed": seed, "pair": pair,
            "first": "parent" if pair % 2 == 0 else "change", "side": side,
            "exit": exit, "final_line": final}


RUNS = [
    record(0, "parent", 4.0, 100.0), record(0, "change", 3.0, 130.0),
    record(1, "change", 2.0, 120.0), record(1, "parent", 5.0, 90.0),
    record(2, "parent", 6.0, 110.0), record(2, "change", 7.0, 105.0, failed=3),
    record(3, "parent", 8.0, 80.0), record(3, "change", 1.0, 150.0),
    record(4, "parent", 1.0, 1.0),  # no change side: not a pair
    record(0, "parent", 1.0, 10.0, seed=2), record(0, "change", 1.0, 10.0, seed=2),
    record(1, "parent", 1.0, 10.0, seed=2),
    {**record(1, "change", 1.0, 10.0, seed=2), "exit": 1, "final_line": None},
]


def test_summary_per_workload_and_seed():
    summary = bench_pairs.summarize(RUNS, BETTER)
    assert sorted(summary) == ["sweep_saturated/seed1", "sweep_saturated/seed2"]
    one = summary["sweep_saturated/seed1"]
    assert one["pairs"] == 4
    assert one["failed"] == {"parent": 0, "change": 3}
    assert one["correct"] == {"parent": True, "change": True}
    latency = one["latency_s"]
    assert latency["better"] == "lower"
    # inclusive quartiles of 4, 5, 6, 8 and of 1, 2, 3, 7
    assert latency["parent"] == {"median": 5.5, "q1": 4.75, "q3": 6.5, "n": 4}
    assert latency["change"] == {"median": 2.5, "q1": 1.75, "q3": 4.0, "n": 4}
    assert latency["change_over_parent"] == pytest.approx(2.5 / 5.5)
    assert latency["change_wins"] == 3
    cells = one["cells_per_s"]
    assert cells["better"] == "higher"
    assert cells["parent"]["median"] == 95.0
    assert cells["change"]["median"] == 125.0
    assert cells["change_wins"] == 3


def test_summary_marks_a_failed_run_and_skips_its_metrics():
    two = bench_pairs.summarize(RUNS, BETTER)["sweep_saturated/seed2"]
    assert two["pairs"] == 2
    assert two["correct"] == {"parent": True, "change": False}
    # one pair with both values is too few for quartiles
    assert "latency_s" not in two


def test_summary_counts_a_tie_as_no_win():
    runs = [record(pair, side, 1.0, 10.0) for pair in range(3)
            for side in ("parent", "change")]
    summary = bench_pairs.summarize(runs, BETTER)["sweep_saturated/seed1"]
    assert summary["latency_s"]["change_wins"] == 0
    assert summary["cells_per_s"]["change_wins"] == 0
    assert summary["latency_s"]["change_over_parent"] == 1.0


def test_a_metric_is_resolved_by_ten_pairs_within_its_bound():
    # parent latencies with inclusive quartiles 0.96 and 1.04 around a
    # median of 1.0, an 8 % spread; cells per second 0.08 / 101
    spread = [0.9, 0.96, 0.96, 0.96, 0.96, 1.0, 1.04, 1.04, 1.04, 1.04, 1.1]
    runs = [record(pair, side, value, 100.0 + value, seed=seed)
            for seed, pairs in ((1, 11), (2, 9)) for pair in range(pairs)
            for side, value in (("parent", spread[pair]), ("change", 0.5))]
    bounds = {"latency_s": 0.1, "cells_per_s": 0.0005}
    eleven, nine = (bench_pairs.summarize(runs, BETTER, bounds)[key]
                    for key in ("sweep_saturated/seed1", "sweep_saturated/seed2"))
    latency = eleven["latency_s"]["parent"]
    assert (latency["q1"], latency["median"], latency["q3"]) == \
        pytest.approx((0.96, 1.0, 1.04))
    assert eleven["latency_s"]["resolved"] is True
    assert eleven["cells_per_s"]["resolved"] is False  # 0.08 / 101 > 0.0005
    # nine pairs are too few, however they win
    assert nine["latency_s"]["parent"]["n"] == 9
    assert nine["latency_s"]["change_wins"] == 9
    assert nine["latency_s"]["resolved"] is False
    # a metric without a bound is resolved by its pair count alone
    loose = bench_pairs.summarize(runs, BETTER)
    assert loose["sweep_saturated/seed1"]["cells_per_s"]["resolved"] is True
    assert loose["sweep_saturated/seed2"]["cells_per_s"]["resolved"] is False


def test_src_lines_counts_python_files_under_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("\n\nlast line without a newline")
    (package / "data.yaml").write_text("not: python\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("outside src\n")
    # as wc -l: newlines, so a last line without one does not count
    assert bench_pairs.src_lines(tmp_path) == 5
