"""Every program name the committed bench (`bench/`) reads still resolves.

The bench is frozen while a change is measured against it, and several of
its probes look a name up with a default and then read 0 rather than fail.
So a renamed or removed name would pass the bench unseen; this test fails
on it instead.
"""

import importlib

import pytest

BENCH_NAMES = {
    "cli": ["main", "build_parser", "atomic_write_text", "write_manifest"],
    "testability": ["scenario_presets", "MODEL_PRESETS", "model_decoherence_spec",
                    "sweep", "write_sweep_csv", "write_intervals_csv",
                    "violation_intervals"],
    "scenario": ["load_scenario", "scenario_kinematics"],
    "decoherence": ["qm_channel_rates"],
    "collapse": ["CSL_DEFAULT", "CSL_ADLER", "csl_lambda", "qg_lambda",
                 "k_lambda", "k_coherence_cell", "dp_lambda"],
    "expansion": ["ExpansionKinematics", "InfiniteCoherenceError", "solve_cet",
                  "cet_closed_form", "gamma", "gamma_quadrature",
                  "DecoherenceSpec"],
    "vacuum": ["load_materials"],
    "mission": ["load_orbit", "load_budgets"],
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in BENCH_NAMES.items() for name in names
], ids=lambda value: value)
def test_a_name_the_bench_reads_resolves(module, name):
    assert hasattr(importlib.import_module(f"macrocoh.{module}"), name)


def test_decoherence_spec_keeps_the_general_rate_fields():
    from macrocoh.expansion import DecoherenceSpec

    spec = DecoherenceSpec(constant_rate=1.0,
                           general_rate=lambda dx: 2.0 * min(dx, 3.0) ** 2,
                           general_breakpoints=(3.0,))
    assert spec.general_breakpoints == (3.0,) and spec.general_rate(4.0) == 18.0
