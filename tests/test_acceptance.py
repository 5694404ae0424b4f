"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion together with the measured numbers.
"""

import math
import time

import numpy as np

from macrocoh import (DecoherenceSpec, ExpansionKinematics, altitude_window,
                      bake_out_power, budget_check, cet_closed_form,
                      collision_rate, csl_lambda, csl_shape,
                      dilution_from_patch, dp_rate, gamma,
                      bb_emit_lambda, load_budgets, load_materials, local_gravity,
                      orbital_period, qm_channel_rates, solve_cet, steady_state)
from macrocoh.expansion import gamma_quadrature
from macrocoh.mission import OrbitElements
from macrocoh.testability import (MODEL_PRESETS, SweepConfig, evaluate_radius,
                                  model_decoherence_spec, scenario_presets,
                                  sweep, write_sweep_csv)
from macrocoh.vacuum import MBAR
from spectrum_oracle import emission_spectrum


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_outgassing_summary_reproduction():
    t0 = time.perf_counter()
    temperature, _, summaries, _ = load_materials()
    expected = {
        "cfrp": (603.0, 7.1e-10, 1.7e13),
        "kapton": (113.0, 1.3e-10, 3.0e12),
        "adhesives": (3896.0, 4.4e-9, 1.08e14),
    }
    worst_coll = worst_p = worst_n = 0.0
    for name, (coll_ref, p_ref, n_ref) in expected.items():
        row = summaries[name]
        state = steady_state(row.gamma0, temperature, row.species_mass)
        coll = collision_rate(row.gamma0, 200e-9)
        worst_coll = max(worst_coll, abs(coll / coll_ref - 1.0))
        worst_p = max(worst_p, abs(state.pressure / MBAR / p_ref - 1.0))
        worst_n = max(worst_n, abs(state.number_density / n_ref - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_coll <= 0.01 and worst_p <= 0.10 and worst_n <= 0.10 \
        and elapsed < 1.0
    _verdict("criterion-1 outgassing-summary", ok,
             f"collision dev {worst_coll:.2%} (<=1%), pressure dev "
             f"{worst_p:.2%} (<=10%), density dev {worst_n:.2%} (<=10%), "
             f"{elapsed:.3f} s (<1 s)")


def test_criterion_2_bake_out_power():
    p300 = bake_out_power(0.23, 300.0)
    p400 = bake_out_power(0.23, 400.0)
    dev300 = abs(p300 / 105.0 - 1.0)
    dev400 = abs(p400 / 330.0 - 1.0)
    ok = dev300 <= 0.02 and dev400 <= 0.02
    _verdict("criterion-2 bake-out-power", ok,
             f"300 K -> {p300:.1f} W (dev {dev300:.2%}), "
             f"400 K -> {p400:.1f} W (dev {dev400:.2%}), both <=2%")


def test_criterion_3_orbit_numbers():
    t0 = time.perf_counter()
    orbit = OrbitElements(apogee_altitude=650000e3, perigee_altitude=3800e3)
    period_days = orbital_period(orbit) / 86400.0
    g_frac = local_gravity(orbit, orbit.perigee_altitude).g_fraction
    window_min = altitude_window(orbit, 3800e3, 4500e3) / 60.0
    elapsed = time.perf_counter() - t0
    dev_period = abs(period_days / 22.0 - 1.0)
    dev_g = abs(g_frac / 0.4 - 1.0)
    dev_window = abs(window_min / 20.2 - 1.0)
    ok = dev_period <= 0.05 and dev_g <= 0.05 and dev_window <= 0.10 \
        and elapsed < 1.0
    _verdict("criterion-3 orbit-numbers", ok,
             f"period {period_days:.2f} d (dev {dev_period:.2%} <=5%), "
             f"perigee {g_frac:.3f} g (dev {dev_g:.2%} <=5%), "
             f"window {window_min:.2f} min (dev {dev_window:.2%} <=10%), "
             f"{elapsed:.3f} s (<1 s)")


def test_criterion_4_budget_ledgers():
    ledgers, _ = load_budgets()
    expected = {
        "mission_dry": 544.0,
        "reference_dry": 628.0,
        "mission_wet": 1654.0,
        "reference_wet": 1738.0,
        "commissioning_with_bakeout": 135.0,
    }
    deltas = {name: budget_check(ledgers[name]).delta for name in expected}
    totals_ok = all(
        budget_check(ledgers[name]).computed_total == total
        for name, total in expected.items())
    ok = totals_ok and all(delta == 0.0 for delta in deltas.values())
    _verdict("criterion-4 budget-ledgers", ok,
             f"totals {sorted(expected.values())} reproduced exactly, "
             f"max |delta| = {max(abs(d) for d in deltas.values()):g}")


def test_criterion_5_geometric_dilution():
    area = math.pi * (0.5e-3) ** 2
    suppression = dilution_from_patch(1.0, area, 0.1)
    ratio = suppression / 3e-5
    ok = 1.0 / 1.5 <= ratio <= 1.5
    _verdict("criterion-5 geometric-dilution", ok,
             f"1 mm patch at 10 cm -> {suppression:.3e} "
             f"({ratio:.2f}x the 3e-5 figure, within 1.5x)")


def test_criterion_6_solver_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n = 100
    x0s = np.geomspace(1e-13, 1e-10, n)
    v_ms = rng.permutation(np.geomspace(1e-8, 1e-4, n))
    lams = rng.permutation(np.geomspace(1e6, 1e16, n))
    consts = rng.permutation(np.geomspace(1e-6, 1e1, n))

    worst_gamma = worst_residual = worst_quadrature = 0.0
    for x0, v_m, lam, const in zip(x0s, v_ms, lams, consts):
        kin = ExpansionKinematics(x0=float(x0), v_m=float(v_m))
        spec = DecoherenceSpec(quadratic_lambda=float(lam),
                               constant_rate=float(const))
        tau_ref = cet_closed_form(spec, kin)
        for tau in (0.3 * tau_ref, tau_ref, 3.0 * tau_ref):
            closed = gamma(tau, spec, kin)
            numeric = gamma_quadrature(tau, spec, kin)
            worst_gamma = max(worst_gamma, abs(numeric / closed - 1.0))
        tau = solve_cet(spec, kin)
        worst_residual = max(worst_residual,
                             abs(4.0 * gamma(tau, spec, kin) - 1.0))
        worst_quadrature = max(
            worst_quadrature, abs(4.0 * gamma_quadrature(tau, spec, kin) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_gamma <= 1e-6 and worst_residual <= 1e-9 \
        and worst_quadrature <= 1e-8 and elapsed < 5.0
    _verdict("criterion-6 solver-integrity", ok,
             f"closed-vs-quadrature {worst_gamma:.2e} (<=1e-6), "
             f"residual {worst_residual:.2e} (<=1e-9), "
             f"4 Gamma(cet) = 1 by quadrature {worst_quadrature:.2e} (<=1e-8), "
             f"{elapsed:.2f} s (<5 s)")


def test_criterion_7_model_properties():
    baseline = scenario_presets()["fig2_baseline"].particle
    shape_origin = csl_shape(0.0)
    asym_dev = abs(csl_shape(20.0) * 20.0**4 / 6.0 - 1.0)
    seam_dev = abs(dp_rate(baseline, baseline.radius * (1.0 - 1e-13))
                   / dp_rate(baseline, baseline.radius) - 1.0)

    monotone = nonneg = zero_at_origin = True
    fns = {name: model_decoherence_spec(MODEL_PRESETS[name], baseline).rate
           for name in ("csl", "qg", "k", "dp")}
    grid = [0.0] + [1e-12 * 10**k for k in range(9)]
    for fn in fns.values():
        values = [fn(dx) for dx in grid]
        zero_at_origin &= values[0] == 0.0
        nonneg &= all(v >= 0.0 for v in values)
        monotone &= all(a <= b for a, b in zip(values, values[1:]))

    ok = shape_origin == 1.0 and asym_dev <= 0.01 and seam_dev <= 1e-12 \
        and monotone and nonneg and zero_at_origin
    _verdict("criterion-7 model-properties", ok,
             f"f(0)={shape_origin}, asymptote dev {asym_dev:.3%} (<=1%), "
             f"DP seam dev {seam_dev:.1e} (<=1e-12), "
             f"rates nonneg/zero-at-0/monotone: "
             f"{nonneg}/{zero_at_origin}/{monotone}")


def test_criterion_8_baseline_region_logic():
    scenario = scenario_presets()["fig2_baseline"]
    row = evaluate_radius(90e-9, scenario,
                          (MODEL_PRESETS["csl"], MODEL_PRESETS["qg"]))
    lam_csl = csl_lambda(scenario.with_radius(90e-9).particle)
    lam_qm = qm_channel_rates(scenario.with_radius(90e-9)).total_lambda
    ok = lam_csl > lam_qm and row.violated["csl"] and row.ced_qm < 175e-9
    # the QG flag follows the printed linear-in-mass law and is reported
    # without a pass/fail assertion (documented inconsistency)
    _verdict("criterion-8 baseline-region-logic", ok,
             f"lambda_csl {lam_csl:.3e} > lambda_qm {lam_qm:.3e}, "
             f"violated[csl]={row.violated['csl']}, "
             f"ced_qm {row.ced_qm:.3e} m < 175 nm; "
             f"qg flag reported as violated[qg]={row.violated['qg']} "
             f"(not asserted)")


def test_criterion_9_emission_channel_consistency():
    particle = scenario_presets()["fig2_baseline"].particle
    ratios = []
    for temperature in (50.0, 98.0, 200.0, 500.0):
        spectrum = emission_spectrum(particle, temperature)
        ratios.append(bb_emit_lambda(particle, temperature)
                      / spectrum.emission_lambda())
    spread = max(ratios) / min(ratios) - 1.0
    off = max(abs(ratio - 1.0) for ratio in ratios)
    ok = spread <= 0.01 and off <= 0.01
    _verdict("criterion-9 emission-consistency", ok,
             f"closed-form / spectral-moment ratio {ratios[1]:.6f} (= 1 "
             f"within {off:.1e}, <=1%), "
             f"spread {spread:.2e} over 50..500 K (<=1%)")


def test_criterion_10_sweep_performance_and_determinism():
    scenario = scenario_presets()["fig2_baseline"]
    models = tuple(MODEL_PRESETS[name]
                   for name in ("csl", "csl_adler", "qg", "k", "dp"))
    config = SweepConfig(radius_min=1e-8, radius_max=5e-7, points=200,
                         scenario=scenario, models=models)

    t0 = time.perf_counter()
    rows = sweep(config)
    elapsed = time.perf_counter() - t0

    first = write_sweep_csv(rows)
    identical = first == write_sweep_csv(sweep(config))

    ok = elapsed < 10.0 and identical and len(rows) == 200
    _verdict("criterion-10 sweep-performance", ok,
             f"200 radii x 5 models in {elapsed:.2f} s (<10 s), "
             f"repeat run byte-identical: {identical}")
