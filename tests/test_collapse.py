"""Collapse-model rates: CSL, QG, K, and DP."""

import math

import numpy as np
import pytest

from macrocoh import (CONSTANTS, CSL_ADLER, CSL_DEFAULT, ComplexPermittivity,
                      CslParams, Particle, csl_lambda, csl_shape,
                      dp_lambda, dp_rate, k_coherence_cell, k_lambda,
                      qg_lambda)
from macrocoh.testability import MODEL_PRESETS, ModelSpec, model_decoherence_spec


def make_particle(radius=90e-9, density=2201.0):
    eps = ComplexPermittivity(2.1, 0.57)
    return Particle(radius=radius, density=density,
                    permittivity_trap=ComplexPermittivity(2.1, 2.5e-10),
                    permittivity_bb=eps)


BASELINE = make_particle()


# ------------------------------------------------------------------- CSL

def test_csl_shape_small_x_limit():
    assert csl_shape(0.0) == 1.0
    # leading behaviour 1 - x^2/2 from the series of the bracket (x^4/6 + ...)
    assert csl_shape(1e-3) == pytest.approx(1.0 - 0.5e-6, rel=1e-9)


def test_csl_shape_series_matches_direct_form_at_switch():
    # the series takes over below x = 0.2; both halves agree at the seam
    for x in (0.15, 0.2, 0.2000001, 0.25):
        x2 = x * x
        direct = (6.0 / x2**2) * (1.0 - 2.0 / x2
                                  + (1.0 + 2.0 / x2) * math.exp(-x2))
        assert csl_shape(x) == pytest.approx(direct, rel=5e-9)


def test_csl_shape_reference_value():
    # frozen from a 40-digit evaluation at x = 0.9
    assert csl_shape(0.9) == pytest.approx(0.677981180448606, rel=1e-10)


def test_csl_shape_large_x_asymptote():
    assert csl_shape(20.0) * 20.0**4 / 6.0 == pytest.approx(1.0, abs=1e-2)
    assert csl_shape(60.0) * 60.0**4 / 6.0 == pytest.approx(1.0, abs=1e-3)


def test_csl_shape_decreasing_and_bounded():
    grid = [1e-4 * 10**(k / 4.0) for k in range(21)]  # 1e-4 .. 1e1
    values = [csl_shape(x) for x in grid]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        csl_shape(-0.1)


def test_csl_lambda_single_nucleon_limit():
    # one nucleon, radius far below the localization length: f -> 1 and
    # Lambda -> lambda0 * alpha / 4
    radius = 1e-12
    density = CONSTANTS.m_nucleon / (4.0 / 3.0 * math.pi * radius**3)
    particle = make_particle(radius=radius, density=density)
    expected = CSL_DEFAULT.lambda0 * CSL_DEFAULT.alpha / 4.0
    assert csl_lambda(particle) == pytest.approx(expected, rel=1e-9)


def test_csl_lambda_baseline():
    # frozen from a 40-digit evaluation at the default parameters
    assert csl_lambda(BASELINE) == pytest.approx(2.73674565919831e16, rel=1e-10)


def test_csl_lambda_linear_in_rate_parameter():
    assert csl_lambda(BASELINE, CSL_ADLER) == pytest.approx(
        1e8 * csl_lambda(BASELINE, CSL_DEFAULT), rel=1e-12)


def test_csl_lambda_monotone_in_mass_at_fixed_radius():
    densities = [500.0, 1000.0, 2201.0, 9680.0]
    values = [csl_lambda(make_particle(density=d)) for d in densities]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_csl_params_validation():
    with pytest.raises(ValueError):
        CslParams(lambda0=0.0)
    with pytest.raises(ValueError):
        CslParams(alpha=-1.0)


# -------------------------------------------------------------------- QG

def test_qg_lambda_single_nucleon():
    # frozen: c^4 m0^6 / (hbar^3 mP^3) with CODATA masses
    assert qg_lambda(CONSTANTS.m_nucleon) == pytest.approx(
        1.46286595785601e-2, rel=1e-12)
    # matches the rounded design figure of ~1.5e-2 within a few percent
    assert qg_lambda(CONSTANTS.m_nucleon) == pytest.approx(1.5e-2, rel=0.05)


def test_qg_lambda_linearity_and_zero():
    assert qg_lambda(0.0) == 0.0
    m = 3.7e-18
    assert qg_lambda(2.0 * m) == pytest.approx(2.0 * qg_lambda(m), rel=1e-12)


# --------------------------------------------------------------------- K

def test_k_coherence_cell_baseline():
    # at 90 nm the extended-body candidate a1 = (r/l_P)^(2/3) L ~ 164 nm
    # exceeds r, so the point-particle branch a2 = (L/l_P)^2 L applies;
    # both numbers frozen from a 40-digit evaluation
    cell = k_coherence_cell(BASELINE)
    assert cell == pytest.approx(5.48830271449083e-7, rel=1e-10)
    mass = BASELINE.mass
    compton = CONSTANTS.hbar / (mass * CONSTANTS.c)
    extended = (BASELINE.radius / CONSTANTS.planck_length) ** (2.0 / 3.0) * compton
    assert extended == pytest.approx(1.64427464055051e-7, rel=1e-10)
    assert BASELINE.radius < extended  # branch-1 condition indeed fails


def test_k_coherence_cell_branch_self_consistency():
    for radius in (20e-9, 90e-9, 108e-9, 200e-9, 1e-6):
        particle = make_particle(radius=radius)
        mass = particle.mass
        compton = CONSTANTS.hbar / (mass * CONSTANTS.c)
        extended = (radius / CONSTANTS.planck_length) ** (2.0 / 3.0) * compton
        cell = k_coherence_cell(particle)
        if cell == extended:
            assert radius >= cell
        else:
            assert radius < extended


def test_k_coherence_cell_continuous_at_branch_crossover():
    # for this density the two branches cross at r ~ 107.8 nm (frozen from
    # solving (r/l_P)^(2/3) = (L/l_P)^2 with L = 3 hbar / (4 pi rho c r^3))
    r_cross = 1.07835576446143e-7
    below = k_coherence_cell(make_particle(radius=r_cross * (1.0 - 1e-6)))
    above = k_coherence_cell(make_particle(radius=r_cross * (1.0 + 1e-6)))
    assert below == pytest.approx(above, rel=1e-4)


def test_k_lambda_baseline_and_monotonicity():
    assert k_lambda(BASELINE) == pytest.approx(2.16171165402384e7, rel=1e-10)
    # increasing the cell at fixed mass lowers the coefficient (inverse quartic)
    mass = BASELINE.mass
    cell = k_coherence_cell(BASELINE)
    direct = CONSTANTS.hbar / (8.0 * mass * cell**4)
    assert k_lambda(BASELINE) == pytest.approx(direct, rel=1e-12)
    assert CONSTANTS.hbar / (8.0 * mass * (2.0 * cell) ** 4) < direct


# -------------------------------------------------------------------- DP

def test_dp_rate_zero_and_seam_continuity():
    assert dp_rate(BASELINE, 0.0) == 0.0
    r = BASELINE.radius
    inside = dp_rate(BASELINE, r * (1.0 - 1e-13))
    outside = dp_rate(BASELINE, r)
    assert inside == pytest.approx(outside, rel=1e-12)
    assert dp_rate(BASELINE, r) == pytest.approx(
        dp_rate(BASELINE, 1.0001 * r), rel=1e-3)


def test_dp_plateau_value():
    # frozen: 20 G rho^2 r^5 / hbar
    assert dp_rate(BASELINE, BASELINE.radius) == pytest.approx(
        3.62086381521008e-4, rel=1e-10)
    assert dp_lambda(BASELINE) == pytest.approx(4.47020224100009e10, rel=1e-10)
    assert dp_lambda(BASELINE) * BASELINE.radius**2 == pytest.approx(
        dp_rate(BASELINE, BASELINE.radius), rel=1e-12)


def test_dp_rate_rejects_negative_separation():
    with pytest.raises(ValueError):
        dp_rate(BASELINE, -1e-9)


# ------------------------------------------------------ per-model laws

def rate_fn(name, particle=BASELINE):
    """Rate F(dx) in 1/s of a model preset, as the sweep builds it."""
    return model_decoherence_spec(MODEL_PRESETS[name], particle).rate


def test_rate_fn_zero_at_origin_and_nonnegative_monotone():
    separations = [0.0] + [1e-12 * 10**k for k in range(10)]
    fns = {name: rate_fn(name)
           for name in ("csl", "csl_adler", "qg", "k", "k_sat", "dp")}
    for name, fn in fns.items():
        values = [fn(dx) for dx in separations]
        assert values[0] == 0.0, name
        assert all(v >= 0.0 for v in values), name
        assert all(a <= b for a, b in zip(values, values[1:])), name


def test_rate_fn_csl_matches_coefficient_pointwise():
    fn = rate_fn("csl")
    coeff = csl_lambda(BASELINE, CSL_DEFAULT)
    for dx in (1e-12, 3e-9, 9e-8, 1e-6):
        assert fn(dx) == pytest.approx(coeff * dx**2, rel=1e-12)


def test_rate_fn_qg_single_nucleon_at_one_meter():
    radius = 1e-12
    density = CONSTANTS.m_nucleon / (4.0 / 3.0 * math.pi * radius**3)
    particle = make_particle(radius=radius, density=density)
    fn = rate_fn("qg", particle)
    assert fn(1.0) == pytest.approx(1.46286595785601e-2, rel=1e-9)


def test_rate_fn_k_saturation_semantics():
    cell = k_coherence_cell(BASELINE)
    coeff = k_lambda(BASELINE)
    fn = rate_fn("k_sat")
    assert fn(0.5 * cell) == pytest.approx(coeff * (0.5 * cell) ** 2, rel=1e-12)
    assert fn(10.0 * cell) == pytest.approx(coeff * cell**2, rel=1e-12)
    # the unsaturated K law keeps growing past the cell
    assert rate_fn("k")(10.0 * cell) == pytest.approx(
        coeff * (10.0 * cell) ** 2, rel=1e-12)


def test_rate_fn_dp_saturates_at_the_radius_like_dp_rate():
    fn = rate_fn("dp")
    for factor in (0.0, 1e-3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e3):
        dx = factor * BASELINE.radius
        assert fn(dx) == pytest.approx(dp_rate(BASELINE, dx), rel=1e-15, abs=0.0)


def test_model_spec_requires_a_callable_law():
    with pytest.raises(ValueError, match=r"^model spec 'csl': law must be "
                                         r"callable, got CslParams$"):
        ModelSpec("csl", CSL_DEFAULT)


def test_each_law_lives_in_collapse_and_testability_reexports_it():
    from macrocoh import collapse, testability

    for name in ("csl_law", "qg_law", "k_law", "k_sat_law", "dp_law"):
        assert getattr(testability, name) is getattr(collapse, name)
        assert getattr(collapse, name).__module__ == "macrocoh.collapse"
    coefficients = {"csl_lambda", "qg_lambda", "k_coherence_cell", "k_lambda",
                    "dp_lambda"}
    assert coefficients.isdisjoint(vars(testability))


@pytest.mark.parametrize("mass", [-1e-18, np.array([1e-18, -1e-18])],
                         ids=["float", "column"])
def test_qg_lambda_rejects_a_negative_mass(mass):
    with pytest.raises(ValueError) as exc:
        qg_lambda(mass)
    assert str(exc.value) == "mass must be non-negative"
