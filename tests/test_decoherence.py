"""Environmental decoherence channels and the emission spectrum."""

import math

import pytest

from macrocoh import (CONSTANTS, ComplexPermittivity, Environment, Particle,
                      bb_absorb_lambda, bb_emit_lambda, bb_scatter_lambda,
                      gas_collision_rate, qm_channel_rates)
from macrocoh.config import replace
from macrocoh.decoherence import ChannelRates
from macrocoh.testability import scenario_presets
from spectrum_oracle import emission_spectrum


def make_particle(radius=90e-9, density=2201.0, eps_bb=(2.1, 0.57)):
    eps = ComplexPermittivity(*eps_bb)
    return Particle(radius=radius, density=density,
                    permittivity_trap=ComplexPermittivity(2.1, 2.5e-10),
                    permittivity_bb=eps)


BASE_ENV = Environment(temperature=32.0, pressure=1e-12,
                       gas_particle_mass=2.0 * CONSTANTS.m_u)


# ------------------------------------------------------------- gas channel

def test_gas_rate_zero_pressure():
    env = Environment(temperature=32.0, pressure=0.0,
                      gas_particle_mass=2.0 * CONSTANTS.m_u)
    assert gas_collision_rate(make_particle(), env) == 0.0


def test_gas_rate_baseline():
    # frozen from a 40-digit evaluation with v_a = sqrt(3 k_B T / m_a) ~ 631.7 m/s
    assert gas_collision_rate(make_particle(), BASE_ENV) == pytest.approx(
        3.35234550047738e-2, rel=1e-12)


def test_gas_rate_scalings():
    base = gas_collision_rate(make_particle(), BASE_ENV)
    env10 = Environment(temperature=32.0, pressure=1e-11,
                        gas_particle_mass=2.0 * CONSTANTS.m_u)
    assert gas_collision_rate(make_particle(), env10) == pytest.approx(
        10.0 * base, rel=1e-12)
    assert gas_collision_rate(make_particle(radius=180e-9), BASE_ENV) == \
        pytest.approx(4.0 * base, rel=1e-12)


def test_gas_rate_inconsistent_zero_temperature():
    env = Environment(temperature=0.0, pressure=1e-12,
                      gas_particle_mass=2.0 * CONSTANTS.m_u)
    with pytest.raises(ValueError):
        gas_collision_rate(make_particle(), env)


# -------------------------------------------------- blackbody closed forms

def test_bb_scatter_zero_temperature():
    env = Environment(temperature=0.0, pressure=0.0,
                      gas_particle_mass=CONSTANTS.m_u)
    assert bb_scatter_lambda(make_particle(), env) == 0.0


def test_bb_scatter_baseline():
    # frozen from a 40-digit evaluation of the closed form at 32 K
    assert bb_scatter_lambda(make_particle(), BASE_ENV) == pytest.approx(
        2.94716645960278e6, rel=1e-10)


def test_bb_scatter_ninth_power_law():
    cold = bb_scatter_lambda(make_particle(), BASE_ENV)
    hot = bb_scatter_lambda(make_particle(), Environment(
        temperature=64.0, pressure=1e-12, gas_particle_mass=CONSTANTS.m_u))
    assert hot == pytest.approx(512.0 * cold, rel=1e-12)


def test_bb_absorb_baseline_and_lossless():
    assert bb_absorb_lambda(make_particle(eps_bb=(2.1, 0.0)), BASE_ENV) == 0.0
    # frozen closed form at the environment temperature, 32 K
    assert bb_absorb_lambda(make_particle(), BASE_ENV) == pytest.approx(
        4.20812559240399e12, rel=1e-10)


def test_bb_absorb_cubic_in_radius():
    small = bb_absorb_lambda(make_particle(radius=50e-9), BASE_ENV)
    large = bb_absorb_lambda(make_particle(radius=100e-9), BASE_ENV)
    assert large == pytest.approx(8.0 * small, rel=1e-12)


def test_bb_emit_baseline():
    assert bb_emit_lambda(make_particle(), 0.0) == 0.0
    # frozen closed form at the internal temperature, 98 K
    assert bb_emit_lambda(make_particle(), 98.0) == pytest.approx(
        3.47172468318593e15, rel=1e-10)


def test_emit_equals_absorb_at_equal_temperatures():
    particle = make_particle()
    assert bb_emit_lambda(particle, 32.0) == pytest.approx(
        bb_absorb_lambda(particle, BASE_ENV), rel=1e-14)


def test_lambda_monotone_in_temperature_radius_and_permittivity():
    for t_lo, t_hi in ((10.0, 20.0), (32.0, 33.0), (100.0, 400.0)):
        env_lo = Environment(temperature=t_lo, pressure=0.0,
                             gas_particle_mass=CONSTANTS.m_u)
        env_hi = Environment(temperature=t_hi, pressure=0.0,
                             gas_particle_mass=CONSTANTS.m_u)
        assert bb_scatter_lambda(make_particle(), env_lo) <= \
            bb_scatter_lambda(make_particle(), env_hi)
        assert bb_absorb_lambda(make_particle(), env_lo) <= \
            bb_absorb_lambda(make_particle(), env_hi)
    for r_lo, r_hi in ((10e-9, 20e-9), (90e-9, 91e-9)):
        assert bb_scatter_lambda(make_particle(radius=r_lo), BASE_ENV) <= \
            bb_scatter_lambda(make_particle(radius=r_hi), BASE_ENV)
    for im_lo, im_hi in ((0.0, 0.1), (0.57, 1.0)):
        assert bb_emit_lambda(make_particle(eps_bb=(2.1, im_lo)), 98.0) <= \
            bb_emit_lambda(make_particle(eps_bb=(2.1, im_hi)), 98.0)


# --------------------------------------------------------- emission spectrum

def test_spectrum_localization_at_zero_separation():
    spectrum = emission_spectrum(make_particle(), 98.0)
    assert spectrum.localization_factor(0.0) == 1.0


def test_spectrum_total_rate_scales_as_t4_and_volume():
    p = make_particle()
    s1 = emission_spectrum(p, 98.0)
    s2 = emission_spectrum(p, 196.0)
    assert s2.total_rate / s1.total_rate == pytest.approx(16.0, rel=1e-9)
    big = emission_spectrum(make_particle(radius=180e-9), 98.0)
    assert big.total_rate / s1.total_rate == pytest.approx(8.0, rel=1e-9)


def test_spectrum_total_rate_baseline():
    # frozen from a 40-digit evaluation of the analytic Planck integral
    # (pi^4/15 law): R_tot = (4 pi^3 / 15) r^3 c Im(cm) theta^4
    spectrum = emission_spectrum(make_particle(), 98.0)
    assert spectrum.total_rate == pytest.approx(6.04966179672453e5, rel=1e-8)


def test_spectrum_moment_vs_closed_form_ratio_is_constant():
    # the spectral second moment reproduces the closed-form coefficient
    # (16 pi^5 / 189) c r^3 theta^6 Im(cm) at any temperature
    particle = make_particle()
    ratios = []
    for temperature in (50.0, 98.0, 200.0, 500.0):
        spectrum = emission_spectrum(particle, temperature)
        ratios.append(spectrum.emission_lambda()
                      / bb_emit_lambda(particle, temperature))
    for ratio in ratios:
        assert ratio == pytest.approx(1.0, rel=1e-8)


def test_spectrum_localization_taylor_regime():
    # 1 - F(dr) ~ dr^2 * M2 / (6 R_tot) for separations far below the thermal
    # wavelength (~1/theta = 23 um at 98 K)
    spectrum = emission_spectrum(make_particle(), 98.0)
    for dr in (1e-8, 1e-7, 1e-6):
        expansion = dr**2 * spectrum.k2_moment / (6.0 * spectrum.total_rate)
        measured = 1.0 - spectrum.localization_factor(dr)
        assert measured == pytest.approx(expansion, rel=1e-2)


def test_spectrum_localization_monotone_and_bounded():
    spectrum = emission_spectrum(make_particle(), 98.0)
    # 3/k_peak with the x^3 Planck peak at x ~ 2.821
    dr_max = 3.0 / (2.8214 * spectrum.wavenumber_scale)
    samples = [spectrum.localization_factor(f * dr_max)
               for f in (1e-3, 0.01, 0.1, 0.3, 0.6, 1.0)]
    assert all(0.0 < value <= 1.0 for value in samples)
    assert all(a >= b for a, b in zip(samples, samples[1:]))
    # far tail stays bounded and positive under the oscillatory quadrature
    tail = spectrum.localization_factor(1e-4)
    assert 0.0 < tail < 0.01


def test_spectrum_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        emission_spectrum(make_particle(), 0.0)


# ------------------------------------------------------------- aggregation

def test_channel_rates_all_zero_limit():
    sc = scenario_presets()["fig2_baseline"]
    zero = replace(
        sc,
        environment=Environment(temperature=0.0, pressure=0.0,
                                gas_particle_mass=2.0 * CONSTANTS.m_u),
        trap=replace(sc.trap, internal_temperature=0.0))
    rates = qm_channel_rates(zero)
    assert rates.gas_rate == 0.0
    assert rates.total_lambda == 0.0


def test_channel_rates_baseline_dominated_by_emission():
    rates = qm_channel_rates(scenario_presets()["fig2_baseline"])
    assert rates.lambda_bb_emit / rates.total_lambda > 0.99


def test_channel_rates_additivity():
    sc = scenario_presets()["fig2_baseline"]
    rates = qm_channel_rates(sc)
    assert rates.gas_rate == gas_collision_rate(sc.particle, sc.environment)
    assert rates.lambda_bb_scatter == bb_scatter_lambda(sc.particle, sc.environment)
    assert rates.lambda_bb_absorb == bb_absorb_lambda(sc.particle, sc.environment)
    assert rates.lambda_bb_emit == bb_emit_lambda(
        sc.particle, sc.trap.internal_temperature)
    assert rates.total_lambda == (rates.lambda_bb_scatter
                                  + rates.lambda_bb_absorb
                                  + rates.lambda_bb_emit)


def test_channel_rates_reject_negative():
    with pytest.raises(ValueError):
        ChannelRates(gas_rate=-1.0, lambda_bb_scatter=0.0,
                     lambda_bb_absorb=0.0, lambda_bb_emit=0.0)


@pytest.mark.parametrize("temperature", [-1.0, -math.inf])
def test_emission_rejects_a_negative_internal_temperature(temperature):
    with pytest.raises(ValueError) as exc:
        bb_emit_lambda(make_particle(), temperature)
    assert str(exc.value) == "temperature must be non-negative"
