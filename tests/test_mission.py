"""Orbit geometry, sensor integration, thruster noise, and budget ledgers."""

import math

import pytest

from macrocoh import (BudgetLedger, OrbitElements, altitude_window,
                      budget_check, cooling_noise_threshold,
                      integrated_accuracy, load_budgets, load_orbit,
                      local_gravity, orbital_period, thruster_position_noise)
from macrocoh.constants import CONSTANTS
from macrocoh.mission import thruster_accel_psd, time_from_perigee

HEO = OrbitElements(apogee_altitude=650000e3, perigee_altitude=3800e3)


# -------------------------------------------------------------------- orbit

def test_orbital_period_heo():
    period = orbital_period(HEO)
    # frozen from the Kepler evaluation; ~22.16 days
    assert period == pytest.approx(1914729.85114, rel=1e-9)
    assert period / 86400.0 == pytest.approx(22.0, rel=0.05)


def test_orbital_period_surface_circular():
    surface = OrbitElements(apogee_altitude=0.0, perigee_altitude=0.0)
    # textbook value for a circular orbit at the body surface
    assert orbital_period(surface) / 60.0 == pytest.approx(84.347, rel=1e-3)


def test_orbital_period_scales_three_halves():
    a1 = OrbitElements(apogee_altitude=0.0, perigee_altitude=0.0,
                       body_radius=1.0, body_mu=1.0)
    a4 = OrbitElements(apogee_altitude=3.0, perigee_altitude=3.0,
                       body_radius=1.0, body_mu=1.0)
    assert orbital_period(a4) == pytest.approx(8.0 * orbital_period(a1),
                                               rel=1e-12)


def test_local_gravity_values():
    sample = local_gravity(HEO, 3800e3)
    assert sample.acceleration == pytest.approx(3.853097385219095, rel=1e-12)
    assert sample.g_fraction == pytest.approx(0.3927724143954225, rel=1e-12)
    assert sample.g_fraction == pytest.approx(0.4, rel=0.05)
    assert local_gravity(HEO, 0.0).acceleration == pytest.approx(9.82, rel=1e-2)


def test_local_gravity_inverse_square_and_monotone():
    small = OrbitElements(apogee_altitude=30.0, perigee_altitude=0.0,
                          body_radius=1.0, body_mu=1.0)
    g1 = local_gravity(small, 0.0).acceleration
    g2 = local_gravity(small, 3.0).acceleration  # quadruples R + h
    assert g2 == pytest.approx(g1 / 16.0, rel=1e-12)
    alts = [0.0, 1e5, 1e6, 1e7]
    values = [local_gravity(HEO, h).acceleration for h in alts]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_altitude_window_heo_band():
    window = altitude_window(HEO, 3800e3, 4500e3)
    # frozen from the anomaly-chain evaluation; ~20.88 min
    assert window == pytest.approx(1252.707722, rel=1e-6)
    assert window / 60.0 == pytest.approx(20.2, rel=0.10)


def test_altitude_window_degenerate_and_full():
    assert altitude_window(HEO, 3800e3, 3800e3) == 0.0
    full = altitude_window(HEO, 3800e3, 650000e3)
    assert full == pytest.approx(orbital_period(HEO), rel=1e-9)


def test_altitude_window_additive_and_bounded():
    t_total = altitude_window(HEO, 3800e3, 9000e3)
    t_a = altitude_window(HEO, 3800e3, 6000e3)
    t_b = altitude_window(HEO, 6000e3, 9000e3)
    assert t_a + t_b == pytest.approx(t_total, rel=1e-10)
    assert 0.0 < t_total < orbital_period(HEO)


def test_altitude_window_rejects_band_outside_orbit():
    with pytest.raises(ValueError):
        altitude_window(HEO, 1000e3, 4500e3)
    with pytest.raises(ValueError):
        altitude_window(HEO, 3800e3, 7e8)
    with pytest.raises(ValueError):
        OrbitElements(apogee_altitude=1e6, perigee_altitude=2e6)


def test_circular_orbit_spends_whole_period_at_its_altitude():
    circ = OrbitElements(apogee_altitude=500e3, perigee_altitude=500e3)
    assert altitude_window(circ, 500e3, 500e3) == pytest.approx(
        orbital_period(circ), rel=1e-12)


# ---------------------------------------------------------- sensor and noise

def test_integrated_accuracy_reference():
    result = integrated_accuracy(2.5e-13, 1212.0)
    # frozen psd / sqrt(T); lands within a factor 2 of the 5e-15 design figure
    assert result.absolute == pytest.approx(7.181062370267825e-15, rel=1e-12)
    assert 0.5 < result.absolute / 5e-15 < 2.0
    assert result.fractional == result.absolute  # unit reference


def test_integrated_accuracy_scalings():
    base = integrated_accuracy(2.5e-13, 1000.0)
    longer = integrated_accuracy(2.5e-13, 4000.0)
    assert longer.absolute == pytest.approx(0.5 * base.absolute, rel=1e-12)
    referenced = integrated_accuracy(2.5e-13, 1000.0, reference_accel=3.853)
    assert referenced.fractional == pytest.approx(base.absolute / 3.853,
                                                  rel=1e-12)


def test_thruster_noise_derivation_and_model():
    noise = thruster_position_noise(10.0, thruster_accel_psd(1e-8, 2000.0))
    # plain division: 1e-8 N/sqrt(Hz) over 2000 kg
    assert noise.accel_psd == pytest.approx(5e-12, rel=1e-12)
    direct = thruster_position_noise(10.0, accel_psd=5e-10)
    # frozen sqrt(S_a t^3 / 3) for the random-walk model
    assert direct.position_spread == pytest.approx(9.128709291752768e-9,
                                                   rel=1e-12)
    # t^(3/2) growth
    later = thruster_position_noise(40.0, accel_psd=5e-10)
    assert later.position_spread == pytest.approx(
        8.0 * direct.position_spread, rel=1e-12)
    with pytest.raises(ValueError):
        thruster_position_noise(0.0, accel_psd=1e-10)


def test_cooling_noise_threshold_scalings_and_scale():
    base = cooling_noise_threshold(1e5, 1e8, 32.0)
    assert cooling_noise_threshold(1e5, 2e8, 32.0) == pytest.approx(
        2.0 * base, rel=1e-12)
    assert cooling_noise_threshold(1e5, 1e8, 64.0) == pytest.approx(
        0.5 * base, rel=1e-12)
    # any coupling/quality/temperature triple tuned to the quoted 1e19 Hz
    # threshold must reproduce it
    temperature, quality = 100.0, 1e9
    g0 = math.sqrt(1e19 * CONSTANTS.k_B * temperature
                   / (CONSTANTS.hbar * quality))
    assert cooling_noise_threshold(g0, quality, temperature) == pytest.approx(
        1e19, rel=1e-9)


# ------------------------------------------------------------------ budgets

def test_budget_checks_on_presets():
    ledgers, source = load_budgets()
    assert source == "<packaged budgets.yaml>"
    expected = {
        "reference_dry": 628.0,
        "mission_dry": 544.0,
        "reference_wet": 1738.0,
        "mission_wet": 1654.0,
        "commissioning_with_bakeout": 135.0,
    }
    assert set(ledgers) == set(expected)
    for name, total in expected.items():
        check = budget_check(ledgers[name])
        assert check.computed_total == total
        assert check.declared_total == total
        assert abs(check.delta) <= 1.0


def test_budget_check_reports_mismatch():
    ledger = BudgetLedger(name="broken", unit="kg",
                          items=(("a", 97.0), ("b", 237.0), ("c", 211.0)),
                          declared_total=544.0)
    check = budget_check(ledger)
    assert check.computed_total == 545.0
    assert check.delta == pytest.approx(1.0)
    with pytest.raises(ValueError):
        BudgetLedger(name="empty", unit="kg", items=(), declared_total=0.0)


def test_load_orbit_defaults_and_targets():
    orbit, doc, source = load_orbit()
    assert source == "<packaged orbit_heo.yaml>"
    assert orbit.apogee_altitude == 650000e3
    assert orbit.perigee_altitude == 3800e3
    assert orbit.body_radius == 6.371e6
    assert doc["targets"]["period_days"] == 22.0
    assert doc["targets"]["perigee_window_minutes"] == 20.2


@pytest.mark.parametrize("call, message", [
    (lambda: OrbitElements(1e6, 1e5, body_radius=0.0),
     "body radius and mu must be positive"),
    (lambda: OrbitElements(1e6, 1e5, body_mu=-1.0),
     "body radius and mu must be positive"),
    (lambda: local_gravity(HEO, -1.0), "altitude must be non-negative"),
    (lambda: time_from_perigee(HEO, 1000e3), "altitude lies outside the orbit"),
    (lambda: altitude_window(HEO, 4500e3, 3800e3), "need h_lo <= h_hi"),
    (lambda: thruster_position_noise(10.0, -1e-10),
     "acceleration PSD must be non-negative"),
    (lambda: cooling_noise_threshold(1.0, 1e10, 0.0),
     "g0, Q, and temperature must be positive"),
], ids=["body-radius", "body-mu", "gravity-altitude", "perigee-altitude",
        "reversed-band", "thruster-psd", "cooling-temperature"])
def test_range_checks_name_the_bad_quantity(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
