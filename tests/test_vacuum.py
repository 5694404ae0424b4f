"""Outgassing, residual gas, dilution, Arrhenius scaling, and bake-out power."""

import math

import pytest
from scipy import integrate

from macrocoh import (CONSTANTS, MaterialOutgassing, OutgassingSpecies,
                      arrhenius_residence, bake_out_power, collision_rate,
                      dilution_from_patch, dilution_from_sphere, emission_rate,
                      load_materials, outgassing_rate, pressure_attenuation,
                      steady_state)
from macrocoh.vacuum import HOUR, MBAR, ROOM_TEMPERATURE, implied_emitting_area

AMU30 = 30.0 * CONSTANTS.m_u


def single_species_material(tml=0.207, tau_h=2e3, total_mass=1.0, area=1.0):
    return MaterialOutgassing(
        name="test",
        total_mass=total_mass,
        species=(OutgassingSpecies(tml_percent=tml, residence_time=tau_h * HOUR,
                                   species_mass=AMU30),),
        emitting_area=area)


# --------------------------------------------------------------- outgassing

def test_outgassing_rate_at_zero_and_decay():
    mat = single_species_material(tml=0.5, tau_h=1.0, total_mass=2.0)
    tau = 1.0 * HOUR
    assert outgassing_rate(mat, 0.0) == pytest.approx(
        2.0 * 0.005 / tau, rel=1e-12)
    assert outgassing_rate(mat, 1e3 * tau) < 1e-300 * outgassing_rate(mat, 0.0)
    times = [0.0, tau, 5 * tau, 20 * tau]
    values = [outgassing_rate(mat, t) for t in times]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_outgassing_total_mass_loss_integral():
    mat = single_species_material(tml=0.207, tau_h=2.0, total_mass=3.0)
    horizon = 50.0 * 2.0 * HOUR
    total, _ = integrate.quad(lambda t: outgassing_rate(mat, t), 0.0, horizon,
                              limit=200)
    expected = 3.0 * 0.00207 * (1.0 - math.exp(-50.0))
    assert total == pytest.approx(expected, rel=1e-6)


def test_outgassing_rate_multispecies_sum():
    mat = MaterialOutgassing(
        name="blend", total_mass=1.0, emitting_area=1.0,
        species=(OutgassingSpecies(0.1, 1e3, AMU30),
                 OutgassingSpecies(0.3, 1e5, AMU30)))
    expected = 0.001 / 1e3 + 0.003 / 1e5
    assert outgassing_rate(mat, 0.0) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        emission_rate(mat, 0.0)  # needs a single dominant species


def test_emission_rate_division_and_mass_scaling():
    mat = single_species_material(area=2.0)
    expected = outgassing_rate(mat, 0.0) / (AMU30 * 2.0)
    assert emission_rate(mat, 0.0) == pytest.approx(expected, rel=1e-12)
    heavier = MaterialOutgassing(
        name="heavy", total_mass=1.0, emitting_area=2.0,
        species=(OutgassingSpecies(0.207, 2e3 * HOUR, 2.0 * AMU30),))
    assert emission_rate(heavier, 0.0) == pytest.approx(
        0.5 * emission_rate(mat, 0.0), rel=1e-12)


def test_implied_emitting_area_from_summary_row():
    # frozen: D_out / (m gamma0) for the strongest summary row is ~21 m^2
    assert implied_emitting_area(5e-9, AMU30, 4.8e15) == pytest.approx(
        20.9102109794483, rel=1e-10)


# ------------------------------------------------------------- steady state

# printed summary-table figures: gamma0 -> (n, P_mbar, collision rate at 200 nm)
SUMMARY_EXPECTED = {
    "cfrp": (4.8e15, 1.7e13, 7.1e-10, 603.0),
    "kapton": (9.0e14, 3.0e12, 1.3e-10, 113.0),
    "adhesives": (3.1e16, 1.08e14, 4.4e-9, 3896.0),
}

# frozen oracle values with v = sqrt(k_B 300 K / 30 m_u) = 288.348 m/s
FROZEN_STATE = {
    "cfrp": (1.664654637e13, 6.894911278e-10, 603.1857894892402),
    "kapton": (3.121227444e12, 1.292795865e-10, 113.09733552923254),
    "adhesives": (1.075089453e14, 4.452963534e-9, 3895.5748904513425),
}


def test_steady_state_reproduces_summary_rows():
    for name, (gamma0, n_ref, p_ref, coll_ref) in SUMMARY_EXPECTED.items():
        state = steady_state(gamma0, 300.0, AMU30)
        frozen_n, frozen_p, frozen_coll = FROZEN_STATE[name]
        assert state.number_density == pytest.approx(frozen_n, rel=1e-9)
        assert state.pressure / MBAR == pytest.approx(frozen_p, rel=1e-9)
        assert collision_rate(gamma0, 200e-9) == pytest.approx(
            frozen_coll, rel=1e-12)
        # and the printed table figures at their quoted precision
        assert state.number_density == pytest.approx(n_ref, rel=0.10)
        assert state.pressure / MBAR == pytest.approx(p_ref, rel=0.10)
        assert collision_rate(gamma0, 200e-9) == pytest.approx(coll_ref, rel=0.01)


def test_steady_state_ideal_gas_consistency_and_vacuum():
    state = steady_state(4.8e15, 300.0, AMU30)
    assert state.pressure == pytest.approx(
        state.number_density * CONSTANTS.k_B * 300.0, rel=1e-12)
    empty = steady_state(0.0, 300.0, AMU30)
    assert empty.pressure == 0.0 and empty.number_density == 0.0


def test_collision_rate_zero_radius():
    assert collision_rate(4.8e15, 0.0) == 0.0


# ----------------------------------------------------------------- dilution

def test_dilution_from_sphere():
    assert dilution_from_sphere(5.0, 2e-7, 2e-7) == pytest.approx(5.0, rel=1e-12)
    n1 = dilution_from_sphere(5.0, 2e-7, 1e-3)
    n2 = dilution_from_sphere(5.0, 2e-7, 2e-3)
    assert n2 == pytest.approx(0.25 * n1, rel=1e-12)
    with pytest.raises(ValueError):
        dilution_from_sphere(5.0, 2e-7, 1e-7)


def test_dilution_from_patch_reference_case():
    # 1 mm-diameter emitting spot seen from 10 cm; frozen A/(2 x^2) value
    area = math.pi * (0.5e-3) ** 2
    suppression = dilution_from_patch(1.0, area, 0.1)
    assert suppression == pytest.approx(3.926990816987241e-5, rel=1e-12)
    assert suppression / 3e-5 < 1.5
    with pytest.raises(ValueError):
        dilution_from_patch(1.0, area, 1e-4)


# ----------------------------------------------------- temperature scaling

def test_arrhenius_residence_limits():
    assert arrhenius_residence(2.0, 5e4, 1e12) == pytest.approx(2.0, rel=1e-6)
    tau = arrhenius_residence(1.0, 5e4, 300.0)
    bumped = arrhenius_residence(
        1.0, 5e4 + CONSTANTS.gas_constant_R * 300.0 * math.log(2.0), 300.0)
    assert bumped == pytest.approx(2.0 * tau, rel=1e-12)


def test_arrhenius_acceleration_factors_imply_band_energies():
    # a factor 3..10 per 25 K step at room temperature pins the activation
    # energy to the 10..30 room-energy band
    for factor, expected_units in ((3.0, 12.0847351801), (10.0, 25.3284360209)):
        e_a = (CONSTANTS.gas_constant_R * math.log(factor)
               / (1.0 / 275.0 - 1.0 / 300.0))
        ratio = arrhenius_residence(1.0, e_a, 275.0) / arrhenius_residence(
            1.0, e_a, 300.0)
        assert ratio == pytest.approx(factor, rel=1e-9)
        room_units = e_a / (CONSTANTS.gas_constant_R * ROOM_TEMPERATURE)
        assert room_units == pytest.approx(expected_units, rel=1e-9)
        assert 10.0 < room_units < 30.0


def test_pressure_attenuation_reference_values():
    assert pressure_attenuation(0.0, 300.0, 30.0) == pytest.approx(
        math.sqrt(10.0), rel=1e-12)
    # frozen: sqrt(10) * exp(E/k_B (1/30 - 1/300)) at 10 and 30 room energies
    assert pressure_attenuation(10.0, 300.0, 30.0) == pytest.approx(
        3.859254074017204e39, rel=1e-9)
    assert pressure_attenuation(30.0, 300.0, 30.0) == pytest.approx(
        5.747912044644166e117, rel=1e-9)
    for units in (0.0, 1.0, 10.0, 30.0):
        assert pressure_attenuation(units, 300.0, 30.0) > 1.0
    with pytest.raises(ValueError):
        pressure_attenuation(10.0, 30.0, 300.0)


# ------------------------------------------------------------------ thermal

def test_bake_out_power_reference_values():
    # frozen Stefan-Boltzmann values; both land within 2% of the 105 W /
    # 330 W design figures
    p300 = bake_out_power(0.23, 300.0)
    p400 = bake_out_power(0.23, 400.0)
    assert p300 == pytest.approx(105.63907542597, rel=1e-10)
    assert p400 == pytest.approx(333.87164579072, rel=1e-10)
    assert p300 == pytest.approx(105.0, rel=0.02)
    assert p400 == pytest.approx(330.0, rel=0.02)
    assert bake_out_power(0.23, 0.0) == 0.0
    assert bake_out_power(0.23, 600.0) == pytest.approx(16.0 * p300, rel=1e-12)
    assert bake_out_power(0.23, 300.0, emissivity=0.5) == pytest.approx(
        0.5 * p300, rel=1e-12)
    with pytest.raises(ValueError):
        bake_out_power(0.23, 300.0, emissivity=1.5)


# ------------------------------------------------------------------ presets

def test_packaged_materials_round_trip():
    temperature, species, summaries, source = load_materials()
    assert source == "<packaged materials.yaml>"
    assert temperature == 300.0
    assert set(species) == {"adhesive_ec2216", "cfrp", "kapton"}
    assert set(summaries) == {"cfrp", "kapton", "adhesives"}
    cfrp = species["cfrp"]
    assert cfrp.species[0].tml_percent == 0.207
    assert cfrp.species[0].residence_time == pytest.approx(2e3 * HOUR)
    assert summaries["cfrp"].gamma0 == 4.8e15
    assert summaries["cfrp"].pressure == pytest.approx(7.1e-10 * MBAR)
    # both quoted adhesive residence times survive, unreconciled: the per-
    # species table says 1.2e3 h, the emission summary says 1.2e4 h
    assert species["adhesive_ec2216"].species[0].residence_time == \
        pytest.approx(1.2e3 * HOUR)
    assert summaries["adhesives"].residence_time == pytest.approx(1.2e4 * HOUR)


def test_material_validation():
    with pytest.raises(ValueError):
        OutgassingSpecies(tml_percent=101.0, residence_time=1.0,
                          species_mass=AMU30)
    with pytest.raises(ValueError):
        MaterialOutgassing(name="x", total_mass=1.0, species=(),
                           emitting_area=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: OutgassingSpecies(0.2, 0.0, AMU30),
     "residence time must be positive"),
    (lambda: OutgassingSpecies(0.2, HOUR, 0.0), "species mass must be positive"),
    (lambda: single_species_material(total_mass=0.0),
     "total mass and emitting area must be positive"),
    (lambda: outgassing_rate(single_species_material(), -1.0),
     "time must be non-negative"),
    (lambda: steady_state(-1.0, 300.0, AMU30),
     "emission rate must be non-negative"),
    (lambda: steady_state(1e14, 0.0, AMU30),
     "temperature and species mass must be positive"),
    (lambda: dilution_from_sphere(5.0, 0.0, 1e-3),
     "sphere radius must be positive"),
    (lambda: dilution_from_patch(1.0, 0.0, 0.1), "emitting area must be positive"),
    (lambda: implied_emitting_area(1e-12, AMU30, 0.0),
     "emission rate must be positive"),
    (lambda: arrhenius_residence(0.0, 5e4, 300.0),
     "tau0 and temperature must be positive"),
    (lambda: pressure_attenuation(-1.0, 300.0, 30.0),
     "activation energy must be non-negative"),
    (lambda: bake_out_power(0.0, 300.0), "area must be positive"),
    (lambda: bake_out_power(0.23, -1.0), "temperature must be non-negative"),
], ids=["residence-time", "species-mass", "total-mass", "time", "gamma0",
        "temperature", "sphere-radius", "patch-area", "implied-area", "tau0",
        "activation-energy", "bake-area", "bake-temperature"])
def test_range_checks_name_the_bad_quantity(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
