"""Domain records, derived kinematics, and scenario loading."""

import math

import pytest

from macrocoh import (CONSTANTS, ComplexPermittivity, Environment, Particle,
                      PhysicalConstants, Scenario, Trap, clausius_mossotti,
                      expansion_velocity, ground_state_width,
                      scenario_kinematics)
from macrocoh.config import ConfigError, replace
from macrocoh.scenario import load_preset, load_scenario, scenario_from_mapping
from macrocoh.testability import scenario_presets

SILICA = 2201.0  # kg/m^3
EPS_BB = ComplexPermittivity(2.1, 0.57)
EPS_TRAP = ComplexPermittivity(2.1, 2.5e-10)


def make_particle(radius=90e-9, density=SILICA):
    return Particle(radius=radius, density=density,
                    permittivity_trap=EPS_TRAP, permittivity_bb=EPS_BB)


def test_constants_positive_and_planck_identity():
    c = CONSTANTS
    for name, value in vars(c).items():
        assert value > 0.0, name
    assert c.planck_length == pytest.approx(
        math.sqrt(c.G * c.hbar / c.c**3), rel=1e-6)
    assert c.zeta9 == pytest.approx(1.00201, rel=1e-5)


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)


def test_particle_mass_baseline():
    # frozen from a 40-digit evaluation of (4/3) pi r^3 rho
    assert make_particle().mass == pytest.approx(
        6.7210353584957031e-18, rel=1e-12)


def test_particle_mass_cubic_scaling_and_degenerate_limit():
    m1 = make_particle(radius=50e-9).mass
    m2 = make_particle(radius=100e-9).mass
    assert m2 == pytest.approx(8.0 * m1, rel=1e-12)
    assert make_particle(radius=1e-30).mass < 1e-80


def test_particle_mass_monotone_in_radius_and_density():
    radii = [1e-9 * 3**k for k in range(8)]
    masses = [make_particle(radius=r).mass for r in radii]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    densities = [100.0 * 2**k for k in range(8)]
    masses = [make_particle(density=d).mass for d in densities]
    assert all(a < b for a, b in zip(masses, masses[1:]))


def test_particle_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_particle(radius=0.0)
    with pytest.raises(ValueError):
        make_particle(density=-1.0)


def test_ground_state_width_baseline():
    mass = 6.7210353584957031e-18
    omega = 2.0 * math.pi * 1e5
    # frozen: sqrt(hbar / (2 m omega))
    assert ground_state_width(mass, omega) == pytest.approx(
        3.5335810589322331e-12, rel=1e-12)


def test_ground_state_width_identities():
    mass, omega = 3e-18, 5e5
    x0 = ground_state_width(mass, omega)
    assert x0**2 * 2.0 * mass * omega / CONSTANTS.hbar == pytest.approx(1.0, rel=1e-12)
    assert ground_state_width(mass, 4.0 * omega) == pytest.approx(0.5 * x0, rel=1e-12)
    with pytest.raises(ValueError):
        ground_state_width(0.0, omega)
    with pytest.raises(ValueError):
        ground_state_width(mass, -1.0)


def test_expansion_velocity_baseline_and_identity():
    mass = 6.7210353584957031e-18
    x0 = 3.5335810589322331e-12
    # frozen: hbar / (2 m x0)
    assert expansion_velocity(mass, x0) == pytest.approx(
        2.2202144591211091e-06, rel=1e-12)
    assert expansion_velocity(mass, x0) * x0 == pytest.approx(
        CONSTANTS.hbar / (2.0 * mass), rel=1e-12)
    with pytest.raises(ValueError):
        expansion_velocity(mass, 0.0)


def test_mass_scaling_of_kinematics():
    # at fixed omega, doubling the mass shrinks both x0 and v_m by sqrt(2)
    omega = 2.0 * math.pi * 1e5
    m = 5e-18
    x0_a = ground_state_width(m, omega)
    x0_b = ground_state_width(2.0 * m, omega)
    assert x0_b == pytest.approx(x0_a / math.sqrt(2.0), rel=1e-12)
    v_a = expansion_velocity(m, x0_a)
    v_b = expansion_velocity(2.0 * m, x0_b)
    assert v_b == pytest.approx(v_a / math.sqrt(2.0), rel=1e-12)


def test_clausius_mossotti_values():
    assert clausius_mossotti(ComplexPermittivity(1.0, 0.0)) == 0.0

    # independent oracle: explicit real arithmetic for (eps-1)/(eps+2)
    a, b = 2.1, 0.57
    den = (a + 2.0) ** 2 + b**2
    expected = complex(((a - 1.0) * (a + 2.0) + b**2) / den, 3.0 * b / den)
    got = clausius_mossotti(ComplexPermittivity(a, b))
    assert got.real == pytest.approx(expected.real, rel=1e-14)
    assert got.imag == pytest.approx(expected.imag, rel=1e-14)
    # frozen values of the same oracle
    assert got.real == pytest.approx(0.28216680575900647, rel=1e-12)
    assert got.imag == pytest.approx(0.09979632212618691, rel=1e-12)

    assert clausius_mossotti(ComplexPermittivity(3.7, 0.0)).imag == 0.0
    with pytest.raises(ValueError):
        clausius_mossotti(ComplexPermittivity(-2.0, 0.0))


def test_clausius_mossotti_imag_sign_over_grid():
    for re in (1.1, 1.5, 2.1, 4.0, 12.0):
        for im in (0.0, 1e-10, 0.57, 2.0):
            value = clausius_mossotti(ComplexPermittivity(re, im))
            assert value.imag >= 0.0
            assert math.isfinite(value.real) and math.isfinite(value.imag)


def test_permittivity_rejects_gain():
    with pytest.raises(ValueError):
        ComplexPermittivity(2.1, -0.1)


def test_environment_and_trap_validation():
    with pytest.raises(ValueError):
        Environment(temperature=-1.0, pressure=0.0, gas_particle_mass=1e-27)
    with pytest.raises(ValueError):
        Environment(temperature=300.0, pressure=1.0, gas_particle_mass=0.0)
    with pytest.raises(ValueError):
        Trap(wavelength=0.0, power=0.1, waist=1e-5, internal_temperature=98.0)
    # zero internal temperature is the no-emission limiting case
    Trap(wavelength=1e-6, power=0.1, waist=1e-5, internal_temperature=0.0)


def test_baseline_preset_values():
    sc = scenario_presets()["fig2_baseline"]
    assert sc.particle.radius == pytest.approx(90e-9, rel=1e-12)
    assert sc.particle.density == 2201.0
    assert sc.particle.permittivity_bb == ComplexPermittivity(2.1, 0.57)
    assert sc.particle.permittivity_trap == ComplexPermittivity(2.1, 2.5e-10)
    assert sc.environment.temperature == 32.0
    assert sc.environment.pressure == 1e-12
    assert sc.trap.internal_temperature == 98.0
    assert sc.trap.power == 0.1
    assert sc.trap.waist == pytest.approx(10e-6, rel=1e-12)
    mass, x0, v_m = scenario_kinematics(sc)
    assert mass == pytest.approx(6.7210353584957031e-18, rel=1e-9)


def test_scenario_with_radius_keeps_everything_else():
    sc = scenario_presets()["fig2_baseline"]
    other = sc.with_radius(50e-9)
    assert other.particle.radius == 50e-9
    assert other.particle.density == sc.particle.density
    assert other.environment == sc.environment
    assert other.trap == sc.trap


def test_loader_accepts_mbar_and_km_style_units(tmp_path):
    doc = {
        "label": "unit check",
        "particle": {
            "radius_nm": 90.0, "density_kg_m3": 2201.0,
            "permittivity_trap": {"real": 2.1, "imag": 2.5e-10},
            "permittivity_bb": {"real": 2.1, "imag": 0.57},
        },
        "environment": {"temperature_K": 32.0, "pressure_mbar": 1e-14,
                        "gas_mass_amu": 2.0},
        "trap": {"wavelength_nm": 1064.0, "power_W": 0.1, "waist_um": 10.0,
                 "internal_temperature_K": 98.0},
    }
    sc = scenario_from_mapping(doc)
    assert sc.environment.pressure == pytest.approx(1e-12, rel=1e-12)
    assert sc.environment.gas_particle_mass == pytest.approx(
        2.0 * CONSTANTS.m_u, rel=1e-12)
    assert sc.trap.angular_frequency == pytest.approx(2e5 * math.pi, rel=1e-12)


def test_loader_names_missing_field(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(
        "label: broken\n"
        "particle:\n"
        "  radius_nm: 90.0\n"
        "  density_kg_m3: 2201.0\n"
        "  permittivity_trap: {real: 2.1, imag: 0.0}\n"
        "  permittivity_bb: {real: 2.1, imag: 0.57}\n"
        "environment:\n"
        "  pressure_Pa: 1.0e-12\n"
        "  gas_mass_amu: 2.0\n"
        "trap: {wavelength_nm: 1064.0, power_W: 0.1, waist_um: 10.0,"
        " internal_temperature_K: 98.0}\n")
    with pytest.raises(ConfigError, match="temperature_K"):
        load_scenario(path)


def test_loader_rejects_ambiguous_units(tmp_path):
    doc = {
        "particle": {
            "radius_nm": 90.0, "radius_m": 9e-8, "density_kg_m3": 2201.0,
            "permittivity_trap": {"real": 2.1, "imag": 0.0},
            "permittivity_bb": {"real": 2.1, "imag": 0.57},
        },
        "environment": {"temperature_K": 32.0, "pressure_Pa": 1e-12,
                        "gas_mass_amu": 2.0},
        "trap": {"wavelength_nm": 1064.0, "power_W": 0.1, "waist_um": 10.0,
                 "internal_temperature_K": 98.0},
    }
    with pytest.raises(ConfigError, match="only one of"):
        scenario_from_mapping(doc)


def test_records_are_read_only_and_cache_derived_values():
    particle = make_particle()
    with pytest.raises(AttributeError, match="frozen"):
        particle.radius = 1e-7
    with pytest.raises(AttributeError, match="frozen"):
        del particle.density
    assert particle.radius == 90e-9
    assert particle.mass is particle.mass  # cached_property, computed once
    assert vars(particle)["mass"] == particle.mass


def test_replace_checks_the_new_record():
    particle = make_particle()
    assert replace(particle, radius=50e-9) == make_particle(radius=50e-9)
    with pytest.raises(ValueError, match="radius must be positive"):
        replace(particle, radius=-1.0)
    with pytest.raises(TypeError):
        replace(particle, diameter=1e-7)
    assert particle.radius == 90e-9


def test_records_compare_hash_and_print_by_their_fields():
    assert load_preset("fig3_left") == scenario_presets()["fig3_left"]
    assert hash(load_preset("fig3_left")) == hash(load_preset("fig3_left"))
    assert load_preset("fig3_left") != load_preset("fig2_baseline")
    assert ComplexPermittivity(2.1, 0.57) == EPS_BB
    assert ComplexPermittivity(2.1, 0.57) != (2.1, 0.57)
    assert repr(EPS_BB) == "ComplexPermittivity(real_part=2.1, imag_part=0.57)"
    assert Trap(1064e-9, 0.1, 1e-5, 98.0).angular_frequency == \
        2.0 * math.pi * 1e5
    with pytest.raises(TypeError, match="missing field 'imag_part'"):
        ComplexPermittivity(2.1)
    with pytest.raises(TypeError):
        ComplexPermittivity(2.1, 0.57, real_part=2.0)


@pytest.mark.parametrize("temperature", [-1.0, -math.inf])
def test_trap_rejects_a_negative_internal_temperature(temperature):
    with pytest.raises(ValueError) as exc:
        Trap(1064e-9, 0.1, 1e-5, temperature)
    assert str(exc.value) == "internal temperature must be non-negative"
