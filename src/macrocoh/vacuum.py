"""Outgassing, residual-gas, and radiative-thermal models for the vacuum budget.

Workflow: material outgassing presets give a mass-loss rate D_out(t); dividing
by species mass and emitting area turns it into a particle emission rate
gamma0, from which steady-state density, pressure, and sphere collision rate
follow.  Geometric dilution and Arrhenius temperature scaling quantify how
distance and cold operation suppress those figures, and the Stefan-Boltzmann
law sizes the bake-out heating power.
"""

import math

from . import config
from .constants import CONSTANTS

ROOM_TEMPERATURE = 300.0  # K, reference for activation energies
HOUR = 3600.0
MBAR = 100.0  # Pa
# the unit-suffixed spellings of a preset field, each with its factor to SI
RESIDENCE_TIME_KEYS = {"residence_time_s": 1.0, "residence_time_h": HOUR}
SPECIES_MASS_KEYS = {"species_mass_kg": 1.0, "species_mass_amu": CONSTANTS.m_u}


@config.record
class OutgassingSpecies:
    tml_percent: float     # total mass loss, percent of material mass
    residence_time: float  # s
    species_mass: float    # kg

    def __post_init__(self):
        if not 0.0 <= self.tml_percent <= 100.0:
            raise ValueError("TML must be between 0 and 100 percent")
        if not self.residence_time > 0.0:
            raise ValueError("residence time must be positive")
        if not self.species_mass > 0.0:
            raise ValueError("species mass must be positive")


@config.record
class MaterialOutgassing:
    name: str
    total_mass: float      # kg
    species: tuple         # OutgassingSpecies entries
    emitting_area: float   # m^2

    def __post_init__(self):
        if not self.species:
            raise ValueError("material needs at least one outgassing species")
        if not (self.total_mass > 0.0 and self.emitting_area > 0.0):
            raise ValueError("total mass and emitting area must be positive")


@config.record
class GasState:
    """Steady state above an outgassing plane; P = n k_B T by construction."""

    emission_rate_gamma0: float  # 1/(m^2 s)
    number_density: float        # 1/m^3
    pressure: float              # Pa
    temperature: float           # K


@config.record
class EmissionSummary:
    """A measured outgassing summary row (SI units after loading)."""

    name: str
    mass_loss_rate: float   # kg/s
    species_mass: float     # kg
    residence_time: float   # s
    gamma0: float           # 1/(m^2 s)
    pressure: float         # Pa
    number_density: float   # 1/m^3
    collision_rate: float   # 1/s, for the reference sphere radius

    def __post_init__(self):
        for label, value in (("species mass", self.species_mass),
                             ("residence time", self.residence_time),
                             ("emission rate", self.gamma0)):
            if not value > 0.0:
                raise ValueError(f"{label} must be positive")
        for label, value in (("mass-loss rate", self.mass_loss_rate),
                             ("pressure", self.pressure),
                             ("number density", self.number_density),
                             ("collision rate", self.collision_rate)):
            if not value >= 0.0:
                raise ValueError(f"{label} must be non-negative")


def outgassing_rate(material, t):
    """Mass-loss rate D_out(t) in kg/s, summed over species.

    D_out = m_tot * sum_i (TML_i/100) * exp(-t/tau_i) / tau_i.
    """
    if t < 0.0:
        raise ValueError("time must be non-negative")
    return material.total_mass * sum(
        s.tml_percent / 100.0 * math.exp(-t / s.residence_time) / s.residence_time
        for s in material.species)


def emission_rate(material, t):
    """Particle emission rate gamma0 = D_out / (m_i A_out), 1/(m^2 s).

    Only defined for a single dominant species, as in the shipped presets.
    """
    if len(material.species) != 1:
        raise ValueError("emission rate needs a single dominant species")
    return (outgassing_rate(material, t)
            / (material.species[0].species_mass * material.emitting_area))


def steady_state(gamma0, temperature, species_mass):
    """Steady-state GasState over an infinite outgassing plane.

    Uses the one-dimensional thermal velocity v = sqrt(k_B T / m): the flux
    balance gamma0 = n v closes with this convention (the mean outward speed),
    and it reproduces the measured summary rows.  Then n = gamma0 / v and
    P = n k_B T.
    """
    if gamma0 < 0.0:
        raise ValueError("emission rate must be non-negative")
    if not (temperature > 0.0 and species_mass > 0.0):
        raise ValueError("temperature and species mass must be positive")
    v = math.sqrt(CONSTANTS.k_B * temperature / species_mass)
    density = gamma0 / v
    return GasState(emission_rate_gamma0=gamma0,
                    number_density=density,
                    pressure=density * CONSTANTS.k_B * temperature,
                    temperature=temperature)


def collision_rate(gamma0, sphere_radius):
    """Gas-collision rate gamma0 * pi * R_s^2 on a sphere, 1/s."""
    if sphere_radius < 0.0:
        raise ValueError("sphere radius must be non-negative")
    return gamma0 * math.pi * sphere_radius**2


def dilution_from_sphere(n0, sphere_radius, distance):
    """Density at distance x from an outgassing sphere: n0 R_s^2 / x^2."""
    if not sphere_radius > 0.0:
        raise ValueError("sphere radius must be positive")
    if distance < sphere_radius:
        raise ValueError("distance lies inside the source sphere")
    return n0 * (sphere_radius / distance) ** 2


def dilution_from_patch(n0, emitting_area, distance):
    """Density at distance x from a small emitting patch: n0 A / (2 x^2).

    Valid in the far field, distance well beyond the patch extent.
    """
    if not emitting_area > 0.0:
        raise ValueError("emitting area must be positive")
    if distance < math.sqrt(emitting_area):
        raise ValueError("distance must exceed the patch extent")
    return n0 * emitting_area / (2.0 * distance**2)


def implied_emitting_area(mass_loss_rate, species_mass, gamma0):
    """Emitting area A_out = D_out / (m_i gamma0) consistent with a summary row."""
    if not gamma0 > 0.0:
        raise ValueError("emission rate must be positive")
    return mass_loss_rate / (species_mass * gamma0)


def arrhenius_residence(tau0, activation_energy, temperature):
    """Residence time tau0 * exp(E_A / (R T)); E_A in J/mol."""
    if not (tau0 > 0.0 and temperature > 0.0):
        raise ValueError("tau0 and temperature must be positive")
    return tau0 * math.exp(
        activation_energy / (CONSTANTS.gas_constant_R * temperature))


def pressure_attenuation(activation_room_units, t_hot, t_cold):
    """Vapor-pressure ratio P(t_hot) / P(t_cold) under P ~ sqrt(T) exp(-E_A/RT).

    The per-particle activation energy is given in multiples of the room
    energy k_B * 300 K, so E_A/k_B = activation_room_units * 300 K.
    """
    if not t_hot > t_cold > 0.0:
        raise ValueError("need t_hot > t_cold > 0")
    if activation_room_units < 0.0:
        raise ValueError("activation energy must be non-negative")
    exponent = activation_room_units * ROOM_TEMPERATURE * (1.0 / t_cold - 1.0 / t_hot)
    return math.sqrt(t_hot / t_cold) * math.exp(exponent)


def bake_out_power(area, temperature, emissivity=1.0):
    """Radiated power eps * sigma * A * T^4 of a bake-out surface, in W."""
    if not area > 0.0:
        raise ValueError("area must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    if not 0.0 < emissivity <= 1.0:
        raise ValueError("emissivity must lie in (0, 1]")
    return emissivity * CONSTANTS.stefan_boltzmann * area * temperature**4


def _material_from_mapping(name, doc, path):
    species = config.build(
        OutgassingSpecies, path,
        tml_percent=config.number(doc, "tml_percent", path),
        residence_time=config.quantity(doc, path, RESIDENCE_TIME_KEYS),
        species_mass=config.quantity(doc, path, SPECIES_MASS_KEYS),
    )
    # mass and area are normalization choices when a preset does not fix them
    return config.build(
        MaterialOutgassing, path,
        name=name,
        total_mass=config.number(doc, "total_mass_kg", path, default=1.0),
        species=(species,),
        emitting_area=config.number(doc, "emitting_area_m2", path, default=1.0),
    )


def _summary_from_mapping(name, doc, path):
    return config.build(
        EmissionSummary, path,
        name=name,
        mass_loss_rate=config.number(doc, "d_out_kg_s", path),
        species_mass=config.quantity(doc, path, SPECIES_MASS_KEYS),
        residence_time=config.quantity(doc, path, RESIDENCE_TIME_KEYS),
        gamma0=config.number(doc, "gamma0_per_m2_s", path),
        pressure=config.quantity(
            doc, path, {"pressure_Pa": 1.0, "pressure_mbar": MBAR}),
        number_density=config.number(doc, "number_density_per_m3", path),
        collision_rate=config.number(doc, "collision_rate_per_s", path),
    )


def load_materials(path=None):
    """Load material presets; returns (temperature_K, species dict, summary
    dict, source name)."""
    doc, source = config.load_document(path, "materials.yaml")
    temperature = config.number(doc, "temperature_K", source)
    if not temperature > 0.0:
        raise config.ConfigError(f"{source}.temperature_K: must be positive")
    species = {name: _material_from_mapping(name, entry, path)
               for name, entry, path in config.entries(doc, "species_table", source)}
    summaries = {name: _summary_from_mapping(name, entry, path)
                 for name, entry, path in config.entries(doc, "summary_table", source)}
    return temperature, species, summaries, source
