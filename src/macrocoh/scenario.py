"""Domain records for a trapped-nanosphere experiment and derived kinematics.

A Scenario bundles the particle, its environment, and the optical trap.  The
kinematic helpers give the ground-state width of the trapped oscillator and
the spreading velocity of the freely expanding wave packet, chosen such that
the free-evolution width is sigma(t) = sqrt(x0^2 + v_m^2 t^2).
"""

import math
from functools import cache, cached_property

from . import config
from .constants import CONSTANTS
from .expansion import ExpansionKinematics
from .numerics import all_true, any_true, power, sqrt

# Typical mechanical frequency for a nanosphere in a ~10 um-waist optical
# trap; a configuration input, not derivable from trap power alone.
DEFAULT_TRAP_FREQUENCY = 2.0 * math.pi * 1e5  # rad/s


@config.record
class ComplexPermittivity:
    """Relative permittivity; imaginary part >= 0 for a passive material."""

    real_part: float
    imag_part: float

    def __post_init__(self):
        if self.imag_part < 0.0:
            raise ValueError("passive material requires Im(eps) >= 0")
        if self.as_complex() == -2.0:
            raise ValueError("eps = -2 has no Clausius-Mossotti factor")

    def as_complex(self):
        return complex(self.real_part, self.imag_part)


@config.record
class Particle:
    radius: float    # m
    density: float   # kg/m^3
    permittivity_trap: ComplexPermittivity  # at the trapping wavelength
    permittivity_bb: ComplexPermittivity    # spectrally constant thermal-band value

    def __post_init__(self):
        if not all_true(self.radius > 0.0):
            raise ValueError("particle radius must be positive")
        if not self.density > 0.0:
            raise ValueError("particle density must be positive")

    @cached_property
    def radius_cubed(self):
        """r^3 in m^3, one libm pass per particle (or radius column)."""
        return power(self.radius, 3)

    @cached_property
    def mass(self):
        """Mass in kg of the homogeneous sphere, (4/3) pi r^3 rho; an
        OverflowError when it exceeds the float range."""
        mass = 4.0 / 3.0 * math.pi * self.radius_cubed * self.density
        if any_true(mass == math.inf):
            raise OverflowError("particle mass (4/3) pi r^3 rho overflows "
                                "a float")
        return mass


@config.record
class Environment:
    temperature: float        # K
    pressure: float           # Pa
    gas_particle_mass: float  # kg

    def __post_init__(self):
        # temperature 0 is admitted as the no-radiation limiting case
        if self.temperature < 0.0 or self.pressure < 0.0:
            raise ValueError("temperature and pressure must be non-negative")
        if not self.gas_particle_mass > 0.0:
            raise ValueError("gas particle mass must be positive")


@config.record
class Trap:
    wavelength: float            # m
    power: float                 # W
    waist: float                 # m
    internal_temperature: float  # K, steady-state temperature of the trapped sphere
    angular_frequency: float = DEFAULT_TRAP_FREQUENCY  # rad/s, mechanical frequency

    def __post_init__(self):
        for name in ("wavelength", "power", "waist", "angular_frequency"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"trap {name} must be positive")
        if self.internal_temperature < 0.0:
            raise ValueError("internal temperature must be non-negative")


@config.record
class Scenario:
    particle: Particle
    environment: Environment
    trap: Trap
    label: str = ""

    def with_radius(self, radius):
        """Same material/environment/trap with a different sphere radius."""
        return config.replace(
            self, particle=config.replace(self.particle, radius=radius))

    @cached_property
    def kinematics(self):
        """ExpansionKinematics of the particle released from its trap, one
        evaluation per scenario (or radius column)."""
        mass = self.particle.mass
        x0 = ground_state_width(mass, self.trap.angular_frequency)
        return ExpansionKinematics(x0=x0, v_m=expansion_velocity(mass, x0))


def ground_state_width(mass, omega):
    """Ground-state extension sqrt(hbar / (2 m omega)) of a harmonic trap."""
    if not (all_true(mass > 0.0) and omega > 0.0):
        raise ValueError("mass and trap frequency must be positive")
    return sqrt(CONSTANTS.hbar / (2.0 * mass * omega))


def expansion_velocity(mass, x0):
    """Spreading velocity hbar / (2 m x0) of the released Gaussian wave packet."""
    if not (all_true(mass > 0.0) and all_true(x0 > 0.0)):
        raise ValueError("mass and ground-state width must be positive")
    return CONSTANTS.hbar / (2.0 * mass * x0)


def clausius_mossotti(eps):
    """Polarizability factor (eps - 1) / (eps + 2) as a complex number."""
    value = eps.as_complex()
    return (value - 1.0) / (value + 2.0)


def scenario_kinematics(scenario):
    """(mass, x0, v_m) of the scenario's particle in its trap."""
    kin = scenario.kinematics
    return scenario.particle.mass, kin.x0, kin.v_m


def _permittivity_from(doc, key, path):
    sub = config.section(doc, key, path)
    path = f"{path}.{key}"
    return config.build(ComplexPermittivity, path,
                        real_part=config.number(sub, "real", path),
                        imag_part=config.number(sub, "imag", path))


def scenario_from_mapping(doc, source="<scenario>"):
    """Build a Scenario from a parsed configuration mapping."""
    part = config.section(doc, "particle", source)
    env = config.section(doc, "environment", source)
    trap = config.section(doc, "trap", source)

    particle = config.build(
        Particle, f"{source}.particle",
        radius=config.quantity(part, f"{source}.particle",
                               {"radius_m": 1.0, "radius_nm": 1e-9}),
        density=config.number(part, "density_kg_m3", f"{source}.particle"),
        permittivity_trap=_permittivity_from(part, "permittivity_trap",
                                             f"{source}.particle"),
        permittivity_bb=_permittivity_from(part, "permittivity_bb",
                                           f"{source}.particle"),
    )
    environment = config.build(
        Environment, f"{source}.environment",
        temperature=config.number(env, "temperature_K", f"{source}.environment"),
        pressure=config.quantity(env, f"{source}.environment",
                                 {"pressure_Pa": 1.0, "pressure_mbar": 100.0}),
        gas_particle_mass=config.quantity(
            env, f"{source}.environment",
            {"gas_mass_kg": 1.0, "gas_mass_amu": CONSTANTS.m_u}),
    )
    if environment.temperature == 0.0 and environment.pressure > 0.0:
        # a gas at rest has no thermal velocity, so its collision rate is
        # undefined; the radiation-only zero-temperature limit needs p = 0
        raise config.ConfigError(
            f"{source}.environment.temperature_K: must be positive when the "
            "gas pressure is non-zero")
    trap_rec = config.build(
        Trap, f"{source}.trap",
        wavelength=config.quantity(trap, f"{source}.trap",
                                   {"wavelength_m": 1.0, "wavelength_nm": 1e-9}),
        power=config.number(trap, "power_W", f"{source}.trap"),
        waist=config.quantity(trap, f"{source}.trap",
                              {"waist_m": 1.0, "waist_um": 1e-6}),
        internal_temperature=config.number(trap, "internal_temperature_K",
                                           f"{source}.trap"),
        angular_frequency=config.number(trap, "frequency_rad_s", f"{source}.trap",
                                        default=DEFAULT_TRAP_FREQUENCY),
    )
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise config.ConfigError(f"{source}.label: expected a string")
    return Scenario(particle=particle, environment=environment, trap=trap_rec,
                    label=label)


def load_scenario(path):
    return scenario_from_mapping(*config.load_document(path))


PRESET_FILES = {
    "fig2_baseline": "baseline_fig2.yaml",
    "fig3_left": "fig3_left.yaml",
    "fig3_right": "fig3_right.yaml",
}


@cache  # the packaged file cannot change, and the records are frozen
def load_preset(name):
    """One named scenario shipped with the package."""
    if name not in PRESET_FILES:
        raise config.ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESET_FILES)}")
    doc, source = config.load_document(None, "scenarios", PRESET_FILES[name])
    return scenario_from_mapping(doc, source=source)


def scenario_presets():
    """Named scenarios shipped with the package."""
    return {name: load_preset(name) for name in PRESET_FILES}
