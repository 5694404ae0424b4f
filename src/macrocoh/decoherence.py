"""Environmental decoherence channels for an optically trapped nanosphere.

Four channels: scattering of residual gas (a constant, separation-independent
rate that upper-bounds the true one), and scattering, absorption, and
emission of thermal photons (quadratic laws with coefficient Lambda in
1/(m^2 s)).  Scattering and absorption see the environment temperature;
emission sees the internal temperature of the sphere.  All blackbody
channels assume a spectrally constant permittivity over the thermal band.
Every coefficient is a closed form; the quadrature of the full emission
spectrum that checks `bb_emit_lambda` lives with the tests.
"""

import math

from .config import record
from .constants import CONSTANTS
from .expansion import DecoherenceSpec
from .numerics import any_true, power
from .scenario import clausius_mossotti


def gas_collision_rate(particle, env):
    """Constant decoherence rate from residual-gas scattering, 1/s.

    2 sqrt(6 pi) r^2 p / (m_a v_a) with the root-mean-square thermal velocity
    v_a = sqrt(3 k_B T / m_a).
    """
    if env.pressure == 0.0:
        return 0.0
    if env.temperature == 0.0:
        raise ValueError("finite pressure at zero temperature is inconsistent")
    v_a = math.sqrt(3.0 * CONSTANTS.k_B * env.temperature / env.gas_particle_mass)
    return (2.0 * math.sqrt(6.0 * math.pi) * power(particle.radius, 2)
            * env.pressure
            / (env.gas_particle_mass * v_a))


def bb_scatter_lambda(particle, env):
    """Decoherence coefficient for scattering of thermal photons, 1/(m^2 s)."""
    cm_re = clausius_mossotti(particle.permittivity_bb).real
    theta = CONSTANTS.k_B * env.temperature / (CONSTANTS.c * CONSTANTS.hbar)
    return (8.0 * math.factorial(8) * power(particle.radius, 6) * CONSTANTS.c
            * CONSTANTS.zeta9 / (9.0 * math.pi) * theta**9 * cm_re**2)


def _bb_photon_lambda(particle, temperature):
    # shared closed form for the absorption and emission channels
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    cm_im = clausius_mossotti(particle.permittivity_bb).imag
    theta = CONSTANTS.k_B * temperature / (CONSTANTS.c * CONSTANTS.hbar)
    return (16.0 * math.pi**5 * particle.radius_cubed * CONSTANTS.c / 189.0
            * theta**6 * cm_im)


def bb_absorb_lambda(particle, env):
    """Decoherence coefficient for absorption of thermal photons, 1/(m^2 s).

    Evaluated at the environment temperature: absorption is driven by the
    photon field the sphere sits in, not by its own temperature.
    """
    return _bb_photon_lambda(particle, env.temperature)


def bb_emit_lambda(particle, internal_temperature):
    """Decoherence coefficient for emission of thermal photons, 1/(m^2 s)."""
    return _bb_photon_lambda(particle, internal_temperature)


@record
class ChannelRates:
    """Per-channel decoherence parameters of a scenario."""

    gas_rate: float           # 1/s
    lambda_bb_scatter: float  # 1/(m^2 s)
    lambda_bb_absorb: float   # 1/(m^2 s)
    lambda_bb_emit: float     # 1/(m^2 s)

    def __post_init__(self):
        for name, value in vars(self).items():
            if any_true(value < 0.0):
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_lambda(self):
        """Combined quadratic coefficient; the lambda channels add."""
        return (self.lambda_bb_scatter + self.lambda_bb_absorb
                + self.lambda_bb_emit)

    def as_decoherence_spec(self):
        return DecoherenceSpec(quadratic_lambda=self.total_lambda,
                               constant_rate=self.gas_rate)


def qm_channel_rates(scenario):
    """All four standard decoherence channels of a scenario."""
    particle = scenario.particle
    return ChannelRates(
        gas_rate=gas_collision_rate(particle, scenario.environment),
        lambda_bb_scatter=bb_scatter_lambda(particle, scenario.environment),
        lambda_bb_absorb=bb_absorb_lambda(particle, scenario.environment),
        lambda_bb_emit=bb_emit_lambda(particle,
                                      scenario.trap.internal_temperature),
    )
