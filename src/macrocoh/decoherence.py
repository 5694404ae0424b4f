"""Environmental decoherence channels for an optically trapped nanosphere.

Four channels: scattering of residual gas (a constant, separation-independent
rate that upper-bounds the true one), and scattering, absorption, and
emission of thermal photons (quadratic laws with coefficient Lambda in
1/(m^2 s)).  Scattering and absorption see the environment temperature;
emission sees the internal temperature of the sphere.  All blackbody
channels assume a spectrally constant permittivity over the thermal band.
"""

import math

from .config import record
from .constants import CONSTANTS
from .expansion import DecoherenceSpec
from .numerics import any_true, power, quad_checked
from .scenario import clausius_mossotti

# Upper cutoff of the dimensionless photon energy x = hbar c k / (k_B T).
# Both spectral integrands x^3/(e^x - 1) and x^5/(e^x - 1) have fallen below
# 1e-13 of their peak at x = 50, far under the 1e-12 tail requirement.
PLANCK_CUTOFF = 50.0


def gas_collision_rate(particle, env):
    """Constant decoherence rate from residual-gas scattering, 1/s.

    2 sqrt(6 pi) r^2 p / (m_a v_a) with the root-mean-square thermal velocity
    v_a = sqrt(3 k_B T / m_a).
    """
    if not env.gas_particle_mass > 0.0:
        raise ValueError("gas particle mass must be positive")
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
class EmissionSpectrum:
    """Photon-emission spectrum of a heated dielectric sphere.

    rate_density(k) is the emitted-photon rate per wavenumber,
        R(k) = (3 V k^3 c / pi^2) * Im[(eps-1)/(eps+2)] / (exp(hbar c k / k_B T) - 1),
    c times the absorption cross-section 3 V k Im(cm) times the thermal
    photon density per wavenumber k^2 / (pi^2 (exp(x) - 1)) of both
    polarisations.  Its moments are integrated by adaptive quadrature in the
    dimensionless variable x = hbar c k / (k_B T) so node placement is
    temperature independent; the second makes emission_lambda() equal to
    bb_emit_lambda, as integral x^5 / (e^x - 1) dx = 120 zeta(6) = 8 pi^6 / 63.
    localization_factor(dr) is the single-photon coherence survival factor
        F(dr) = (1/R_tot) * integral dk R(k) sinc(k dr),
    equal to 1 at dr = 0 and decaying with separation.
    """

    temperature: float        # K
    prefactor: float          # 3 V c Im(cm) / pi^2, units m^4/s
    wavenumber_scale: float   # k_B T / (hbar c), 1/m
    planck_integral: float    # measured integral of x^3/(e^x - 1)
    total_rate: float         # 1/s
    total_rate_error: float
    k2_moment: float          # integral dk R(k) k^2, 1/(m^2 s)
    k2_moment_error: float

    def rate_density(self, k):
        """R(k) in photons per second per unit wavenumber."""
        if k <= 0.0:
            return 0.0
        return self.prefactor * k**3 / math.expm1(k / self.wavenumber_scale)

    def emission_lambda(self):
        """Quadratic decoherence coefficient implied by the spectral second
        moment, (1/6) * integral dk R(k) k^2."""
        return self.k2_moment / 6.0

    def localization_factor(self, delta_r):
        if delta_r < 0.0:
            raise ValueError("separation must be non-negative")
        if delta_r == 0.0:
            return 1.0
        b = self.wavenumber_scale * delta_r
        if b < 0.5:
            value, _ = quad_checked(
                lambda x: _planck3(x) * _sinc(b * x), 0.0, PLANCK_CUTOFF)
        else:
            # oscillatory regime: pull sin(b x) out as a QUADPACK weight
            value, _ = quad_checked(
                lambda x: 0.0 if x == 0.0 else x * x / math.expm1(x),
                0.0, PLANCK_CUTOFF, weight="sin", wvar=b)
            value /= b
        return value / self.planck_integral


def _planck3(x):
    return 0.0 if x == 0.0 else x**3 / math.expm1(x)


def _planck5(x):
    return 0.0 if x == 0.0 else x**5 / math.expm1(x)


def _sinc(u):
    if abs(u) < 1e-8:
        return 1.0 - u * u / 6.0
    return math.sin(u) / u


def emission_spectrum(particle, internal_temperature):
    """Build the EmissionSpectrum of a sphere at the given internal temperature."""
    if not internal_temperature > 0.0:
        raise ValueError("internal temperature must be positive")
    volume = 4.0 / 3.0 * math.pi * particle.radius**3
    cm_im = clausius_mossotti(particle.permittivity_bb).imag
    prefactor = 3.0 * volume * CONSTANTS.c * cm_im / math.pi**2
    theta = (CONSTANTS.k_B * internal_temperature
             / (CONSTANTS.hbar * CONSTANTS.c))
    planck3_value, planck3_err = quad_checked(_planck3, 0.0, PLANCK_CUTOFF)
    planck5_value, planck5_err = quad_checked(_planck5, 0.0, PLANCK_CUTOFF)
    scale4 = prefactor * theta**4
    scale6 = prefactor * theta**6
    return EmissionSpectrum(
        temperature=internal_temperature,
        prefactor=prefactor,
        wavenumber_scale=theta,
        planck_integral=planck3_value,
        total_rate=scale4 * planck3_value,
        total_rate_error=scale4 * planck3_err,
        k2_moment=scale6 * planck5_value,
        k2_moment_error=scale6 * planck5_err,
    )


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
