"""Photon-emission spectrum of a heated dielectric sphere, by quadrature.

The oracle of the closed-form emission coefficient `bb_emit_lambda`: its
spectral second moment must reproduce that coefficient at any temperature
(acceptance criterion 9 and tests/test_decoherence.py).  It lives with the
tests because no subcommand needs it, and it loads scipy on first use.
"""

import math

from macrocoh.config import record
from macrocoh.constants import CONSTANTS
from macrocoh.numerics import QuadratureError, quad_checked
from macrocoh.scenario import clausius_mossotti

# Upper cutoff of the dimensionless photon energy x = hbar c k / (k_B T).
# Both spectral integrands x^3/(e^x - 1) and x^5/(e^x - 1) have fallen below
# 1e-13 of their peak at x = 50, far under the 1e-12 tail requirement.
PLANCK_CUTOFF = 50.0


@record
class EmissionSpectrum:
    """Photon-emission spectrum of a heated dielectric sphere.

    The emitted-photon rate per wavenumber is
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

    wavenumber_scale: float   # k_B T / (hbar c), 1/m
    planck_integral: float    # measured integral of x^3/(e^x - 1)
    total_rate: float         # 1/s
    k2_moment: float          # integral dk R(k) k^2, 1/(m^2 s)

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
            value = _sine_weighted(
                lambda x: 0.0 if x == 0.0 else x * x / math.expm1(x), b)
            value /= b
        return value / self.planck_integral


def _sine_weighted(fn, b):
    """integral of fn(x) sin(b x) over [0, PLANCK_CUTOFF], to the relative
    tolerance of quad_checked; a QuadratureError on any QUADPACK warning."""
    from scipy import integrate

    out = integrate.quad(fn, 0.0, PLANCK_CUTOFF, weight="sin", wvar=b,
                         epsabs=0.0, epsrel=1e-9, limit=200, full_output=1)
    if len(out) > 3:  # quad appends a diagnostic message on failure
        raise QuadratureError(
            f"sine-weighted quadrature at b = {b:g} did not converge: {out[3]}",
            value=out[0], error_estimate=out[1])
    return out[0]


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
    planck3_value, _ = quad_checked(_planck3, 0.0, PLANCK_CUTOFF)
    planck5_value, _ = quad_checked(_planck5, 0.0, PLANCK_CUTOFF)
    return EmissionSpectrum(
        wavenumber_scale=theta,
        planck_integral=planck3_value,
        total_rate=prefactor * theta**4 * planck3_value,
        k2_moment=prefactor * theta**6 * planck5_value,
    )
