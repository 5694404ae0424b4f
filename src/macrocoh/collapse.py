"""Decoherence rates predicted by macrorealistic collapse models.

Four models are covered: continuous spontaneous localization (CSL), the
wormhole-based quantum-gravity model (QG), the metric-fluctuation model (K),
and gravitational self-energy collapse (DP).  Each law maps a particle to the
DecoherenceSpec Lambda min(dx, b)^2 of the coefficient Lambda it wraps:
`csl_law(params)`, `qg_law` and `k_law` are quadratic, `k_sat_law` saturates
at one coherence cell and `dp_law` at the sphere radius.  Every coefficient
also takes a radius column, one sphere per element (see `numerics`).
"""

import math

from .config import record
from .constants import CONSTANTS
from .expansion import DecoherenceSpec
from .numerics import any_true, exp, piecewise, power


@record
class CslParams:
    """CSL localization rate and inverse-squared localization length."""

    lambda0: float = 1e-16  # 1/s
    alpha: float = 1e14     # 1/m^2

    def __post_init__(self):
        if not (self.lambda0 > 0.0 and self.alpha > 0.0):
            raise ValueError("CSL parameters must be positive")


CSL_DEFAULT = CslParams()
# Stronger localization rate sized to collapse a latent photographic image
# within its formation time.
CSL_ADLER = CslParams(lambda0=1e-8)


def csl_shape(x):
    """Finite-size suppression factor f(x) for a sphere, x = sqrt(alpha) * r.

    f(x) = (6/x^4) [1 - 2/x^2 + (1 + 2/x^2) exp(-x^2)], with f(0) = 1 and
    f ~ 6/x^4 for large x.  Below x = 0.2 the bracket loses ~10 digits to
    cancellation, so a series expansion takes over there.
    """
    if any_true(x < 0.0):
        raise ValueError("x must be non-negative")
    return piecewise(x <= 0.2, (x * x,), _csl_shape_series, _csl_shape_closed)


def _csl_shape_series(x2):
    return (1.0 - x2 / 2.0 + 3.0 * power(x2, 2) / 20.0 - power(x2, 3) / 30.0
            + power(x2, 4) / 168.0)


def _csl_shape_closed(x2):
    return (6.0 / power(x2, 2)) * (1.0 - 2.0 / x2 + (1.0 + 2.0 / x2) * exp(-x2))


def csl_lambda(particle, params=CSL_DEFAULT):
    """CSL decoherence coefficient m^2 lambda0 alpha f(sqrt(alpha) r) / (4 m0^2)."""
    mass = particle.mass
    shape = csl_shape(math.sqrt(params.alpha) * particle.radius)
    return (power(mass, 2) * params.lambda0 * params.alpha * shape
            / (4.0 * CONSTANTS.m_nucleon**2))


def csl_law(params):
    """The CSL law with the given CslParams."""
    def law(particle):
        return DecoherenceSpec(quadratic_lambda=csl_lambda(particle, params))
    return law


def qg_lambda(mass):
    """QG decoherence coefficient, linear in mass: m c^4 m0^5 / (hbar^3 mP^3)."""
    if any_true(mass < 0.0):
        raise ValueError("mass must be non-negative")
    return (mass * CONSTANTS.c**4 * CONSTANTS.m_nucleon**5
            / (CONSTANTS.hbar**3 * CONSTANTS.m_planck**3))


def qg_law(particle):
    return DecoherenceSpec(quadratic_lambda=qg_lambda(particle.mass))


def k_coherence_cell(particle):
    """Coherence cell a_c of the K model, in meters.

    Two regimes, both scaled by the particle's reduced Compton wavelength
    L = hbar / (m c): the extended-body candidate a1 = (r / l_P)^(2/3) L
    applies when the sphere is larger than the cell it predicts (r >= a1);
    otherwise the point-particle value a2 = (L / l_P)^2 L holds.
    """
    mass = particle.mass
    compton = CONSTANTS.hbar / _nonzero(
        mass * CONSTANTS.c, "K-model Compton wavelength hbar / (m c)", "m c")
    extended = (power(particle.radius / CONSTANTS.planck_length, 2.0 / 3.0)
                * compton)
    return piecewise(particle.radius >= extended, (compton,), extended,
                     _point_cell)


def _point_cell(compton):
    return power(compton / CONSTANTS.planck_length, 2) * compton


def k_lambda(particle, cell=None):
    """K-model decoherence coefficient hbar / (8 m a_c^4); pass the coherence
    cell when it is already at hand."""
    mass = particle.mass
    if cell is None:
        cell = k_coherence_cell(particle)
    return CONSTANTS.hbar / _nonzero(
        8.0 * mass * power(cell, 4),
        "K-model coefficient hbar / (8 m a_c^4)", "8 m a_c^4")


def k_law(particle):
    return DecoherenceSpec(quadratic_lambda=k_lambda(particle))


def k_sat_law(particle):
    cell = k_coherence_cell(particle)
    return DecoherenceSpec(quadratic_lambda=k_lambda(particle, cell),
                           saturation_separation=cell)


def _nonzero(denominator, law, name):
    """The denominator of `law`; a ZeroDivisionError naming it when it (or
    an element of it) has underflowed to 0."""
    if any_true(denominator == 0.0):
        raise ZeroDivisionError(
            f"{law} divides by zero: {name} underflows to 0")
    return denominator


def dp_lambda(particle):
    """Small-separation DP coefficient 20 G rho^2 r^3 / hbar, 1/(m^2 s)."""
    return (20.0 * CONSTANTS.G * particle.density**2
            * particle.radius_cubed / CONSTANTS.hbar)


def dp_law(particle):
    return DecoherenceSpec(quadratic_lambda=dp_lambda(particle),
                           saturation_separation=particle.radius)


def dp_rate(particle, delta_x):
    """DP decoherence rate, 1/s: quadratic below the sphere radius, then flat.

    The two branches meet continuously at delta_x = r (r^3 dx^2 = r^5 there).
    """
    if delta_x < 0.0:
        raise ValueError("separation must be non-negative")
    coeff = dp_lambda(particle)
    if delta_x < particle.radius:
        return coeff * delta_x**2
    return coeff * particle.radius**2

