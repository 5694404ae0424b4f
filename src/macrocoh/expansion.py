"""Wave-packet expansion and accumulated decoherence.

The released wave packet spreads as sigma(t) = sqrt(x0^2 + v_m^2 t^2).  Every
decoherence law of the package has the form F(dx) = Lambda min(dx, b)^2 + F_c:
quadratic in the separation dx up to a saturation separation b (infinite for
a purely quadratic law), plus a constant rate F_c.  Acting on the outermost
coherence element, at separation 2 sigma(t), it accumulates the exposure

    Gamma(tau) = integral_0^tau F(2 sigma(t)) dt
               = 4 Lambda (x0^2 tau + v_m^2 tau^3 / 3) + F_c tau    (tau <= t_b)
               = Gamma(t_b) + (Lambda b^2 + F_c) (tau - t_b)       (tau >  t_b)

where t_b = sqrt((b/2)^2 - x0^2) / v_m is the time at which 2 sigma reaches b
(t_b = 0 when b/2 <= x0: the rate is then constant from the start).  The
coherent expansion time (CET) is the tau at which 4 Gamma(tau) = 1, i.e. the
predicted fringe visibility exp(-4 Gamma) has dropped to 1/e; it is the root
of the cubic, or the cubic branch at t_b followed by one linear step.  The
coherent expansion distance is CED = v_m * CET.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

from .numerics import cbrt, quad_checked

# Expansion times beyond this are treated as unbounded coherence.
TAU_CAP = 1e9  # s


class InfiniteCoherenceError(Exception):
    """The decoherence exposure never reaches the 4*Gamma = 1 threshold."""


@dataclass(frozen=True)
class ExpansionKinematics:
    x0: float   # m, ground-state width
    v_m: float  # m/s, spreading velocity

    def __post_init__(self):
        if not (self.x0 > 0.0 and self.v_m > 0.0):
            raise ValueError("x0 and v_m must be positive")


@dataclass(frozen=True)
class DecoherenceSpec:
    """Decoherence law Lambda min(dx, b)^2 + F_c, plus an optional general part.

    Total rate at separation dx:
        quadratic_lambda * min(dx, saturation_separation)^2 + constant_rate
        + general_rate(dx).
    The closed forms (`gamma`, `cet_closed_form`, `solve_cet`) cover specs
    without a general component.  The general component serves the
    quadrature oracle `gamma_quadrature` only; `general_breakpoints` lists
    separations where it has kinks.
    """

    quadratic_lambda: float = 0.0           # 1/(m^2 s)
    constant_rate: float = 0.0              # 1/s
    saturation_separation: float = math.inf  # m, the b of the law
    general_rate: object = None             # callable dx -> 1/s, or None
    general_breakpoints: tuple = ()

    def __post_init__(self):
        if self.quadratic_lambda < 0.0 or self.constant_rate < 0.0:
            raise ValueError("decoherence components must be non-negative")
        if not self.saturation_separation > 0.0:
            raise ValueError("saturation separation must be positive")

    @property
    def is_null(self):
        return (self.quadratic_lambda == 0.0 and self.constant_rate == 0.0
                and self.general_rate is None)

    def rate(self, separation):
        """Total decoherence rate (1/s) at the given separation (m)."""
        total = (self.quadratic_lambda
                 * min(separation, self.saturation_separation) ** 2
                 + self.constant_rate)
        if self.general_rate is not None:
            total += self.general_rate(separation)
        return total


def sigma(t, kin):
    """Wave-packet width sqrt(x0^2 + (v_m t)^2) at time t >= 0."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    return math.hypot(kin.x0, kin.v_m * t)


def _require_closed_form(spec):
    if spec.general_rate is not None:
        raise ValueError("closed form does not cover a general rate component")


def _time_at_separation(separation, kin):
    """Time at which 2 sigma(t) reaches the separation: 0 when it starts
    there or beyond, inf for an infinite separation."""
    half = 0.5 * separation
    if half <= kin.x0:
        return 0.0
    return math.sqrt(half**2 - kin.x0**2) / kin.v_m


def _cubic_gamma(tau, spec, kin):
    return (4.0 * spec.quadratic_lambda
            * (kin.x0**2 * tau + kin.v_m**2 * tau**3 / 3.0)
            + spec.constant_rate * tau)


def gamma(tau, spec, kin):
    """Accumulated decoherence exposure Gamma(tau), dimensionless.

    Exact piecewise closed form: the cubic up to the saturation time t_b,
    then linear growth at the saturated rate Lambda b^2 + F_c.
    """
    if tau < 0.0:
        raise ValueError("expansion time must be non-negative")
    _require_closed_form(spec)
    t_b = _time_at_separation(spec.saturation_separation, kin)
    if tau <= t_b:
        return _cubic_gamma(tau, spec, kin)
    saturated = spec.rate(spec.saturation_separation)
    return _cubic_gamma(t_b, spec, kin) + saturated * (tau - t_b)


def gamma_quadrature(tau, spec, kin):
    """Gamma(tau) with every component under the quadrature; oracle path."""
    if tau == 0.0:
        return 0.0
    separations = (spec.saturation_separation,) + tuple(spec.general_breakpoints)
    value, _ = quad_checked(
        lambda t: spec.rate(2.0 * sigma(t, kin)), 0.0, tau,
        points=[_time_at_separation(s, kin) for s in separations])
    return value


def _cubic_root(a_cub, b_lin):
    """Positive root of a_cub tau^3 + b_lin tau = 1 for a_cub, b_lin >= 0.

    Cardano's root u + v of the depressed cubic, written as
    1 / (a_cub (u^2 - u v + v^2)) so that no two terms cancel: with
    u = sqrt(b_lin / (3 a_cub)) c it reduces to 3 / (b_lin (c^2 + 1 + c^-2)).
    Coefficients that underflowed to zero give an infinite root.
    """
    if b_lin == 0.0:
        return cbrt(1.0 / a_cub) if a_cub > 0.0 else math.inf
    if a_cub == 0.0:
        return 1.0 / b_lin
    w = 1.5 / b_lin * math.sqrt(3.0 * a_cub / b_lin)
    if math.isinf(w):   # the linear term is below double precision
        return cbrt(1.0 / a_cub)
    c = cbrt(w + math.hypot(1.0, w))
    return 3.0 / (b_lin * (c * c + 1.0 + 1.0 / (c * c)))


def cet_closed_form(spec, kin):
    """Analytic CET, without the TAU_CAP check.

    Below t_b, 4 Gamma = A tau^3 + B tau with A = (16/3) Lambda v_m^2 and
    B = 16 Lambda x0^2 + 4 F_c, so the CET is the positive root of the cubic
    when that root lies below t_b; otherwise 4 Gamma(t_b) < 1 and the CET
    follows from the linear growth after t_b.
    """
    _require_closed_form(spec)
    if spec.is_null:
        raise InfiniteCoherenceError("no decoherence channels; coherence never decays")
    t_b = _time_at_separation(spec.saturation_separation, kin)
    if t_b > 0.0:
        tau = _cubic_root(16.0 / 3.0 * spec.quadratic_lambda * kin.v_m**2,
                          16.0 * spec.quadratic_lambda * kin.x0**2
                          + 4.0 * spec.constant_rate)
        if tau <= t_b:
            return tau
    saturated = spec.rate(spec.saturation_separation)
    if saturated == 0.0:   # Lambda b^2 underflowed
        return math.inf
    return t_b + (0.25 - _cubic_gamma(t_b, spec, kin)) / saturated


def solve_cet(spec, kin):
    """Coherent expansion time: the unique tau with 4 Gamma(tau) = 1.

    Raises InfiniteCoherenceError when the spec carries no decoherence at
    all or the threshold lies beyond TAU_CAP.
    """
    tau = cet_closed_form(spec, kin)
    if tau > TAU_CAP:
        raise InfiniteCoherenceError(
            f"4*Gamma(tau) < 1 for all tau up to {TAU_CAP:.0e} s; "
            "effectively infinite coherent expansion time")
    return tau


def ced(spec, kin):
    """Coherent expansion distance v_m * CET in meters."""
    return kin.v_m * solve_cet(spec, kin)


VisibilityFactors = namedtuple("VisibilityFactors", ["amplitude", "visibility"])


def visibility_factor(gamma_value):
    """Off-diagonal amplitude factor exp(-2 Gamma) and fringe visibility exp(-4 Gamma)."""
    if gamma_value < 0.0:
        raise ValueError("Gamma must be non-negative")
    return VisibilityFactors(math.exp(-2.0 * gamma_value),
                             math.exp(-4.0 * gamma_value))
