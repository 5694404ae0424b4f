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

One code path solves a single law and a column of laws (one per sweep
radius): the branches are `numerics.piecewise` choices and the powers
(cube roots included) and hypot go through libm element by element, so
`cet_or_inf` and `ced_or_inf` on columns equal `solve_cet` and `ced` on each
element bit for bit.
"""

import math
from collections import namedtuple
from functools import cached_property

from .config import record
from .numerics import (all_true, any_true, hypot, piecewise, power,
                       quad_checked, sqrt)

# Expansion times beyond this are treated as unbounded coherence.
TAU_CAP = 1e9  # s


class InfiniteCoherenceError(Exception):
    """The decoherence exposure never reaches the 4*Gamma = 1 threshold."""


@record
class ExpansionKinematics:
    x0: float   # m, ground-state width
    v_m: float  # m/s, spreading velocity

    def __post_init__(self):
        if not (all_true(self.x0 > 0.0) and all_true(self.v_m > 0.0)):
            raise ValueError("x0 and v_m must be positive")

    @cached_property
    def x0_sq(self):
        return power(self.x0, 2)

    @cached_property
    def v_sq(self):
        return power(self.v_m, 2)


@record
class DecoherenceSpec:
    """Decoherence law Lambda min(dx, b)^2 + F_c, plus an optional general part.

    Total rate at separation dx:
        quadratic_lambda * min(dx, saturation_separation)^2 + constant_rate
        + general_rate(dx).
    The closed forms (`gamma`, `cet_closed_form`, `solve_cet`, `cet_or_inf`)
    cover specs without a general component.  The general component serves
    the quadrature oracle `gamma_quadrature` only; `general_breakpoints` lists
    separations where it has kinks.  The three law fields may be columns, one
    law per element, for `cet_or_inf` and `ced_or_inf`.
    """

    quadratic_lambda: float = 0.0           # 1/(m^2 s)
    constant_rate: float = 0.0              # 1/s
    saturation_separation: float = math.inf  # m, the b of the law
    general_rate: object = None             # callable dx -> 1/s, or None
    general_breakpoints: tuple = ()

    def __post_init__(self):
        if any_true(self.quadratic_lambda < 0.0) \
                or any_true(self.constant_rate < 0.0):
            raise ValueError("decoherence components must be non-negative")
        if not all_true(self.saturation_separation > 0.0):
            raise ValueError("saturation separation must be positive")

    @property
    def is_null(self):
        """No decoherence at all; elementwise for a column law."""
        return ((self.quadratic_lambda == 0.0) & (self.constant_rate == 0.0)
                & (self.general_rate is None))

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
    return piecewise(half <= kin.x0, (half, kin.x0_sq, kin.v_m), 0.0,
                     _time_to_half)


def _time_to_half(half, x0_sq, v_m):
    return sqrt(power(half, 2) - x0_sq) / v_m


def _cubic_gamma(tau, lam, f_c, x0_sq, v_sq):
    return (4.0 * lam * (x0_sq * tau + v_sq * power(tau, 3) / 3.0)
            + f_c * tau)


def _saturated_rate(lam, f_c, b):
    # the rate Lambda b^2 + F_c of every separation beyond b
    return lam * power(b, 2) + f_c


def gamma(tau, spec, kin):
    """Accumulated decoherence exposure Gamma(tau), dimensionless.

    Exact piecewise closed form: the cubic up to the saturation time t_b,
    then linear growth at the saturated rate Lambda b^2 + F_c.
    """
    if tau < 0.0:
        raise ValueError("expansion time must be non-negative")
    _require_closed_form(spec)
    lam, f_c, b = (spec.quadratic_lambda, spec.constant_rate,
                   spec.saturation_separation)
    t_b = _time_at_separation(b, kin)
    if tau <= t_b:
        return _cubic_gamma(tau, lam, f_c, kin.x0_sq, kin.v_sq)
    return (_cubic_gamma(t_b, lam, f_c, kin.x0_sq, kin.v_sq)
            + _saturated_rate(lam, f_c, b) * (tau - t_b))


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
    return piecewise(b_lin == 0.0, (a_cub, b_lin), _cube_root_only,
                     _root_with_linear_term)


def _cube_root_only(a_cub, _):
    return piecewise(a_cub > 0.0, (a_cub,), _inverse_cube_root, math.inf)


def _inverse_cube_root(a_cub, *_):
    # a_cub > 0, so the real cube root is a plain power
    return power(1.0 / a_cub, 1.0 / 3.0)


def _root_with_linear_term(a_cub, b_lin):
    return piecewise(a_cub == 0.0, (a_cub, b_lin), _linear_root, _cardano_root)


def _linear_root(_, b_lin):
    return 1.0 / b_lin


def _cardano_root(a_cub, b_lin):
    w = 1.5 / b_lin * sqrt(3.0 * a_cub / b_lin)
    w_sum = w + hypot(1.0, w)  # at least 1, or NaN
    # w + hypot(1, w) = inf: the linear term is below double precision
    return piecewise(w_sum == math.inf, (a_cub, b_lin, w_sum),
                     _inverse_cube_root, _cardano_finite)


def _cardano_finite(_, b_lin, w_sum):
    c = power(w_sum, 1.0 / 3.0)
    return 3.0 / (b_lin * (c * c + 1.0 + 1.0 / (c * c)))


def _cubic_cet(lam, f_c, x0_sq, v_sq):
    return _cubic_root(16.0 / 3.0 * lam * v_sq, 16.0 * lam * x0_sq + 4.0 * f_c)


def _saturated_cet(lam, f_c, b, t_b, x0_sq, v_sq):
    saturated = _saturated_rate(lam, f_c, b)
    # a zero saturated rate means Lambda b^2 underflowed
    return piecewise(saturated == 0.0,
                     (saturated, lam, f_c, t_b, x0_sq, v_sq), math.inf,
                     _linear_step)


def _linear_step(saturated, lam, f_c, t_b, x0_sq, v_sq):
    return t_b + (0.25 - _cubic_gamma(t_b, lam, f_c, x0_sq, v_sq)) / saturated


def _cet(spec, kin):
    """The CET of every element, inf where the law is null.

    Below t_b, 4 Gamma = A tau^3 + B tau with A = (16/3) Lambda v_m^2 and
    B = 16 Lambda x0^2 + 4 F_c, so the CET is the positive root of the cubic
    when that root lies below t_b; otherwise 4 Gamma(t_b) < 1 and the CET
    follows from the linear growth after t_b.
    """
    lam, f_c, b = (spec.quadratic_lambda, spec.constant_rate,
                   spec.saturation_separation)
    x0_sq, v_sq = kin.x0_sq, kin.v_sq
    t_b = _time_at_separation(b, kin)
    tau = piecewise(t_b > 0.0, (lam, f_c, x0_sq, v_sq), _cubic_cet, math.inf)
    return piecewise(tau <= t_b, (lam, f_c, b, t_b, x0_sq, v_sq), tau,
                     _saturated_cet)


def cet_closed_form(spec, kin):
    """Analytic CET, without the TAU_CAP check.

    Raises InfiniteCoherenceError when the spec carries no decoherence.
    """
    _require_closed_form(spec)
    if spec.is_null:
        raise InfiniteCoherenceError("no decoherence channels; coherence never decays")
    return _cet(spec, kin)


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


def cet_or_inf(spec, kin):
    """`solve_cet` elementwise over column laws and kinematics, with inf
    where it raises InfiniteCoherenceError (a null law, or a CET beyond
    TAU_CAP); equal to it bit for bit elsewhere."""
    _require_closed_form(spec)
    tau = _cet(spec, kin)  # inf for a null law
    return piecewise(tau > TAU_CAP, (), math.inf, tau)


def ced_or_inf(spec, kin):
    """`ced` elementwise over column laws and kinematics, inf for infinite
    coherence."""
    return kin.v_m * cet_or_inf(spec, kin)


VisibilityFactors = namedtuple("VisibilityFactors", ["amplitude", "visibility"])


def visibility_factor(gamma_value):
    """Off-diagonal amplitude factor exp(-2 Gamma) and fringe visibility exp(-4 Gamma)."""
    if gamma_value < 0.0:
        raise ValueError("Gamma must be non-negative")
    return VisibilityFactors(math.exp(-2.0 * gamma_value),
                             math.exp(-4.0 * gamma_value))
