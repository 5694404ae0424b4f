"""Checked adaptive quadrature and a signed real cube root.

`quad_checked` wraps scipy's QUADPACK routines and turns silent convergence
warnings into exceptions carrying the achieved error estimate.  scipy is
imported on the first call, so that code paths without quadrature (every
closed-form solve) never pay for loading it.
"""

import math


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge to the requested tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def quad_checked(fn, a, b, *, epsrel=1e-9, epsabs=0.0, points=None,
                 weight=None, wvar=None, limit=200):
    """Integrate fn over [a, b]; return (value, abs_error_estimate).

    `points` marks known interior kinks (ignored when a weight is used, as
    QUADPACK forbids the combination).  Raises QuadratureError instead of
    emitting the scipy IntegrationWarning.
    """
    from scipy import integrate

    kwargs = {"epsabs": epsabs, "epsrel": epsrel, "limit": limit, "full_output": 1}
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    elif points:
        interior = [p for p in points if a < p < b]
        if interior:
            kwargs["points"] = sorted(interior)
    out = integrate.quad(fn, a, b, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # quad appends a diagnostic message on failure
        raise QuadratureError(
            f"quadrature over [{a:g}, {b:g}] did not converge: "
            f"value {value:.6e}, achieved error estimate {abserr:.3e} ({out[3]})",
            value=value,
            error_estimate=abserr,
        )
    return value, abserr


def cbrt(x):
    """Real cube root with sign (math.cbrt only exists from Python 3.11)."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)
