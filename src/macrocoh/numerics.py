"""Checked adaptive quadrature, and elementwise maths over scalars or columns.

`quad_checked` wraps scipy's QUADPACK routines and turns silent convergence
warnings into exceptions carrying the achieved error estimate.  Only the
quadrature oracle `expansion.gamma_quadrature` calls it, so scipy, a test
dependency, is imported on the first call and no subcommand loads it.

The helpers below let one formula serve a Python float and a column (a 1-D
numpy array, e.g. one value per sweep radius) alike.  Their column results
equal the float results bit for bit, element by element, under one rule:
numpy does only + - * / and sqrt, which IEEE 754 rounds correctly and which
therefore match Python's float arithmetic exactly; every other function
(`power`, `exp`, `hypot`) goes through libm element by element,
because numpy's SIMD versions differ from libm in the last bit for a few per
cent of inputs.  A column's `power` calls `math.pow` with the exponent made
a float once, not the builtin `pow`: both hand finite floats to C `pow`, so
the bits are those of `**`, but `math.pow` skips the generic number
dispatch, and an int exponent is not converted again for every element.  It
raises where `**` raises, and also where `**` would give a complex number (a
negative base to a fractional exponent), which a float column cannot hold
anyway.  Branches go through `piecewise`, which runs each branch only on its
own elements, as an if/else would.  numpy is imported only when a column is
passed, so scalar callers never load it.
"""

import math
from itertools import repeat


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge to the requested tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def quad_checked(fn, a, b, *, epsrel=1e-9, points=None, limit=200):
    """Integrate fn over [a, b] to the relative tolerance epsrel alone;
    return (value, abs_error_estimate).

    `points` marks known interior kinks.  Raises QuadratureError instead of
    emitting the scipy IntegrationWarning.
    """
    from scipy import integrate

    kwargs = {"epsabs": 0.0, "epsrel": epsrel, "limit": limit, "full_output": 1}
    if points:
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


_SCALAR_TYPES = frozenset((bool, int, float))


def is_column(x):
    """True for a 1-D array of values, False for a scalar."""
    return type(x) not in _SCALAR_TYPES and getattr(x, "ndim", 0) > 0


def _count(cond):
    # elements that hold, by one count: cheaper than a reduction ufunc
    import numpy as np

    return int(np.count_nonzero(cond))


def all_true(cond):
    """A comparison holds for every element (for the one, given a scalar)."""
    return _count(cond) == len(cond) if is_column(cond) else bool(cond)


def any_true(cond):
    """A comparison holds for some element (for the one, given a scalar)."""
    return _count(cond) > 0 if is_column(cond) else bool(cond)


def _libm(fn, *args):
    # fn element by element over Python floats; scalar arguments repeat
    import numpy as np

    size = next(len(a) for a in args if is_column(a))
    return np.fromiter(
        map(fn, *(a.tolist() if is_column(a) else repeat(a) for a in args)),
        float, size)


def power(x, exponent):
    """x ** exponent by libm; an overflow raises OverflowError, which for a
    scalar names the operands."""
    if is_column(x):
        return _libm(math.pow, x, float(exponent))
    try:
        return x ** exponent
    except OverflowError:
        raise OverflowError(
            f"{x:g} ** {exponent:g} overflows a float") from None


def exp(x):
    if is_column(x):
        return _libm(math.exp, x)
    try:
        return math.exp(x)
    except OverflowError:
        raise OverflowError(f"exp({x:g}) overflows a float") from None


def hypot(x, y):
    if is_column(x) or is_column(y):
        return _libm(math.hypot, x, y)
    return math.hypot(x, y)


def sqrt(x):
    """Square root; numpy's is correctly rounded, so columns skip libm."""
    if is_column(x):
        import numpy as np

        return np.sqrt(x)
    return math.sqrt(x)


def piecewise(cond, args, when_true, otherwise):
    """`when_true` where cond holds and `otherwise` elsewhere.

    A branch is a function, called on `args`, or a value already computed:
    a float, or a column as long as cond.  For a scalar condition this is an
    if/else.  For a column each function runs only on the elements it is
    chosen for (column arguments, and a column branch, are subset by the same
    mask; scalars pass as they are), so a branch never sees an input it does
    not apply to, and raises or flags nothing for one.
    """
    if not is_column(cond):
        return _branch(when_true if cond else otherwise, args)
    import numpy as np

    size = len(cond)
    hits = _count(cond)
    out = np.empty(size)
    # an empty column runs both branches on empty arguments
    if hits == size:
        out[:] = _branch(when_true, args)
    elif hits:
        out[cond] = _branch(when_true, args, cond)
    if hits == 0:
        out[:] = _branch(otherwise, args)
    elif hits < size:
        out[~cond] = _branch(otherwise, args, ~cond)
    return out


def _branch(branch, args, mask=None):
    # the branch's values, on the elements of mask when one is given
    if callable(branch):
        return branch(*(args if mask is None else _subset(args, mask)))
    return branch[mask] if mask is not None and is_column(branch) else branch


def _subset(args, mask):
    return (a[mask] if is_column(a) else a for a in args)
