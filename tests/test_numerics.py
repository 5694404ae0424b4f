"""Elementwise helpers of `numerics` on columns of every composition."""

import math
import struct

import numpy as np
import pytest

from macrocoh.numerics import all_true, any_true, exp, piecewise, power

# (name, condition column); each kind of column the branch decisions meet
COLUMNS = [
    ("all true", np.array([True, True, True])),
    ("all false", np.array([False, False, False])),
    ("mixed", np.array([False, True, True, False, True])),
    ("empty", np.array([], dtype=bool)),
]


@pytest.mark.parametrize("name, cond", COLUMNS)
def test_all_true_and_any_true_match_numpy(name, cond):
    assert all_true(cond) is bool(cond.all())
    assert any_true(cond) is bool(cond.any())
    values = np.where(cond, 2.5, 0.0)  # a float column counts nonzero elements
    assert all_true(values) is bool(values.all())
    assert any_true(values) is bool(values.any())


def test_all_true_and_any_true_on_scalars():
    assert all_true(1.0 > 0.0) is True and any_true(1.0 < 0.0) is False
    assert all_true(np.float64(3.0) > 2.0) is True


@pytest.mark.parametrize("name, cond", COLUMNS)
def test_piecewise_runs_each_branch_only_on_its_elements(name, cond):
    x = np.arange(len(cond), dtype=float) + 1.0

    def branch(key, sign):
        def run(values, scale):
            seen[key].append(values.tolist())
            return sign * scale * values
        return run

    # the otherwise branch as a function, and as a computed value: a float,
    # or a column subset by the mask (an empty one for the empty condition)
    for otherwise, rest in ((branch("false", -1.0), -10.0 * x),
                            (-7.0, -7.0), (-10.0 * x, -10.0 * x)):
        seen = {"true": [], "false": []}
        with np.errstate(all="raise"):
            out = piecewise(cond, (x, 10.0), branch("true", 1.0), otherwise)
        assert out.dtype == float and len(out) == len(cond)
        assert out.tolist() == np.where(cond, 10.0 * x, rest).tolist()
        hits = x[cond].tolist()
        misses = x[~cond].tolist() if callable(otherwise) else []
        if len(cond) == 0:
            # an empty column runs both branches once on empty arguments
            assert seen == {"true": [[]],
                            "false": [[]] if callable(otherwise) else []}
        else:
            assert seen == {"true": [hits] if hits else [],
                            "false": [misses] if misses else []}


@pytest.mark.parametrize("name, cond", COLUMNS)
def test_piecewise_broadcasts_a_scalar_branch(name, cond):
    for when_true, otherwise in ((lambda: 1.0, lambda: 0.0), (1.0, 0.0),
                                 (np.ones(len(cond)), 0.0)):
        out = piecewise(cond, (), when_true, otherwise)
        assert out.tolist() == cond.astype(float).tolist()


def test_piecewise_gives_a_fresh_column():
    x = np.array([1.0, 2.0])
    out = piecewise(x > 0.0, (x,), lambda values: values, lambda values: -values)
    out[0] = 5.0
    assert x.tolist() == [1.0, 2.0]


def test_a_scalar_overflow_names_the_operation():
    with pytest.raises(OverflowError, match=r"^1e\+200 \*\* 2 overflows a float$"):
        power(1e200, 2)
    with pytest.raises(OverflowError, match=r"^exp\(1000\) overflows a float$"):
        exp(1000.0)
    assert power(3.0, 2) == 9.0 and exp(0.0) == 1.0


# bases at the edges of the float range, and the exponents the laws raise to
EDGE_BASES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
              1e-7, 0.5, 1.0, 2.0, 1.7e3, 1e154, 1e300, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, -0.5, -1.0, -2.0, -8.0, -1e300]
EDGE_EXPONENTS = [2, 3, 4, 6, 2.0 / 3.0, 1.0 / 3.0, 0.5, -1]


def _scalar_power(x, exponent):
    # the float power(x, exponent), or None where it raises
    try:
        return power(x, exponent)
    except (ArithmeticError, ValueError):
        return None


def test_a_negative_base_to_a_fractional_power_raises_for_a_float_too():
    # ** would give the complex principal root; math.pow refuses, for a float
    # naming the operands, and for each element of a column with math's text
    with pytest.raises(ValueError, match=r"^-8 \*\* 0\.333333 is outside the "
                       r"domain of a float power$"):
        power(-8.0, 1.0 / 3.0)
    with pytest.raises(ValueError, match="^math domain error$"):
        power(np.array([1.0, -8.0]), 1.0 / 3.0)
    assert type(power(2.0, 2)) is float and power(-2.0, 3) == -8.0


def test_zero_to_a_negative_power_names_its_operands():
    with pytest.raises(ValueError, match=r"^0 \*\* -1 is outside the domain "
                       r"of a float power$"):
        power(0.0, -1.0)


@pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
def test_column_power_is_the_scalar_power_bit_for_bit(exponent):
    # a list, not a dict: 0.0 and -0.0 are equal keys
    expected = [(x, _scalar_power(x, exponent)) for x in EDGE_BASES]
    for x, value in expected:
        if value is None:
            with pytest.raises((ArithmeticError, ValueError)):
                power(np.array([1.0, x]), exponent)
        else:
            column, = power(np.array([x]), exponent).tolist()
            assert struct.pack("<d", column) == struct.pack("<d", value), x
    bases, values = zip(*((x, v) for x, v in expected if v is not None))
    column = power(np.array(bases), exponent).tolist()
    assert (struct.pack(f"<{len(bases)}d", *column)
            == struct.pack(f"<{len(bases)}d", *values))
