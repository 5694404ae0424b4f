"""The sweep CSV's numpy text kernel writes every float as repr does."""

import math
import struct
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macrocoh import reprtext, testability
from macrocoh.testability import (MODEL_PRESETS, PRESET_FILES, SweepConfig,
                                  load_preset, sweep, write_sweep_csv)

SMALLEST_NORMAL = 2.2250738585072014e-308


def kernel_lines(values):
    """The kernel's text of each float of `values`, one column, no flags,
    the same from an array('d') as from a float64 array."""
    text = reprtext.csv_rows(["x"], [array("d", values)], [], ())
    assert reprtext.csv_rows(["x"], [np.array(values)], [], ()) == text
    lines = text.split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    return lines[1:-1]


def as_float(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@example([0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000,
          0x7FF8000000000000, 0xFFF8000000000001, 1, 0x000FFFFFFFFFFFFF,
          0x8000000000000001, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF])
def test_any_bit_pattern_is_written_as_repr_writes_it(patterns):
    values = [as_float(p) for p in patterns]
    assert kernel_lines(values) == [repr(v) for v in values]


def edge_values():
    values = []
    for e in range(-1074, 1024):  # every power of two, subnormals too
        p = 2.0 ** e
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for x in (1e-4, 1e16, 1e15, 1e-5, 1e300, 1e-300, 1e308, 1e-307,
              9007199254740993.0, 0.1, 123456789012345680.0, 5e-324,
              1.7976931348623157e308, SMALLEST_NORMAL):
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    # the subnormals just below the smallest normal go through repr
    below = SMALLEST_NORMAL
    for _ in range(4):
        below = math.nextafter(below, 0.0)
        values.append(below)
    values += [0.0, math.inf, math.nan]
    return values + [-x for x in values]


def test_edge_values_are_written_as_repr_writes_them():
    values = edge_values()
    assert kernel_lines(values) == [repr(v) for v in values]


def test_every_exponent_and_form_is_written_as_repr_writes_it():
    # both forms at each switch, three-digit exponents, 1 to 17 digits
    values = [float(f"{m}e{e}") for e in range(-310, 309)
              for m in ("1", "5", "1.5", "9.999999999999999",
                        "1.2345678901234567", "3.0000000000000004")]
    values = [v for v in values if v != 0.0 and math.isfinite(v)]
    assert kernel_lines(values) == [repr(v) for v in values]


WORDS = ("true", "false", "nan")


def block_case():
    """7 float and 8 flag columns of 5 rows as array('d') and bytes, a row's
    flags filling two slots, all three flag codes in each flag column, and
    the expected text."""
    rows = 5
    floats = [array("d", [(-1.5) ** (i + j) * 10.0 ** (37 * j - 100)
                          for i in range(rows)]) for j in range(7)]
    codes = [bytes((i + j) % 3 for i in range(rows)) for j in range(8)]
    names = [f"c{j}" for j in range(15)]
    expected = [",".join(names)] + [
        ",".join([*(repr(column[i]) for column in floats),
                  *(WORDS[column[i]] for column in codes)])
        for i in range(rows)]
    return names, floats, codes, "\n".join(expected) + "\n"


def test_rows_span_blocks_and_flags_fill_two_slots(monkeypatch):
    # blocks of 2 rows, the last short
    monkeypatch.setattr(reprtext, "BLOCK_CELLS", 14)
    names, floats, codes, expected = block_case()
    assert reprtext.csv_rows(names, floats, codes, WORDS) == expected


def test_float64_columns_and_flag_codes_give_the_text_of_lists(monkeypatch):
    monkeypatch.setattr(reprtext, "BLOCK_CELLS", 14)
    names, floats, codes, expected = block_case()
    arrays = [np.array(column) for column in floats]
    code_arrays = [np.frombuffer(column, np.uint8) for column in codes]
    assert reprtext.csv_rows(names, arrays, code_arrays, WORDS) == expected
    # array('d') and float64 columns, bytes and uint8 codes side by side
    assert reprtext.csv_rows(names, arrays[:1] + floats[1:2] + arrays[2:],
                             code_arrays[:3] + codes[3:], WORDS) == expected


def both_paths(monkeypatch, table):
    """write_sweep_csv's text of `table` by the kernel, then by repr."""
    texts = []
    for crossover in (0, math.inf):
        monkeypatch.setattr(testability, "KERNEL_FLOATS", crossover)
        texts.append(write_sweep_csv(table))
    return texts


@pytest.mark.parametrize("lo, hi", [(1e-7, 1e60), (1e-110, 1e110)])
@pytest.mark.parametrize("preset", sorted(PRESET_FILES))
def test_sweep_csv_is_the_same_on_both_sides_of_the_crossover(monkeypatch,
                                                              preset, lo, hi):
    table = sweep(SweepConfig(radius_min=lo, radius_max=hi, points=300,
                              scenario=load_preset(preset),
                              models=tuple(MODEL_PRESETS.values())))
    cells = [v for column in (table.mass, table.ced_qm,
                              *table.ced_model.values()) for v in column]
    assert any(map(math.isnan, cells)) and any(map(math.isinf, cells))
    kernel, by_repr = both_paths(monkeypatch, table)
    assert kernel == by_repr


def test_a_sweep_without_models_ends_its_rows_with_a_float(monkeypatch):
    table = sweep(SweepConfig(radius_min=1e-8, radius_max=5e-7, points=3,
                              scenario=load_preset("fig2_baseline"),
                              models=()))
    kernel, by_repr = both_paths(monkeypatch, table)
    assert kernel == by_repr
    assert kernel.splitlines()[1].count(",") == 2
