"""`repr` of float columns in bulk: the text of a large sweep CSV.

`csv_rows` stacks its float columns, buffers of doubles, into one
row-major array once, looks up the word of each flag code in one step, and
writes every float as `repr(float(x))` does, byte for byte, by numpy over
blocks of its rows, in two stages.  First the digits: Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020; Ryu, U. Adams, PLDI
2018, gives the same digits) finds the shortest decimal f * 10**k that
rounds back to x, the nearest one, ties to even, as CPython's dtoa does.
Its 126-bit table entries g(k) are built from Python ints and kept in five
30-bit limbs, so the products of g with the value and with its two rounding
bounds are exact in int64 columns.  Then the layout: a cell is a 48-byte
slot of fixed fields (sign, digits before the dot, dot, digits after it,
exponent, separator), each field NUL where the text has fewer bytes, and the
text of a block is its slots' bytes less the NULs.  `repr` writes a float
in exponent form when it would take more than three zeros after the dot
before its first digit, or more than sixteen digits before the dot.
Zero, infinities and NaN take the text `repr` gives them.  A subnormal
(below 2.2250738585072014e-308) is written by `repr` itself: Schubfach's
path for small significands may choose other digits (4.9e-324 for 5e-324).
"""

import numpy as np

# Cells per block.  A block's temporaries, about 20 int64 columns of this
# length, add to the peak memory of the process, and fewer cells make more
# numpy calls.  On 2000 radii x 4 models (bench/run.py sweep_quadratic, 8 s
# runs, one 2-vCPU VM) 1,024 cells took 24.0 ms and raised the peak RSS
# by 0.59 MB, 2,048 cells 21.9 ms and 0.78-0.86 MB, 4,096 21.4 ms and
# 1.30 MB, against 32.0 ms with repr.
BLOCK_CELLS = 2048
_M30 = (1 << 30) - 1
_K_MIN = -324  # the k of the smallest normal float; the largest is 292


def _limbs(numbers, bits, count):
    """The `count` low `bits`-bit limbs of each int, as (count, len) int64."""
    mask = (1 << bits) - 1
    return np.array([[n >> bits * i & mask for n in numbers]
                     for i in range(count)], np.int64)


def _g(k):
    """floor(10**-k / 2**r) + 1, the r putting it in [2**125, 2**126)."""
    p = 10 ** abs(k)
    if k <= 0:
        return (p << 126 >> p.bit_length()) + 1
    return (1 << p.bit_length() + 125) // p + 1


def _ascii(text):
    return int.from_bytes(text, "little")


_G = _limbs([_g(k) for k in range(_K_MIN, 293)], 30, 5)
_POW10 = np.array([10 ** i for i in range(18)], np.int64)
# Slot bytes: sign 7, digits before the dot 8-23 (right-aligned), dot 24,
# digits after it 25-44, exponent 41-45 (only after 16 digits or fewer),
# separator 47.  Adding "0" to a digit makes it ASCII; a digit left at 0
# is a NUL, dropped.
_BEFORE = _limbs([_ascii(b"0" * n) << 8 * (16 - n) for n in range(17)], 64, 2)
_AFTER = _limbs([_ascii(b"0" * n) << 8 for n in range(21)], 64, 3)
_EXPONENT = _limbs([_ascii(b"e%+03d" % e) << 8 for e in range(-308, 309)]
                   + [0], 64, 1)[0]
_SPECIAL = _limbs([_ascii(repr(v).encode()) << 64 for v in
                   (np.nan, np.nan, np.inf, -np.inf, 0.0, -0.0)], 64, 6).T


def _shortest(bits):
    """(f, k) for the bits of normal floats: f * 10**k is the value repr
    writes for |x|, with 10**15 <= f < 10**17."""
    biased = bits >> 52 & 0x7FF
    t = bits & (1 << 52) - 1
    irregular = (t == 0) & (biased > 1)  # a power of 2: its lower gap is half
    q = biased - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    c = t | 1 << 52
    cp = c << h + 2
    # the low 30-bit limbs of the left bound, value and right bound, times
    # 2**h; the high limb is the same for the three
    low = np.empty((3, len(c)), np.int64)
    low[0] = (irregular - 2) << h
    low[1] = 0
    low[2] = 2 << h
    low += cp & _M30
    high, index, odd = cp >> 30, k - _K_MIN, c & 1
    # X = g * each over 30-bit columns, carried as it goes; the result is
    # floor(X / 2**127), made odd when bits 64-126 of X are not all zero
    carry = previous = 0
    for m in range(5):
        limb = _G[m].take(index)
        column = limb * low
        column += previous * high
        column += carry
        carry, previous = column >> 30, limb
        column &= _M30
        if m == 2:
            sticky = column >> 4
        elif m == 3:
            sticky |= column
    sticky |= column & 0x7F
    column >>= 7
    column |= (previous * high + carry) << 23
    column |= sticky != 0
    vbl, vb, vbr = column
    vbl += odd
    vbr -= odd
    s = vb >> 2
    sp10 = s // 10 * 10
    # one digit fewer when one of its two neighbours is inside the rounding
    # interval, else whichever of s and s + 1 is, or the nearer, ties to even
    upin = vbl <= sp10 << 2
    shorter = upin != ((sp10 + 10 << 2) <= vbr)
    uin = vbl <= s << 2
    mid = (s << 2) + 2
    take_s = np.where(uin != ((s + 1 << 2) <= vbr), uin,
                      (vb < mid) | (vb == mid) & (s & 1 == 0))
    return np.where(shorter, sp10 + 10 * ~upin, s + 1 - take_s), k


def _float_slots(x, out):
    """Write the slot of each float of x into `out` (rows, floats per row,
    6 words), x in row order; the separators are left to the caller."""
    cells = out.shape[:2]
    bits = x.view(np.int64)
    biased = bits >> 52 & 0x7FF
    special = (biased == 0) | (biased == 0x7FF)
    some = special.any()
    f, k = _shortest(np.where(special, 0x3FF0000000000000, bits) if some
                     else bits)
    digits = 16 + (f >= 10 ** 16)
    point = k + digits  # |x| = 0.<digits of f> * 10**point
    fixed = (point > -4) & (point <= 16)
    before = np.where(fixed, point, 1)  # digits before the dot
    p = _POW10[digits - np.maximum(before, 0)]
    lead = f // p
    rest = f - lead * p
    # in 8-digit groups: the digits before the dot, two groups, and those
    # after it as a 20-digit field rest * 10**scale, groups of 4, 8 and 8
    scale = 20 - digits + before
    down = _POW10[np.maximum(8 - scale, 0)]
    g = np.empty((5, len(f)), "<i8")
    g[0] = lead // 10 ** 8
    g[1] = lead - g[0] * 10 ** 8
    upper = rest * _POW10[np.maximum(scale - 8, 0)] // down
    g[2] = upper // 10 ** 8
    g[3] = upper - g[2] * 10 ** 8
    g[4] = rest % down * _POW10[np.minimum(scale, 8)]
    # a group to 8 digit bytes, most significant first: its halves, their
    # halves and their digits, each part by a multiply-high
    for scale, shift, mask, part, lane in ((109951163, 40, -1, 10000, 32),
                                           (5243, 19, 0x7F0000007F, 100, 16),
                                           (103, 10, 0xF000F000F000F, 10, 8)):
        hi = g * scale >> shift & mask
        g -= hi * part
        g <<= lane
        g |= hi
    # the last digit after the dot that is not 0, from the exponent of each
    # group as a float; a positional float has at least one, "0"
    last = (g[2:].astype(np.float64).view(np.int64) >> 52) - 1023 >> 3
    after = np.maximum(np.maximum((last + [[-3], [5], [13]]).max(0), fixed), 0)
    add = _AFTER.take(after, axis=1)
    before = before.clip(1)
    out[..., 0] = (bits >> 63 & ord("-") << 56).reshape(cells)
    out[..., 1] = (g[0] + _BEFORE[0].take(before)).reshape(cells)
    out[..., 2] = (g[1] + _BEFORE[1].take(before)).reshape(cells)
    out[..., 3] = (add[0] + (-after >> 63 & ord(".")) + (g[2] >> 32 << 8)
                   + (g[3] << 40)).reshape(cells)
    out[..., 4] = (add[1] + (g[3] >> 24) + (g[4] << 40)).reshape(cells)
    out[..., 5] = (add[2] + (g[4] >> 24) + _EXPONENT.take(
        np.where(fixed, 617, point + 307))).reshape(cells)
    if some:
        index = np.flatnonzero(special)
        xs = x[index]
        code = np.where(np.isnan(xs), 0, np.where(biased[index] == 0x7FF, 2, 4))
        out[np.divmod(index, cells[1])] = _SPECIAL[code + (bits[index] < 0)]
        for i in index[(biased[index] == 0) & (xs != 0)]:
            out[divmod(i, cells[1])] = np.frombuffer(
                repr(float(x[i])).encode().ljust(48, b"\0"), "<i8")


def csv_rows(header, floats, codes, words):
    """The text of a CSV: the line of the column names `header`, then a
    line per row: its cells of the float columns `floats`, buffers of
    doubles such as array('d'), as repr writes them, then words[code] of its
    cells of the columns `codes`, buffers of a byte per code.  Every line
    ends in a newline; each word is ASCII of at most 7 bytes."""
    x = np.stack(floats, axis=1, dtype=np.float64)  # a row of floats per row
    rows, width = x.shape
    words = np.array([_ascii(word.encode("ascii")) for word in words], np.int64)
    flags = np.frombuffer(b"".join(codes), np.uint8).reshape(-1, rows).T
    # a row is a slot per float, then a word per flag, six words to a slot
    slots_per_row = width + -(-len(codes) // 6)
    separators = np.zeros(6 * slots_per_row, np.int64)
    ends = [*range(5, 6 * width, 6), *range(6 * width, 6 * width + len(codes))]
    separators[ends] = ord(",") << 56
    separators[ends[-1]] = ord("\n") << 56
    block = max(1, BLOCK_CELLS // width)
    parts = [",".join(header) + "\n"]
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        slots = np.zeros((stop - start, slots_per_row, 6), "<i8")
        _float_slots(x[start:stop].ravel(), slots[:, :width])
        slots = slots.reshape(stop - start, -1)
        slots[:, 6 * width:6 * width + len(codes)] = words[flags[start:stop]]
        slots += separators
        parts.append(slots.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
