"""CSV rows formatted in bulk from NumPy columns.

``write_rows(fh, blocks)`` writes to the binary file ``fh`` the bytes
``csv.writer`` would write for the rows of each block, with every float
field passed as ``"%.17g" % v``: fields joined by commas, each row ended
by CRLF, nothing quoted.  A block is a list of equal-length 1-D columns.
A float column gives ``"%.17g" % v``, an integer or bool column
``"%d" % v`` and a bytes (``S``) column its text, which may hold no
comma, quote, line break or inner NUL.  A column given as a pair
(values, empty) is empty where the bool array ``empty`` is true.

Every field is laid out in 8-byte words whose unused bytes are NUL, and
one compaction per block drops them.  A float takes five words:

    byte  0      sign
          1-5    "0." and three zeros (fixed notation, |x| < 1)
          6      digit 0
          8-14   digits 1-7 before the point (fixed notation)
          15     the point
          16-31  digits 1-16 after the point
          32-35  "e-0X" (scientific notation)

A table keyed by (sign, decpt, significant digits) gives the bytes kept,
as ``%g`` lays them out: fixed notation for decimal exponents -4 to 16,
``d.ddde-0X`` below, trailing zeros and a bare point dropped.  An
integer from 0 to 10**7 - 1 takes one word: its 8 zero-padded digits
from two lookups in the table of 4-digit words, shifted right past the
leading zeros.  Each block allocates its own working arrays; nothing is
kept from one block to the next.

Digits are exact for |x| in the window [1e-9, 1e7).  There x = M * 2**E
with M the 53-bit significand, and decpt is the decimal exponent with
10**(decpt-1) <= |x| < 10**decpt: the binary exponent narrows it to two
values and one comparison with a power of ten picks one.  With
q = 17 - decpt and s = -(E + q), the 17 digits are
T = floor(M * 5**q / 2**s) rounded half to even on the remainder
R = M * 5**q - T * 2**s, that is the exact binary value rounded to 17
digits, as ``"%.17g"`` rounds it; a carry to 10**17 becomes 10**16 with
decpt + 1.  T comes from |x| * 10**q in floating point, which is within
24 of it, less 32; the remainder of that guess is below 2**63, so it is
exact modulo 2**64, and its bits above s correct the guess.  Every
other float (zero, +-inf, nan, subnormals, |x| < 1e-9 or |x| >= 1e7)
is formatted by ``"%.17g" % v`` itself, one at a time, and so is every
integer of a column that holds one outside [0, 10**7), by ``"%d" % v``.
"""

from math import floor, ldexp, log10

import numpy as np

_LOW = 1e-9
_HIGH = 1e7
_DECPT = np.arange(-8, 9)                 # decpt in the window, after rounding
_NSIG = np.arange(1, 18)                  # significant digits without trailing zeros
_FLOAT_WORDS = 5
_FLOAT_SEP = 36                           # byte of the separator after a float
_INT_HIGH = 10 ** 7
_INT_SEP = 7
# by the count of _TENS at or below an integer (its digits less one): the
# bits of leading zeros in its 8 zero-padded digits
_TENS = np.array([10 ** k for k in range(1, 7)], dtype=np.uint64)
_INT_SHIFT = np.arange(56, 0, -8, dtype=np.uint64)
_WORD = np.dtype("<u8")                   # a word holds its bytes little-endian
_ZERO_DIGITS = 0x3030303030303030         # "00000000"
_CRLF = int.from_bytes(b"\r\n", "little")

_Q0 = 10                                  # q = 17 - decpt runs from 10 to 25
_POW5 = np.array([5 ** q for q in range(_Q0, 26)], dtype=np.uint64)
_POW10 = np.array([float(10 ** q) for q in range(_Q0, 26)])


def _digit_words():
    """The 4 zero-padded ASCII digits of 0 to 9999, the first in the
    lowest byte of a little-endian word."""
    i = np.arange(100, dtype=np.uint64)
    pairs = (ord("0") + i // 10) | (ord("0") + i % 10) << 8
    i = np.arange(10000)
    return pairs[i // 100] | pairs[i % 100] << 16


_QUADS = _digit_words()


def _below_pow10(v, k):
    """Whether the float v > 0 lies below 10**k, exactly."""
    num, den = v.as_integer_ratio()
    return num < den * 10 ** k if k >= 0 else num * 10 ** -k < den


def _decpt_tables():
    """By biased binary exponent b in the window: the decpt of the largest
    float with that exponent (the others have it or one less), and the
    least float >= 10**(decpt - 1), below which x has the lesser decpt."""
    bound = np.zeros(2048, dtype=np.int64)
    ceil = np.zeros(2048)
    for b in range(993, 1047):                    # the exponents of 1e-9 to 1e7
        top = ldexp(2 ** 53 - 1, b - 1075)
        k = floor(log10(top)) + 1
        k += _below_pow10(top, k - 1) - (not _below_pow10(top, k))
        v = float(10 ** (k - 1)) if k >= 1 else 1 / 10 ** (1 - k)
        bound[b] = k
        ceil[b] = np.nextafter(v, np.inf) if _below_pow10(v, k - 1) else v
    return bound, ceil


_DECPT_BOUND, _CEIL_POW10 = _decpt_tables()


def _float_table():
    """Each of the five float words (rows) by (sign, decpt, significant
    digits): in each byte a kept character, 0xFF for a kept digit, NUL
    for a dropped byte."""
    d = _DECPT[:, None, None]
    n = _NSIG[None, :, None]
    sci = d <= -4
    fixed = ~sci
    byte = np.zeros((2, len(_DECPT), len(_NSIG), 8 * _FLOAT_WORDS), dtype=np.uint8)

    def put(slots, keep, char):
        byte[..., slots] = np.where(keep, char, 0)

    byte[1, ..., 0] = ord("-")
    put(slice(1, 3), fixed & (d <= 0), np.frombuffer(b"0.", dtype=np.uint8))
    put(slice(3, 6), fixed & (np.arange(3) < -d), ord("0"))
    byte[..., 6] = 0xFF
    i = np.arange(1, 8)
    put(slice(8, 15), fixed & (i < d), 0xFF)
    put(slice(15, 16), (fixed & (d >= 1) & (n > d)) | (sci & (n > 1)), ord("."))
    i = np.arange(1, 17)
    put(slice(16, 32), ~(fixed & (i < d)) & (i < n), 0xFF)
    exp = np.stack(np.broadcast_arrays(ord("e"), ord("-"), ord("0"), 49 - d[..., 0]), axis=-1)
    put(slice(32, 36), sci, exp)
    return byte.reshape(-1, 8 * _FLOAT_WORDS).view(_WORD).T.astype(np.uint64, order="C")


_FLOAT_TABLE = _float_table()


def _eight_digits(g):
    """Replace each g < 10**8 by its 8 ASCII digits, the first in the
    lowest byte."""
    upper = g // 10000
    g -= upper * 10000
    lower = _QUADS.take(g.view(np.int64))
    _QUADS.take(upper.view(np.int64), out=g)
    lower <<= 32
    g |= lower


def _float_words(x, negative, cells):
    """Write the five words of each x > 0 in the exact window into the
    word views ``cells``, one per column of len(x) // len(cells) rows;
    ``x`` is overwritten."""
    bits = x.view(np.uint64)
    s = bits >> 52
    e = s.view(np.int64)
    decpt = _DECPT_BOUND.take(e)
    guess = _CEIL_POW10.take(e)
    below = x < guess
    decpt -= below
    q = (17 - _Q0) - decpt                             # q, less _Q0
    np.subtract(1075 - _Q0, e, out=e)
    e -= q                                             # s = -(E + q)

    _POW10.take(q, out=guess)
    guess *= x
    t = guess.astype(np.uint64)
    t -= 32                                            # T less 8 to 56
    p = bits & 0xFFFFFFFFFFFFF
    p |= 1 << 52
    w = _POW5.take(q)
    p *= w
    np.left_shift(t, s, out=w)
    p -= w                                             # M * 5**q - t * 2**s
    np.right_shift(p, s, out=w)
    t += w                                             # T
    np.left_shift(1, s, out=w)
    w -= 1
    p &= w                                             # R
    w >>= 1
    p += w
    np.bitwise_and(t, 1, out=w)
    p += w
    p >>= s                                            # R + odd(T) > 2**(s-1)
    t += p
    np.equal(t, 10 ** 17, out=below)
    np.copyto(t, 10 ** 16, where=below)
    decpt += below

    np.floor_divide(t, 10 ** 8, out=p)
    np.multiply(p, 10 ** 8, out=w)
    t -= w                                             # digits 9 to 16
    lead = p // 10 ** 8                                # digit 0
    np.multiply(lead, 10 ** 8, out=w)
    p -= w                                             # digits 1 to 8
    _eight_digits(t)
    _eight_digits(p)
    # the highest nonzero byte of the digit values gives the digit count
    np.bitwise_xor(t, _ZERO_DIGITS, out=w)
    np.copyto(guess, w, casting="unsafe")
    guess *= 2.0 ** 64
    np.bitwise_xor(p, _ZERO_DIGITS, out=w)
    np.copyto(x, w, casting="unsafe")
    guess += x
    _, exponent = np.frexp(guess)
    np.subtract(exponent, 1, out=q)
    q >>= 3
    q += 1                                             # significant digits - 1
    np.multiply(negative, len(_DECPT), out=e)
    decpt += e
    decpt -= _DECPT[0]
    decpt *= len(_NSIG)
    decpt += q
    lead += ord("0")
    lead <<= 48
    lead |= 0xFF00FFFFFFFFFFFF
    np.bitwise_or(p, 0xFF00000000000000, out=w)
    rows = len(x) // len(cells)
    for j, cell in enumerate(cells):
        column = slice(j * rows, (j + 1) * rows)
        key = decpt[column]
        for k, digits in enumerate((lead, w, p, t)):
            np.bitwise_and(_FLOAT_TABLE[k].take(key), digits[column], out=cell[:, k])
        _FLOAT_TABLE[4].take(key, out=cell[:, 4])


def _one_at_a_time(cell, rows, values, fmt):
    """Write ``fmt % values[r]`` into row r of the word view ``cell`` for
    each r in ``rows``."""
    size = cell.itemsize * cell.shape[1]
    for r in rows:
        cell[r] = np.frombuffer((fmt % values[r]).encode().ljust(size, b"\0"), dtype=_WORD)


def _float_cells(columns, shown, cells):
    """Write the float ``columns`` into their word views ``cells``; only
    the ``shown`` (c, rows) fields need be right."""
    x = np.array(columns, dtype=np.float64).reshape(-1)
    negative = np.signbit(x)
    np.abs(x, out=x)
    other = x >= _LOW
    other &= x < _HIGH
    np.invert(other, out=other)
    np.copyto(x, 1.0, where=other)
    _float_words(x, negative, cells)
    other = other.reshape(shown.shape) & shown
    for column, cell, rows in zip(columns, cells, other):
        _one_at_a_time(cell, np.flatnonzero(rows), column, "%.17g")


def _int_cells(values, cell):
    """``"%d"`` text of ``values``, all in [0, 10**7), in the one-word
    view ``cell``."""
    y = values.astype(np.uint64)
    shift = _INT_SHIFT.take(np.searchsorted(_TENS, y, side="right"))
    _eight_digits(y)
    np.right_shift(y, shift, out=cell[:, 0])


def _layout(d):
    """Words per field and the separator byte of a column, and whether
    its fields are formatted one at a time."""
    kind = d.dtype.kind
    if kind == "f":
        return _FLOAT_WORDS, _FLOAT_SEP, False
    if kind == "S":
        return (d.dtype.itemsize + 8) // 8, d.dtype.itemsize, False
    if kind not in "iub":
        raise ValueError("cannot write a column of dtype %s" % d.dtype)
    if kind == "b" or not d.size or (d.min() >= 0 and d.max() < _INT_HIGH):
        return 1, _INT_SEP, False
    width = max(len("%d" % d.min()), len("%d" % d.max()))
    return (width + 8) // 8, width, True


def _block_bytes(columns):
    """The CSV bytes of one block of rows."""
    data = [col[0] if isinstance(col, tuple) else col for col in columns]
    empty = [col[1] if isinstance(col, tuple) else None for col in columns]
    layout = [_layout(d) for d in data]
    ends = np.cumsum([nw for nw, _, _ in layout])
    count = len(data[0])
    grid = np.empty((count, ends[-1] + 1), _WORD)
    cells = [grid[:, end - nw:end] for end, (nw, _, _) in zip(ends, layout)]

    floats = [j for j, d in enumerate(data) if d.dtype.kind == "f"]
    if floats:
        shown = np.empty((len(floats), count), bool)
        for i, j in enumerate(floats):
            if empty[j] is None:
                shown[i] = True
            else:
                np.logical_not(empty[j], out=shown[i])
        _float_cells([data[j] for j in floats], shown, [cells[j] for j in floats])
    for d, cell, gone, (nw, sep, one_by_one) in zip(data, cells, empty, layout):
        if one_by_one:
            rows = range(count) if gone is None else np.flatnonzero(~gone)
            _one_at_a_time(cell, rows, d, "%d")
        elif d.dtype.kind in "iub":
            _int_cells(d, cell)
        elif d.dtype.kind == "S":
            cell[:] = 0
            text = cell.view(np.uint8)[:, :d.dtype.itemsize]
            text[:] = np.ascontiguousarray(d).reshape(-1, 1).view(np.uint8)
            if np.isin(text, np.frombuffer(b',"\r\n', dtype=np.uint8)).any():
                raise ValueError("text field holds a comma, quote or line break")
            if ((text[:, :-1] == 0) & (text[:, 1:] != 0)).any():
                raise ValueError("text field holds a NUL byte")
        if gone is not None:
            cell[gone] = 0
    grid[:, -1] = _CRLF
    chars = grid.view(np.uint8)
    for end, (nw, sep, _) in zip(ends[:-1], layout):
        chars[:, 8 * (end - nw) + sep] = ord(",")
    return grid.tobytes().translate(None, b"\0")


def write_rows(fh, blocks):
    """Write the rows of each block of columns in ``blocks`` to the binary
    file ``fh`` (see the module)."""
    for columns in blocks:
        fh.write(_block_bytes(columns))
