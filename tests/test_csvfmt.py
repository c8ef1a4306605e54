import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubesynth import csvfmt


def written(*columns):
    fh = io.BytesIO()
    csvfmt.write_rows(fh, [list(columns)])
    return fh.getvalue()


def assert_written_as_percent_17g(values):
    values = np.asarray(values, dtype=float)
    assert written(values).decode() == "".join("%.17g\r\n" % v for v in values.tolist())


def edge_floats():
    """Zeros, the least subnormal, both ends of the exact window, the
    powers of ten around it, dyadic ties and whole numbers, with their
    negatives."""
    out = [0.0, 5e-324, 2.2250738585072014e-308]
    for edge in (1e-9, 1e7):
        out += [edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)]
    for k in range(-10, 9):
        p = float("1e%d" % k)
        out += [p, np.nextafter(p, 0), np.nextafter(p, np.inf)]
    out += [k / 2.0 ** j for j in range(1, 64) for k in range(1, 64, 2)]
    out += list(range(0, 10 ** 7 + 1, 7919)) + [9999999, 10 ** 7]
    return out + [-v for v in out]


def test_edge_floats_written_as_percent_17g():
    assert_written_as_percent_17g(edge_floats())


# 0 and both sides of every digit-count boundary up to 10**7, the first
# value past the fast window: with it a column is written one at a time
FAST_EDGE_INTEGERS = [0] + [v for k in range(1, 7) for v in (10 ** k - 1, 10 ** k)] \
    + [10 ** 7 - 1]
edge_integer_columns = pytest.mark.parametrize(
    "values", [FAST_EDGE_INTEGERS, FAST_EDGE_INTEGERS + [10 ** 7]])


@edge_integer_columns
def test_edge_integers_written_as_percent_d(values):
    assert written(np.array(values)).decode() == "".join("%d\r\n" % v for v in values)


@edge_integer_columns
def test_integer_kinds_are_those_of_csv_writer(values):
    values = np.array(values)
    flags = np.arange(len(values)) % 3 == 0
    small = np.resize(np.array([0, 9, 10, 99, 100, 255], dtype=np.uint8), len(values))
    empty = np.arange(len(values)) % 2 == 1
    out = io.StringIO()
    w = csv.writer(out)
    for v, flag, b, gone in zip(values.tolist(), flags.tolist(), small.tolist(),
                                empty.tolist()):
        w.writerow([int(flag), b, "" if gone else v])
    assert written(flags, small, (values, empty)) == out.getvalue().encode()


bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array([b], dtype=np.uint64).view(np.float64)[0]))
any_float = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
             | st.floats(min_value=-1e7, max_value=1e7) | bit_patterns)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=40))
def test_any_float_written_as_percent_17g(values):
    assert_written_as_percent_17g(values)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(0, 10 ** 7),
                min_size=1, max_size=40))
def test_any_integer_written_as_percent_d(values):
    assert written(np.array(values, dtype=np.int64)).decode() == \
        "".join("%d\r\n" % v for v in values)


def test_mixed_rows_are_those_of_csv_writer():
    ints = np.array([0, 7, 12, 3456789])
    flags = np.array([True, False, True, True])
    floats = np.array([0.5, -2.0, 1e-12, np.inf])
    names = np.array([b"H", b"X", b"", b"long name"])
    empty = np.array([False, True, False, True])
    out = io.StringIO()
    w = csv.writer(out)
    for row in zip(ints.tolist(), flags.tolist(), floats.tolist(), names.tolist(),
                   empty.tolist()):
        i, flag, v, name, gone = row
        w.writerow([i, int(flag), "%.17g" % v, name.decode(), "" if gone else "%.17g" % v])
    assert written(ints, flags, floats, names, (floats, empty)) == out.getvalue().encode()


def test_blocks_are_written_in_order():
    fh = io.BytesIO()
    csvfmt.write_rows(fh, [[np.arange(3), np.linspace(0, 1, 3)],
                           [np.arange(2), np.array([1e300, -1e-300])],
                           [np.arange(0), np.arange(0.0)]])
    assert fh.getvalue() == b"0,0\r\n1,0.5\r\n2,1\r\n0,1.0000000000000001e+300\r\n1,-1e-300\r\n"


@pytest.mark.parametrize("text", [b"a,b", b'say "hi"', b"two\r\nlines"])
def test_text_needing_quotes_is_rejected(text):
    with pytest.raises(ValueError, match="comma, quote or line break"):
        written(np.array([b"plain", text]))


@pytest.mark.parametrize("text", [b"a\x00b", b"\x00b"])
def test_text_with_inner_nul_is_rejected(text):
    # csv.writer would write the NUL; the compaction would drop it
    with pytest.raises(ValueError, match="NUL"):
        written(np.array([b"plain", text]))


def test_trailing_nul_is_padding():
    # NumPy strips trailing NULs from an S item, as csv.writer then sees it
    assert written(np.array([b"ab\x00", b"abc"])) == b"ab\r\nabc\r\n"


def test_other_dtypes_are_rejected():
    with pytest.raises(ValueError, match="dtype"):
        written(np.array(["unicode"]))
