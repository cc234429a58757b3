"""Property-based tests (hypothesis) for the fixed-point substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.arith import fx_mac, requantize, saturate_raw
from repro.fixedpoint.luts import fixed_sqrt
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import Rounding, from_raw, quantize, to_raw

DATA = QFormat(8, 4)
WEIGHT = QFormat(8, 6)
ACC = QFormat(25, 10)


def formats_strategy():
    return st.builds(
        QFormat,
        total_bits=st.integers(min_value=2, max_value=24),
        frac_bits=st.integers(min_value=-4, max_value=24),
        signed=st.booleans(),
    )


@given(fmt=formats_strategy(), value=st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quantize_always_in_range(fmt, value):
    out = quantize(value, fmt)
    assert fmt.min_value - 1e-9 <= float(out) <= fmt.max_value + 1e-9


@given(fmt=formats_strategy(), value=st.floats(-1e4, 1e4, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quantize_idempotent(fmt, value):
    once = quantize(value, fmt)
    assert float(quantize(float(once), fmt)) == float(once)


@given(
    fmt=formats_strategy(),
    rounding=st.sampled_from(list(Rounding)),
)
@settings(max_examples=100, deadline=None)
def test_grid_round_trip_all_modes(fmt, rounding):
    codes = np.arange(fmt.raw_min, min(fmt.raw_max, fmt.raw_min + 512) + 1)
    values = from_raw(codes, fmt)
    assert np.array_equal(to_raw(values, fmt, rounding=rounding), codes)


@given(
    data=st.lists(st.integers(-128, 127), min_size=1, max_size=64),
    weight=st.lists(st.integers(-128, 127), min_size=1, max_size=64),
)
@settings(max_examples=200, deadline=None)
def test_mac_chain_equals_exact_dot(data, weight):
    length = min(len(data), len(weight))
    d = np.array(data[:length])
    w = np.array(weight[:length])
    acc = np.zeros(1, dtype=np.int64)
    for i in range(length):
        acc = fx_mac(acc, ACC, d[i : i + 1], DATA, w[i : i + 1], WEIGHT)
    exact = int(np.dot(d, w))
    # With |products| <= 16129 and <= 64 terms, no saturation can occur.
    assert acc[0] == exact


@given(raw=st.integers(-(2**24), 2**24 - 1))
@settings(max_examples=300, deadline=None)
def test_requantize_error_at_most_half_ulp(raw):
    out = requantize(np.array([raw]), ACC, DATA)
    exact = raw / (1 << ACC.frac_bits)
    clipped = min(max(exact, DATA.min_value), DATA.max_value)
    assert abs(float(from_raw(out, DATA)[0]) - clipped) <= DATA.resolution / 2 + 1e-12


@given(raw=st.integers(0, 2**20))
@settings(max_examples=300, deadline=None)
def test_fixed_sqrt_nearest(raw):
    fmt_in = QFormat(21, 0, signed=False)
    fmt_out = QFormat(12, 0, signed=False)
    got = int(fixed_sqrt(np.array([raw]), fmt_in, fmt_out)[0])
    exact = np.sqrt(raw)
    assert abs(got - exact) <= 0.5 + 1e-9


@given(
    values=st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=32),
    bits=st.integers(4, 25),
)
@settings(max_examples=200, deadline=None)
def test_saturate_raw_always_within(values, bits):
    fmt = QFormat(bits, 0)
    out = saturate_raw(np.array(values), fmt)
    assert out.min() >= fmt.raw_min
    assert out.max() <= fmt.raw_max


def _requantize_nearest_reference(raw, in_fmt, out_fmt):
    """Round-half-away-from-zero as two fully computed branches."""
    arr = np.asarray(raw, dtype=np.int64)
    shift = in_fmt.frac_bits - out_fmt.frac_bits
    half = 1 << (shift - 1)
    shifted = np.where(arr >= 0, (arr + half) >> shift, -((-arr + half) >> shift))
    return saturate_raw(shifted, out_fmt)


@given(
    values=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=64),
    in_frac=st.integers(1, 30),
    drop=st.integers(1, 30),
    out_bits=st.integers(2, 32),
    signed=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_fused_nearest_requantize_matches_branch_formula(
    values, in_frac, drop, out_bits, signed
):
    in_fmt = QFormat(48, in_frac)
    out_fmt = QFormat(out_bits, in_frac - drop, signed=signed)
    raw = np.array(values + [0, 1, -1], dtype=np.int64)
    before = raw.copy()
    got = requantize(raw, in_fmt, out_fmt)
    np.testing.assert_array_equal(
        got, _requantize_nearest_reference(raw, in_fmt, out_fmt)
    )
    np.testing.assert_array_equal(raw, before)  # input left untouched


def test_fused_requantize_keeps_scalar_and_view_inputs():
    scalar = requantize(np.int64(-96), ACC, DATA)
    assert isinstance(scalar, np.integer) and scalar == -2
    strided = np.arange(-600, 600, dtype=np.int64).reshape(40, 30).T
    np.testing.assert_array_equal(
        requantize(strided, ACC, DATA),
        _requantize_nearest_reference(strided, ACC, DATA),
    )
