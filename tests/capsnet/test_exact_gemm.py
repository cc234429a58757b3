"""Exactness tiers of the batched engine's integer GEMMs.

`exact_dtype` picks float32, float64 or int64 from an a-priori bound on
every partial sum; `_exact_matmul` / `_exact_einsum` then run the product
in that dtype and return int64.  The property test drives the bound to
both sides of 2**24 and 2**53, including operands that attain it, and
demands equality with a plain int64 product.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsnet.batched import _exact_einsum, _exact_matmul, exact_dtype, max_abs


def _operand(rng, shape, magnitude, extreme, sign):
    """Integers in ``[-magnitude, magnitude]`` that attain the magnitude.

    ``extreme`` fills the whole operand with ``sign * magnitude`` so a dot
    product reaches the tier bound exactly.
    """
    if extreme:
        return np.full(shape, sign * magnitude, dtype=np.int64)
    out = rng.integers(-magnitude, magnitude + 1, size=shape, dtype=np.int64)
    out.flat[0] = sign * magnitude
    return out


@st.composite
def gemm_operands(draw):
    stack = draw(st.integers(0, 3))
    m, k, n = draw(st.integers(1, 6)), draw(st.integers(1, 48)), draw(st.integers(1, 6))
    limit = draw(st.sampled_from([2**24, 2**53]))
    # The bound lands within a factor of four of the tier limit.
    target = int(limit * draw(st.floats(0.25, 4.0)))
    max_a = draw(st.integers(1, 2**31))
    max_b = max(1, min(2**40, target // (k * max_a)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = (stack,) if stack else ()
    extreme = draw(st.booleans())
    a = _operand(rng, lead + (m, k), max_a, extreme, draw(st.sampled_from([-1, 1])))
    b = _operand(rng, lead + (k, n), max_b, extreme, draw(st.sampled_from([-1, 1])))
    return a, b


@given(operands=gemm_operands())
@settings(max_examples=300, deadline=None)
def test_tiered_product_equals_int64_product(operands):
    a, b = operands
    dtype = exact_dtype(a.shape[-1] * max_abs(a) * max_abs(b))
    expected = np.matmul(a, b)
    got = _exact_matmul(a.astype(dtype), b.astype(dtype))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(_exact_einsum(a.astype(dtype), b.astype(dtype)), expected)
    if a.ndim == 3:
        np.testing.assert_array_equal(
            expected, np.einsum("sik,skj->sij", a, b, dtype=np.int64)
        )


@pytest.mark.parametrize(
    ("bound", "dtype"),
    [
        (0, np.float32),
        (2**24 - 1, np.float32),
        (2**24, np.float64),
        (2**53 - 1, np.float64),
        (2**53, np.int64),
        (2**62, np.int64),
    ],
)
def test_tier_limits(bound, dtype):
    assert exact_dtype(bound) == dtype


@pytest.mark.parametrize(
    ("value", "narrower", "tier"),
    [(2**12 + 1, np.float32, np.float64), (2**27 + 1, np.float64, np.int64)],
)
def test_guard_rejects_a_tier_that_would_round(value, narrower, tier):
    # value**2 needs one bit more than the narrower significand holds.
    a = np.array([[value]], dtype=np.int64)
    assert exact_dtype(max_abs(a) ** 2) == tier
    assert int(_exact_matmul(a.astype(narrower), a.astype(narrower))[0, 0]) != value**2
    assert int(_exact_matmul(a.astype(tier), a.astype(tier))[0, 0]) == value**2
