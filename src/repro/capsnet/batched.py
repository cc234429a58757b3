"""Batch-vectorized quantized CapsuleNet forward (bit-identical, fast).

:class:`QuantizedCapsuleNet` is the golden model: one image at a time,
layer by layer, easy to audit.  The live serving runtime
(:mod:`repro.serve.runtime`) cannot afford ~1 ms of Python overhead per
image, so :class:`BatchedQuantizedForward` executes the *same* integer
computation over a whole ``(N, H, W)`` batch at once: batched im2col
convolutions through one GEMM each, class-capsule predictions and the
routing products through stacked BLAS matmuls, and the ``hw_*`` operators
(which already vectorize over leading axes) applied to ``(N, ...)``
tensors.

Like CapsAcc keeping its 8-bit weights resident in the systolic array,
the engine prepares every layer's weight matrix once, at construction,
and keeps it read-only (one engine serves several array threads).  Each
GEMM runs in the narrowest of three exactness tiers that its a-priori
bound ``terms * max|data| * max|weight|`` admits (:func:`exact_dtype`):

* **float32** when the bound is below ``2**24`` -- every partial sum fits
  the 24-bit significand, the host twin of the paper's 25-bit partial sum;
* **float64** when it is below ``2**53``;
* **int64** otherwise (the weights are then a view of
  ``qnet.raw_weights``, not a copy).

The weight maxima are read from the weights; the data maxima come from
the saturating format that produced the data (input quantization,
``requantize`` or a LUT), so no call rescans an operand.

Bit-identity with the per-image path is guaranteed, not approximate:

* every saturation / requantization / LUT step is element-wise, so
  adding a leading batch axis cannot change any value;
* every tier represents each product and partial sum exactly, in any
  summation order;
* the accumulator saturation happens after the full dot product in both
  paths (:func:`~repro.fixedpoint.arith.saturate_raw` at readout).

``tests/capsnet/test_batched_forward.py`` asserts raw-tensor equality
against :meth:`QuantizedCapsuleNet.forward` layer by layer, on the tiny
and on the MNIST network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# hw_norm / hw_squash / hw_softmax are element-wise or last-axis
# reductions that broadcast over leading axes; the batched path relies on
# exactly that property to reuse them on (N, ...) tensors unchanged.
from repro.capsnet.hwops import hw_norm, hw_softmax, hw_squash
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.errors import ShapeError
from repro.fixedpoint.arith import requantize, saturate_raw
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import to_raw

#: Float GEMM dtypes, narrowest first, with the bound below which every
#: integer up to it is exactly representable (2**significand bits).
_FLOAT_TIERS = ((np.dtype(np.float32), 2**24), (np.dtype(np.float64), 2**53))


def exact_dtype(bound: int) -> np.dtype:
    """Narrowest dtype that computes an integer GEMM exactly.

    ``bound`` caps every partial sum of every dot product, e.g.
    ``terms * max|a| * max|b|``.  A float dtype whose significand holds
    ``bound`` represents every product and every partial sum exactly,
    whatever order BLAS adds them in; beyond ``2**53`` only int64 does.
    """
    for dtype, limit in _FLOAT_TIERS:
        if bound < limit:
            return dtype
    return np.dtype(np.int64)


def max_abs(values: np.ndarray) -> int:
    """Largest magnitude in ``values`` (0 when empty)."""
    return int(max(values.max(initial=0), -values.min(initial=0)))


def _fmt_max_abs(fmt: QFormat) -> int:
    """Largest magnitude a saturated code of ``fmt`` can have."""
    return max(-fmt.raw_min, fmt.raw_max)


def _resident(weights: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``weights`` prepared for GEMMs in ``dtype``, read-only.

    Float tiers get one contiguous converted copy; the int64 tier keeps a
    view of the integer weights, so it never duplicates them.
    """
    if dtype == np.int64:
        resident = weights.view()
    else:
        resident = np.ascontiguousarray(weights, dtype=dtype)
    resident.flags.writeable = False
    return resident


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of integer codes held in their exact tier's dtype, as int64."""
    product = np.matmul(a, b)
    return product if product.dtype == np.int64 else product.astype(np.int64)


def _exact_einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The capsule layers' products as stacked ``a @ b``, in int64.

    ClassCaps predictions and both routing products (weighted sums and
    agreements) go through this one name, apart from the convolutions'
    :func:`_exact_matmul`, so a per-stage timer can attribute them.
    """
    return _exact_matmul(a, b)


@dataclass(frozen=True)
class _ConvGemm:
    """One convolution's resident weight matrix and its parameters.

    Float tiers order each patch channel-last, ``(k, k, C)``, so the
    im2col gather copies contiguous runs of ``C`` codes from a
    channel-last input; the int64 tier keeps the weights' own
    ``(C, k, k)`` order, so its matrix stays a view of them.
    """

    weights: np.ndarray  # (k*k*C or C*k*k, O), read-only, in the tier dtype
    patch_axes: tuple[int, ...]  # (N, C, oh, ow, k, k) window axes, patch order
    bias: np.ndarray | None
    kernel: int
    stride: int
    acc_fmt: QFormat

    @classmethod
    def build(
        cls,
        weight_raw: np.ndarray,
        bias_raw: np.ndarray | None,
        stride: int,
        acc_fmt: QFormat,
        data_fmt: QFormat,
    ) -> "_ConvGemm":
        out_channels, _, kernel, kernel_w = weight_raw.shape
        if kernel != kernel_w:
            raise ShapeError("only square kernels are supported")
        terms = weight_raw[0].size
        dtype = exact_dtype(terms * _fmt_max_abs(data_fmt) * max_abs(weight_raw))
        if dtype == np.int64:
            wmat, patch_axes = weight_raw.reshape(out_channels, -1), (1, 4, 5)
        else:
            wmat = weight_raw.transpose(0, 2, 3, 1).reshape(out_channels, -1)
            patch_axes = (4, 5, 1)
        return cls(
            _resident(wmat.T, dtype), patch_axes, bias_raw, kernel, stride, acc_fmt
        )


def _batched_conv2d(x_raw: np.ndarray, conv: _ConvGemm) -> np.ndarray:
    """Batched integer valid convolution: ``(N, C, H, W) -> (N, O, oh, ow)``.

    The batched twin of :func:`repro.capsnet.hwops.quantized_conv2d`:
    the input is cast to the layer's tier dtype first, so the im2col
    patches (gathered with
    :func:`numpy.lib.stride_tricks.sliding_window_view`, copied once by
    the GEMM reshape) are built directly in that dtype, and all ``N``
    images run through one GEMM against the resident weight matrix.  The
    result is a view of channel-last memory, which the next layer's
    channel-last gather reads in order.
    """
    kernel, stride = conv.kernel, conv.stride
    x = x_raw.astype(conv.weights.dtype, copy=False)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    n, _, out_h, out_w = windows.shape[:4]
    patches = np.ascontiguousarray(
        windows.transpose(0, 2, 3, *conv.patch_axes)
    ).reshape(n * out_h * out_w, -1)
    acc = _exact_matmul(patches, conv.weights).reshape(n, out_h, out_w, -1)
    if conv.bias is not None:
        acc += conv.bias
    np.clip(acc, conv.acc_fmt.raw_min, conv.acc_fmt.raw_max, out=acc)
    return acc.transpose(0, 3, 1, 2)


class BatchedQuantizedForward:
    """Vectorized inference over ``(N, H, W)`` batches of one network.

    Wraps a :class:`~repro.capsnet.quantized.QuantizedCapsuleNet` (shared
    weights, LUTs and formats) and reproduces its forward pass with a
    leading batch axis.  Predictions are bit-identical to
    :meth:`QuantizedCapsuleNet.predict_batch`.  Measured engine ceilings
    on a 2-vCPU host with one BLAS thread (``perfbench``'s
    ``capsnet.ceiling_ms_per_img``): MNIST ~11 ms/img at batch 1,
    ~12 at batch 8 and ~16 at batch 64; the tiny network ~1.1 ms/img at
    batch 1 and ~0.06 ms/img at batch 64.

    Every weight matrix is prepared once, here, in its exactness tier's
    dtype (see the module docstring); :attr:`gemm_dtypes` names the tier
    each layer runs in.
    """

    def __init__(self, qnet: QuantizedCapsuleNet) -> None:
        self.qnet = qnet
        self.config = qnet.config
        fmts = qnet.formats
        raw = qnet.raw_weights
        self._classcaps_acc = fmts.acc(fmts.caps_data, fmts.classcaps_weight)
        self._sum_acc = fmts.acc(fmts.caps_data, fmts.coupling)
        self._upd_acc = fmts.acc(fmts.caps_data, fmts.caps_data)
        self._conv1 = _ConvGemm.build(
            raw["conv1_w"],
            raw["conv1_b"],
            self.config.conv1.stride,
            fmts.acc(fmts.input, fmts.conv1_weight),
            fmts.input,
        )
        self._primary = _ConvGemm.build(
            raw["primary_w"],
            raw["primary_b"],
            self.config.primary.stride,
            fmts.acc(fmts.conv1_out, fmts.primary_weight),
            fmts.conv1_out,
        )
        # ClassCaps as one (d, j*o) matrix per input capsule i, so a batch
        # is a stack of i GEMMs (N, d) @ (d, j*o).  Float tiers store it
        # contiguous; the int64 view is reshaped (copied) per call instead.
        w = raw["classcaps_w"]
        squash_max = _fmt_max_abs(qnet.luts.squash.out_fmt)
        self._classcaps = _resident(
            w.transpose(0, 3, 1, 2),
            exact_dtype(w.shape[-1] * squash_max * max_abs(w)),
        )
        # Routing multiplies data by data; both products share the tier
        # of the larger bound, so u_hat is converted once per batch.
        num_in, num_out, out_dim = w.shape[:3]
        caps_max = _fmt_max_abs(fmts.caps_data)
        self._routing_dtype = exact_dtype(
            max(
                num_in * _fmt_max_abs(fmts.coupling) * caps_max,
                out_dim * caps_max * squash_max,
            )
        )

    @property
    def gemm_dtypes(self) -> dict[str, np.dtype]:
        """The exactness tier (GEMM dtype) of each layer's products."""
        return {
            "conv1": self._conv1.weights.dtype,
            "primary": self._primary.weights.dtype,
            "classcaps": self._classcaps.dtype,
            "routing": self._routing_dtype,
        }

    def forward_raw(self, images: np.ndarray) -> dict[str, np.ndarray]:
        """Run the batch; return the raw tensors of every stage.

        ``images`` is ``(N, H, W)`` or ``(N, C, H, W)`` real-valued; the
        returned dict carries ``conv1_out`` / ``primary`` / ``u_hat`` /
        ``class_caps`` / ``length_sumsq`` / ``predictions``, each with a
        leading batch axis and bit-identical to the per-image path.
        """
        qnet = self.qnet
        fmts = qnet.formats
        luts = qnet.luts
        config = self.config
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[:, np.newaxis]
        expected = (config.in_channels, config.image_size, config.image_size)
        if images.shape[1:] != expected:
            raise ShapeError(f"batch image shape {images.shape[1:]} != {expected}")

        image_raw = to_raw(images, fmts.input)
        conv1_acc = _batched_conv2d(image_raw, self._conv1)
        conv1_raw = requantize(
            np.maximum(conv1_acc, 0), self._conv1.acc_fmt, fmts.conv1_out
        )

        primary_acc = _batched_conv2d(conv1_raw, self._primary)
        preact = requantize(primary_acc, self._primary.acc_fmt, fmts.primary_preact)
        spec = config.primary
        out_size = config.primary_out_size
        n = preact.shape[0]
        grouped = preact.reshape(
            n, spec.capsule_channels, spec.capsule_dim, out_size, out_size
        )
        capsules = grouped.transpose(0, 3, 4, 1, 2).reshape(n, -1, spec.capsule_dim)
        primary_raw = hw_squash(capsules, fmts.primary_preact, luts, fmts)

        # u_hat[n, i] = primary[n, i] @ W[i]: stacked over i, (i, N, j*o).
        w = self._classcaps
        num_in, dim, num_out, out_dim = w.shape
        acc = _exact_einsum(
            primary_raw.transpose(1, 0, 2).astype(w.dtype),
            w.reshape(num_in, dim, num_out * out_dim),
        )
        acc = acc.reshape(num_in, n, num_out, out_dim).transpose(1, 0, 2, 3)
        acc = saturate_raw(acc, self._classcaps_acc)
        u_hat_raw = requantize(acc, self._classcaps_acc, fmts.caps_data)

        v_raw = self._route(u_hat_raw)
        _, sumsq = hw_norm(v_raw, fmts.caps_data, luts, fmts)
        return {
            "conv1_out": conv1_raw,
            "primary": primary_raw,
            "u_hat": u_hat_raw,
            "class_caps": v_raw,
            "length_sumsq": sumsq,
            "predictions": np.argmax(sumsq, axis=-1).astype(np.int64),
        }

    def _route(self, u_hat_raw: np.ndarray) -> np.ndarray:
        """Batched routing-by-agreement; returns ``(N, num_out, out_dim)``.

        Both products run stacked over ``(n, j)``: the weighted sum as
        ``(1, i) @ (i, o)`` and the agreement as ``(i, o) @ (o, 1)``,
        against one tier-dtype copy of ``u_hat`` viewed as ``(N, j, i, o)``.
        """
        qnet = self.qnet
        fmts = qnet.formats
        luts = qnet.luts
        dtype = self._routing_dtype
        n, num_in, num_out, out_dim = u_hat_raw.shape
        u_hat = u_hat_raw.astype(dtype).transpose(0, 2, 1, 3)
        iterations = self.config.classcaps.routing_iterations
        b_raw = np.zeros((n, num_in, num_out), dtype=np.int64)
        if qnet.optimized_routing:
            c_raw = np.full(
                (n, num_in, num_out),
                qnet._uniform_coupling_code(num_out),
                dtype=np.int64,
            )
        else:
            c_raw = hw_softmax(b_raw, luts, fmts, axis=2)
        v_raw = np.zeros((n, num_out, out_dim), dtype=np.int64)
        for iteration in range(1, iterations + 1):
            if iteration > 1:
                c_raw = hw_softmax(b_raw, luts, fmts, axis=2)
            c_rows = c_raw.transpose(0, 2, 1).astype(dtype)[:, :, np.newaxis, :]
            s_acc = _exact_einsum(c_rows, u_hat)[:, :, 0, :]
            s_acc = saturate_raw(s_acc, self._sum_acc)
            s_raw = requantize(s_acc, self._sum_acc, fmts.primary_preact)
            v_raw = hw_squash(s_raw, fmts.primary_preact, luts, fmts)
            if iteration < iterations:
                v_cols = v_raw.astype(dtype)[..., np.newaxis]
                agree = _exact_einsum(u_hat, v_cols)[..., 0].transpose(0, 2, 1)
                agree = saturate_raw(agree, self._upd_acc)
                delta = requantize(agree, self._upd_acc, fmts.logits)
                b_raw = saturate_raw(b_raw + delta, fmts.logits)
        return v_raw

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Classify a batch: ``(N, H, W)`` images -> ``(N,)`` predictions."""
        return self.forward_raw(images)["predictions"]
