"""Bit-identity of the batch-vectorized quantized forward pass.

`BatchedQuantizedForward` promises *exact* raw-tensor equality with the
per-image golden model `QuantizedCapsuleNet.forward` — not approximate
agreement.  These tests hold it to that, layer by layer, in both routing
variants, on the tiny and the MNIST network, in every exactness tier,
plus shape validation, determinism and the module-level stage names that
per-layer instrumentation wraps.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.capsnet.batched as batched_module
from repro.capsnet.batched import BatchedQuantizedForward
from repro.capsnet.hwops import QuantizedFormats
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.data.synthetic import SyntheticDigits
from repro.errors import ShapeError
from repro.fixedpoint.formats import QFormat

# forward_raw key -> QuantizedOutput attribute carrying the same tensor.
STAGES = [
    ("conv1_out", "conv1_out_raw"),
    ("primary", "primary_raw"),
    ("u_hat", "u_hat_raw"),
    ("class_caps", "class_caps_raw"),
    ("length_sumsq", "length_sumsq_raw"),
]


@pytest.fixture(scope="module")
def batch_images(tiny_config):
    generator = SyntheticDigits(size=tiny_config.image_size, seed=11)
    return generator.generate(6).images


def assert_stages_match_golden(qnet, images):
    out = BatchedQuantizedForward(qnet).forward_raw(images)
    for i, image in enumerate(images):
        golden = qnet.forward(image)
        for batch_key, golden_attr in STAGES:
            np.testing.assert_array_equal(
                out[batch_key][i],
                getattr(golden, golden_attr),
                err_msg=f"stage {batch_key!r} diverged at image {i}",
            )
        assert int(out["predictions"][i]) == golden.prediction


class TestLayerwiseEquality:
    def test_every_stage_matches_per_image_forward(self, tiny_qnet, batch_images):
        assert_stages_match_golden(tiny_qnet, batch_images)

    def test_mnist_every_stage_matches_per_image_forward(self, mnist_config):
        # PrimaryCaps is a 20,736-term GEMM here: the float32 tier's
        # widest use.
        qnet = QuantizedCapsuleNet(mnist_config)
        assert BatchedQuantizedForward(qnet).gemm_dtypes["primary"] == np.float32
        images = SyntheticDigits(size=mnist_config.image_size, seed=5).generate(2).images
        assert_stages_match_golden(qnet, images)

    def test_textbook_routing_matches_too(self, tiny_config, tiny_weights, batch_images):
        qnet = QuantizedCapsuleNet(
            tiny_config, weights=tiny_weights, optimized_routing=False
        )
        out = BatchedQuantizedForward(qnet).forward_raw(batch_images)
        for i, image in enumerate(batch_images):
            golden = qnet.forward(image)
            np.testing.assert_array_equal(
                out["class_caps"][i], golden.class_caps_raw
            )
            assert int(out["predictions"][i]) == golden.prediction

    def test_predict_matches_predict_batch(self, tiny_qnet, batch_images):
        batched = BatchedQuantizedForward(tiny_qnet)
        np.testing.assert_array_equal(
            batched.predict(batch_images), tiny_qnet.predict_batch(batch_images)
        )

    def test_channel_axis_optional(self, tiny_qnet, batch_images):
        batched = BatchedQuantizedForward(tiny_qnet)
        with_channel = batch_images[:, np.newaxis, :, :]
        np.testing.assert_array_equal(
            batched.predict(with_channel), batched.predict(batch_images)
        )


class TestValidationAndDeterminism:
    def test_wrong_image_shape_rejected(self, tiny_qnet, batch_images):
        batched = BatchedQuantizedForward(tiny_qnet)
        with pytest.raises(ShapeError):
            batched.forward_raw(batch_images[:, :-1, :])
        with pytest.raises(ShapeError):
            batched.forward_raw(batch_images[:, np.newaxis, :-2, :-2])

    def test_batch_of_one_matches_larger_batch(self, tiny_qnet, batch_images):
        batched = BatchedQuantizedForward(tiny_qnet)
        whole = batched.forward_raw(batch_images)
        solo = batched.forward_raw(batch_images[:1])
        for key, _ in STAGES:
            np.testing.assert_array_equal(solo[key][0], whole[key][0])

    def test_repeated_runs_are_deterministic(self, tiny_qnet, batch_images):
        batched = BatchedQuantizedForward(tiny_qnet)
        first = batched.forward_raw(batch_images)
        second = batched.forward_raw(batch_images)
        for key, _ in STAGES:
            np.testing.assert_array_equal(first[key], second[key])


#: Raw weight code planted in every layer to push its GEMM bound into a
#: wider tier, and a coupling format whose width does the same to routing.
FORCED_TIERS = {
    "float64": (2**30, QFormat(32, 6)),
    "int64": (2**47, QFormat(56, 6)),
}


class TestExactnessTiers:
    def test_shipped_formats_run_narrow_tiers(self, tiny_qnet):
        assert set(BatchedQuantizedForward(tiny_qnet).gemm_dtypes.values()) == {
            np.dtype(np.float32)
        }

    def test_resident_weights_are_read_only(self, tiny_qnet):
        engine = BatchedQuantizedForward(tiny_qnet)
        for weights in (
            engine._conv1.weights,
            engine._primary.weights,
            engine._classcaps,
        ):
            assert not weights.flags.writeable
        assert tiny_qnet.raw_weights["primary_w"].flags.writeable

    @pytest.mark.parametrize("tier", sorted(FORCED_TIERS))
    def test_forced_large_weights_select_wide_tier_and_stay_exact(
        self, tier, tiny_config, tiny_weights, batch_images
    ):
        code, coupling = FORCED_TIERS[tier]
        qnet = QuantizedCapsuleNet(
            tiny_config,
            weights=tiny_weights,
            formats=QuantizedFormats(coupling=coupling),
        )
        for name in ("conv1_w", "primary_w", "classcaps_w"):
            qnet.raw_weights[name].flat[0] = code
        engine = BatchedQuantizedForward(qnet)
        assert set(engine.gemm_dtypes.values()) == {np.dtype(tier)}
        if tier == "int64":
            # The fallback keeps views of the integer weights, no copies.
            assert np.shares_memory(
                engine._primary.weights, qnet.raw_weights["primary_w"]
            )
            assert np.shares_memory(
                engine._classcaps, qnet.raw_weights["classcaps_w"]
            )
        assert_stages_match_golden(qnet, batch_images[:3])


#: Module globals the per-layer instrumentation wraps by name.
STAGE_HOOKS = (
    "_batched_conv2d",
    "_exact_einsum",
    "requantize",
    "hw_squash",
    "hw_softmax",
    "hw_norm",
)


class TestStageHooks:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(STAGE_HOOKS, 0)

        def counting(name, func):
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

        for name in STAGE_HOOKS:
            monkeypatch.setattr(
                batched_module, name, counting(name, getattr(batched_module, name))
            )
        return counts

    def test_forward_calls_every_stage_through_the_module(
        self, calls, tiny_qnet, batch_images
    ):
        out = BatchedQuantizedForward(tiny_qnet).forward_raw(batch_images)
        iterations = tiny_qnet.config.classcaps.routing_iterations
        assert calls["_batched_conv2d"] == 2
        # ClassCaps once, the weighted sum every iteration, the agreement
        # every iteration but the last.
        assert calls["_exact_einsum"] == 1 + iterations + (iterations - 1)
        assert calls["hw_softmax"] == iterations - 1
        assert calls["hw_norm"] == 1
        assert calls["hw_squash"] == 1 + iterations
        # Conv1, PrimaryCaps and ClassCaps, then one per routing product.
        assert calls["requantize"] == 3 + iterations + (iterations - 1)
        np.testing.assert_array_equal(
            out["predictions"], tiny_qnet.predict_batch(batch_images)
        )

    def test_no_capsule_product_bypasses_exact_einsum(
        self, calls, monkeypatch, tiny_qnet, batch_images
    ):
        gemms = []
        exact_matmul = batched_module._exact_matmul

        def counted_matmul(a, b):
            gemms.append(a.shape)
            return exact_matmul(a, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("capsule products must use _exact_einsum")

        monkeypatch.setattr(batched_module, "_exact_matmul", counted_matmul)
        monkeypatch.setattr(np, "einsum", forbidden)
        BatchedQuantizedForward(tiny_qnet).forward_raw(batch_images)
        # Every GEMM is either one of the two convolutions or a capsule
        # product routed through _exact_einsum.
        assert len(gemms) == calls["_batched_conv2d"] + calls["_exact_einsum"]
