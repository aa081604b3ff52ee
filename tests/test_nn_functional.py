"""Unit tests for the numerical kernels, including numerical-gradient checks.

Gradient checks run in float64 (the kernels are dtype-generic) so central
differences are accurate to ~1e-6.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nas.hypernet import HyperNet, HyperNetTrainer
from repro.nas.network import CellNetwork
from repro.nas.train import train_network
from repro.nn import functional as F
from repro.nn.serialize import module_buffers

from tests import kernel_oracles as O
from tests.conftest import numerical_gradient


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


class TestGeometry:
    def test_conv_out_size_stride1_same(self):
        assert F.conv_out_size(16, 3, 1, 1) == 16

    def test_conv_out_size_stride2(self):
        assert F.conv_out_size(16, 3, 2, 1) == 8

    def test_conv_out_size_no_pad(self):
        assert F.conv_out_size(16, 5, 1, 0) == 12

    def test_pad_same_odd_kernels(self):
        assert F.pad_same(1) == 0
        assert F.pad_same(3) == 1
        assert F.pad_same(5) == 2

    @given(
        size=st.integers(4, 32),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 3),
    )
    def test_out_size_positive(self, size, kernel, stride):
        pad = F.pad_same(kernel)
        assert F.conv_out_size(size, kernel, stride, pad) >= 1


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


class TestIm2col:
    def test_shape(self):
        x = rand((2, 3, 8, 8))
        cols = F.im2col(x, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_identity_kernel1(self):
        x = rand((2, 4, 6, 6))
        cols = F.im2col(x, 1, 1, 0)
        assert np.allclose(cols.reshape(2, 4, 6, 6), x)

    def test_known_window(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 0)  # (1, 4, 4)
        # First window is the top-left 2x2 block.
        assert cols[0, :, 0].tolist() == [0.0, 1.0, 4.0, 5.0]

    def test_pad_value_used(self):
        x = np.ones((1, 1, 2, 2))
        cols = F.im2col(x, 3, 1, 1, pad_value=-np.inf)
        assert np.isneginf(cols).any()

    def test_col2im_adjoint(self):
        """col2im is the exact adjoint of im2col: <im2col(x), c> == <x, col2im(c)>."""
        x = rand((2, 3, 6, 6), seed=1)
        c = rand((2, 27, 36), seed=2)
        lhs = float(np.sum(F.im2col(x, 3, 1, 1) * c))
        rhs = float(np.sum(x * F.col2im(c, x.shape, 3, 1, 1)))
        assert np.isclose(lhs, rhs, rtol=1e-10)

    @given(
        stride=st.integers(1, 2),
        kernel=st.sampled_from([1, 3]),
        size=st.integers(4, 9),
    )
    @settings(deadline=None, max_examples=20)
    def test_col2im_adjoint_property(self, stride, kernel, size):
        pad = F.pad_same(kernel)
        x = rand((1, 2, size, size), seed=3)
        cols = F.im2col(x, kernel, stride, pad)
        c = rand(cols.shape, seed=4)
        lhs = float(np.sum(cols * c))
        rhs = float(np.sum(x * F.col2im(c, x.shape, kernel, stride, pad)))
        assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_shape_stride1(self):
        x, w = rand((2, 3, 8, 8)), rand((5, 3, 3, 3))
        out, _ = F.conv2d_forward(x, w, 1, 1)
        assert out.shape == (2, 5, 8, 8)

    def test_shape_stride2(self):
        x, w = rand((2, 3, 8, 8)), rand((5, 3, 3, 3))
        out, _ = F.conv2d_forward(x, w, 2, 1)
        assert out.shape == (2, 5, 4, 4)

    def test_1x1_is_channel_mix(self):
        x = rand((1, 3, 4, 4))
        w = rand((2, 3, 1, 1))
        out, _ = F.conv2d_forward(x, w, 1, 0)
        expected = np.einsum("nchw,kc->nkhw", x, w[:, :, 0, 0])
        assert np.allclose(out, expected, rtol=1e-10)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            F.conv2d_forward(rand((1, 3, 4, 4)), rand((2, 4, 3, 3)), 1, 1)

    def test_grad_x(self):
        x, w = rand((2, 2, 5, 5), seed=5), rand((3, 2, 3, 3), seed=6)
        g = rand((2, 3, 5, 5), seed=7)

        def loss():
            out, _ = F.conv2d_forward(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.conv2d_forward(x, w, 1, 1)
        grad_x, _ = F.conv2d_backward(g, cache)
        num = numerical_gradient(loss, x)
        assert np.allclose(grad_x, num, rtol=1e-4, atol=1e-6)

    def test_grad_w(self):
        x, w = rand((2, 2, 5, 5), seed=8), rand((3, 2, 3, 3), seed=9)
        g = rand((2, 3, 3, 3), seed=10)

        def loss():
            out, _ = F.conv2d_forward(x, w, 2, 1)
            return float(np.sum(out * g))

        _, cache = F.conv2d_forward(x, w, 2, 1)
        _, grad_w = F.conv2d_backward(g, cache)
        num = numerical_gradient(loss, w)
        assert np.allclose(grad_w, num, rtol=1e-4, atol=1e-6)


class TestDepthwiseConv2d:
    def test_shape(self):
        x, w = rand((2, 4, 8, 8)), rand((4, 3, 3))
        out, _ = F.depthwise_conv2d_forward(x, w, 1, 1)
        assert out.shape == (2, 4, 8, 8)

    def test_channels_independent(self):
        """Zeroing one channel's filter must zero exactly that channel."""
        x = rand((1, 3, 6, 6))
        w = rand((3, 3, 3))
        w[1] = 0.0
        out, _ = F.depthwise_conv2d_forward(x, w, 1, 1)
        assert np.allclose(out[:, 1], 0.0)
        assert not np.allclose(out[:, 0], 0.0)

    def test_matches_grouped_dense_conv(self):
        """Depthwise == dense conv with a block-diagonal weight."""
        x = rand((1, 2, 5, 5), seed=11)
        w = rand((2, 3, 3), seed=12)
        dw, _ = F.depthwise_conv2d_forward(x, w, 1, 1)
        dense_w = np.zeros((2, 2, 3, 3))
        dense_w[0, 0] = w[0]
        dense_w[1, 1] = w[1]
        dense, _ = F.conv2d_forward(x, dense_w, 1, 1)
        assert np.allclose(dw, dense, rtol=1e-10)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            F.depthwise_conv2d_forward(rand((1, 3, 4, 4)), rand((2, 3, 3)), 1, 1)

    def test_grad_x_and_w(self):
        x, w = rand((1, 2, 5, 5), seed=13), rand((2, 3, 3), seed=14)
        g = rand((1, 2, 5, 5), seed=15)

        def loss_x():
            out, _ = F.depthwise_conv2d_forward(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.depthwise_conv2d_forward(x, w, 1, 1)
        grad_x, grad_w = F.depthwise_conv2d_backward(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss_x, x), rtol=1e-4, atol=1e-6)
        assert np.allclose(grad_w, numerical_gradient(loss_x, w), rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_maxpool_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, _ = F.maxpool2d_forward(x, 2, 2, 0)
        assert out.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_maxpool_padding_never_wins(self):
        x = -np.ones((1, 1, 4, 4))
        out, _ = F.maxpool2d_forward(x, 3, 1, 1)
        assert np.all(out == -1.0)

    def test_maxpool_grad(self):
        x = rand((2, 2, 6, 6), seed=16)
        g = rand((2, 2, 6, 6), seed=17)

        def loss():
            out, _ = F.maxpool2d_forward(x, 3, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.maxpool2d_forward(x, 3, 1, 1)
        grad_x = F.maxpool2d_backward(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)

    def test_avgpool_constant_input(self):
        x = np.full((1, 2, 4, 4), 3.0)
        out, _ = F.avgpool2d_forward(x, 2, 2, 0)
        assert np.allclose(out, 3.0)

    def test_avgpool_grad(self):
        x = rand((2, 2, 6, 6), seed=18)
        g = rand((2, 2, 3, 3), seed=19)

        def loss():
            out, _ = F.avgpool2d_forward(x, 2, 2, 0)
            return float(np.sum(out * g))

        _, cache = F.avgpool2d_forward(x, 2, 2, 0)
        grad_x = F.avgpool2d_backward(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)

    def test_global_avgpool(self):
        x = rand((3, 4, 5, 5), seed=20)
        out, cache = F.global_avgpool_forward(x)
        assert out.shape == (3, 4)
        assert np.allclose(out, x.mean(axis=(2, 3)))
        g = rand((3, 4), seed=21)
        grad = F.global_avgpool_backward(g, cache)
        assert np.allclose(grad.sum(axis=(2, 3)), g)


# ---------------------------------------------------------------------------
# Pointwise / dense / losses
# ---------------------------------------------------------------------------


class TestPointwise:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        out, mask = F.relu_forward(x)
        assert out.tolist() == [0.0, 0.0, 2.0]
        assert F.relu_backward(np.ones(3), mask).tolist() == [0.0, 0.0, 1.0]

    def test_linear_grads(self):
        x, w, b = rand((4, 3), seed=22), rand((2, 3), seed=23), rand((2,), seed=24)
        g = rand((4, 2), seed=25)

        def loss():
            out, _ = F.linear_forward(x, w, b)
            return float(np.sum(out * g))

        _, cache = F.linear_forward(x, w, b)
        gx, gw, gb = F.linear_backward(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-5, atol=1e-7)
        assert np.allclose(gw, numerical_gradient(loss, w), rtol=1e-5, atol=1e-7)
        assert np.allclose(gb, numerical_gradient(loss, b), rtol=1e-5, atol=1e-7)

    def test_batchnorm_normalises(self):
        x = rand((8, 3, 4, 4), seed=26) * 5 + 2
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.zeros(3), np.ones(3)
        out, cache = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
        assert cache is not None
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_running_stats_updated(self):
        x = rand((8, 2, 4, 4), seed=27) + 10.0
        rm, rv = np.zeros(2), np.ones(2)
        F.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, 0.5, 1e-5, True)
        assert np.all(rm > 1.0)  # moved toward the batch mean of ~10

    def test_batchnorm_eval_uses_running_stats(self):
        x = rand((4, 2, 3, 3), seed=28)
        rm, rv = np.zeros(2), np.ones(2)
        out, cache = F.batchnorm_forward(
            x, np.ones(2), np.zeros(2), rm, rv, 0.1, 1e-5, False
        )
        assert cache is None
        assert np.allclose(out, x / np.sqrt(1 + 1e-5), rtol=1e-6)

    def test_batchnorm_grad(self):
        x = rand((4, 2, 3, 3), seed=29)
        gamma, beta = rand((2,), seed=30), rand((2,), seed=31)
        g = rand((4, 2, 3, 3), seed=32)

        def loss():
            rm, rv = np.zeros(2), np.ones(2)
            out, _ = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
            return float(np.sum(out * g))

        rm, rv = np.zeros(2), np.ones(2)
        _, cache = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
        gx, ggamma, gbeta = F.batchnorm_backward(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-3, atol=1e-5)
        assert np.allclose(ggamma, numerical_gradient(loss, gamma), rtol=1e-4, atol=1e-6)
        assert np.allclose(gbeta, numerical_gradient(loss, beta), rtol=1e-4, atol=1e-6)

    @given(st.integers(1, 6))
    @settings(deadline=None)
    def test_softmax_sums_to_one(self, n):
        x = np.random.default_rng(n).normal(size=(n, 5)) * 10
        p = F.softmax(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_softmax_shift_invariance(self):
        x = rand((2, 5), seed=33)
        assert np.allclose(F.softmax(x), F.softmax(x + 100.0), rtol=1e-9)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 1, 2, 3])
        loss, grad = F.softmax_cross_entropy(logits, labels)
        assert np.isclose(loss, np.log(10.0), rtol=1e-6)
        assert grad.shape == (4, 10)

    def test_cross_entropy_grad(self):
        logits = rand((3, 5), seed=34)
        labels = np.array([1, 0, 4])

        def loss():
            l, _ = F.softmax_cross_entropy(logits, labels)
            return l

        _, grad = F.softmax_cross_entropy(logits, labels)
        assert np.allclose(grad, numerical_gradient(loss, logits), rtol=1e-4, atol=1e-7)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = F.softmax_cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6


class TestInferenceKernels:
    """Forward-only kernels must match their training counterparts."""

    def test_conv2d_infer_matches_forward(self):
        for kernel, stride, pad in [(3, 1, 1), (5, 1, 2), (3, 2, 1)]:
            x = rand((6, 4, 8, 8), seed=40)
            w = rand((5, 4, kernel, kernel), seed=41)
            out, _ = F.conv2d_forward(x, w, stride, pad)
            np.testing.assert_array_equal(F.conv2d_infer(x, w, stride, pad), out)

    def test_conv2d_infer_pointwise_matches_forward(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=42)
            w = rand((7, 4, 1, 1), seed=43)
            out, _ = F.conv2d_forward(x, w, stride, 0)
            np.testing.assert_array_equal(F.conv2d_infer(x, w, stride, 0), out)

    def test_depthwise_infer_matches_forward(self):
        for kernel, stride in [(3, 1), (5, 1), (3, 2), (5, 2)]:
            pad = (kernel - 1) // 2
            x = rand((6, 4, 8, 8), seed=44)
            w = rand((4, kernel, kernel), seed=45)
            out, _ = F.depthwise_conv2d_forward(x, w, stride, pad)
            np.testing.assert_allclose(
                F.depthwise_conv2d_infer(x, w, stride, pad), out,
                rtol=1e-5, atol=1e-6,
            )

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_depthwise_infer_rows_independent_of_stack(self, kernel, stride):
        """A row's output is == whatever else is stacked with it — the
        property pool-vs-in-process parity of batched scoring relies on."""
        pad = (kernel - 1) // 2
        x = rand((9, 5, 8, 8), seed=60).astype(np.float32)
        w = rand((5, kernel, kernel), seed=61).astype(np.float32)
        stacked = F.depthwise_conv2d_infer(x, w, stride, pad, relu=True)
        for lo, hi in [(0, 1), (4, 5), (2, 7), (8, 9)]:
            alone = F.depthwise_conv2d_infer(x[lo:hi], w, stride, pad, relu=True)
            np.testing.assert_array_equal(alone, stacked[lo:hi])

    def test_depthwise_infer_row_blocks_fuse_gather_and_relu(self):
        rng = np.random.default_rng(62)
        blocks = [
            rng.normal(size=(rows, 4, 8, 8)).astype(np.float32) for rows in (2, 3, 1)
        ]
        w = rand((4, 3, 3), seed=63).astype(np.float32)
        for stride in (1, 2):
            np.testing.assert_array_equal(
                F.depthwise_conv2d_infer(blocks, w, stride, 1, relu=True),
                F.depthwise_conv2d_infer(
                    np.maximum(np.concatenate(blocks), 0), w, stride, 1
                ),
            )

    def test_maxpool_infer_bitwise_identical(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=46)
            out, _ = F.maxpool2d_forward(x, 3, stride, 1)
            np.testing.assert_array_equal(F.maxpool2d_infer(x, 3, stride, 1), out)

    def test_avgpool_infer_matches_forward(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=47)
            out, _ = F.avgpool2d_forward(x, 3, stride, 1)
            np.testing.assert_allclose(
                F.avgpool2d_infer(x, 3, stride, 1), out, rtol=1e-6, atol=1e-7
            )


class TestSegmentedBatchNorm:
    """segments > 1 must equal separate per-segment forwards."""

    def _params(self, c):
        gamma = rand((c,), seed=50) * 0.5 + 1.0
        beta = rand((c,), seed=51) * 0.1
        return gamma, beta

    def test_matches_per_segment_scalar(self):
        x = rand((12, 3, 4, 4), seed=52)
        gamma, beta = self._params(3)
        seg_out, cache = F.batchnorm_forward(
            x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32),
            0.1, 1e-5, True, segments=4,
        )
        assert cache is None  # forward-only: no backward cache
        for s in range(4):
            part, _ = F.batchnorm_forward(
                x[s * 3 : (s + 1) * 3], gamma, beta,
                np.zeros(3, np.float32), np.ones(3, np.float32),
                0.1, 1e-5, True,
            )
            np.testing.assert_allclose(
                seg_out[s * 3 : (s + 1) * 3], part, rtol=1e-6, atol=1e-6
            )

    def test_segments_one_unchanged(self):
        x = rand((8, 3, 4, 4), seed=53)
        gamma, beta = self._params(3)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        plain, cache = F.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), 0.1, 1e-5, True)
        seg, _ = F.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), 0.1, 1e-5, True, segments=1)
        assert cache is not None
        np.testing.assert_array_equal(plain, seg)

    def test_indivisible_batch_rejected(self):
        x = rand((10, 3, 4, 4), seed=54)
        gamma, beta = self._params(3)
        with pytest.raises(ValueError):
            F.batchnorm_forward(
                x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32),
                0.1, 1e-5, True, segments=4,
            )

    def test_bn_segments_scope(self):
        from repro.nn.layers import BatchNorm2d, bn_segments

        x = rand((8, 3, 4, 4), seed=55)
        bn = BatchNorm2d(3)
        with bn_segments(2):
            grouped = bn.forward(x)
        separate = np.concatenate([bn.forward(x[:4]), bn.forward(x[4:])])
        np.testing.assert_allclose(grouped, separate, rtol=1e-6, atol=1e-6)
        with pytest.raises(ValueError):
            with bn_segments(0):
                pass

    def test_forward_infer_matches_module(self):
        from repro.nn.infer import forward_infer
        from repro.nn.layers import ReLUConvBN

        x = rand((8, 4, 8, 8), seed=56)
        op = ReLUConvBN(4, 4, kernel=3, rng=np.random.default_rng(57))
        np.testing.assert_allclose(
            forward_infer(op, x), op(x), rtol=1e-5, atol=1e-6
        )


class TestBatchnormInfer:
    """The forward-only segmented batch norm behind the batched HyperNet."""

    C = 3

    def _params(self):
        gamma = (rand((self.C,), seed=70) * 0.5 + 1.0).astype(np.float32)
        beta = (rand((self.C,), seed=71) * 0.1).astype(np.float32)
        return gamma, beta

    def _stats(self):
        return rand((self.C,), seed=72).astype(np.float32), np.ones(self.C, np.float32) * 2

    def _infer(self, x, segments, momentum=0.1, training=True, stats=None):
        gamma, beta = self._params()
        rm, rv = stats if stats is not None else self._stats()
        out = F.batchnorm_infer(
            x, gamma, beta, rm, rv, momentum, 1e-5, training, segments=segments
        )
        return out, rm, rv

    def test_matches_batchnorm_forward_per_segment(self):
        x = (rand((12, self.C, 4, 4), seed=73) * 3 + 1).astype(np.float32)
        out, _, _ = self._infer(x, segments=4)
        gamma, beta = self._params()
        for s in range(4):
            part, _ = F.batchnorm_forward(
                x[s * 3 : (s + 1) * 3], gamma, beta, *self._stats(), 0.1, 1e-5, True
            )
            np.testing.assert_allclose(out[s * 3 : (s + 1) * 3], part, rtol=1e-6, atol=1e-6)

    def test_segment_alone_equals_segment_in_stack(self, monkeypatch):
        rows, h = 3, 4  # three rows: a reordered row sum shows in the bits
        per_segment = rows * self.C * h * h
        monkeypatch.setattr(F, "_INFER_CHUNK_ELEMS", 3 * per_segment)
        segments = 7  # chunks of 3 + 3 + 1 segments
        assert segments > F._INFER_CHUNK_ELEMS // per_segment
        x = rand((segments * rows, self.C, h, h), seed=74).astype(np.float32)
        stacked, _, _ = self._infer(x, segments=segments)
        for s in range(segments):
            lo, hi = s * rows, (s + 1) * rows
            alone, _, _ = self._infer(x[lo:hi], segments=1)
            np.testing.assert_array_equal(alone, stacked[lo:hi])

    def test_running_stats_take_the_mean_over_segments(self):
        segments, rows = 5, 2
        x = (rand((segments * rows, self.C, 4, 4), seed=75) * 2 - 1).astype(np.float32)
        # momentum 1 leaves exactly one segment's own statistics behind.
        seg_means, seg_vars = [], []
        for s in range(segments):
            _, rm, rv = self._infer(x[s * rows : (s + 1) * rows], 1, momentum=1.0)
            seg_means.append(rm)
            seg_vars.append(rv)
        _, rm, rv = self._infer(x, segments, momentum=0.1)
        rm0, rv0 = self._stats()
        expect_m, expect_v = rm0.copy(), rv0.copy()
        expect_m *= 0.9
        expect_m += 0.1 * np.stack(seg_means).mean(axis=0)
        expect_v *= 0.9
        expect_v += 0.1 * np.stack(seg_vars).mean(axis=0)
        np.testing.assert_array_equal(rm, expect_m)
        np.testing.assert_array_equal(rv, expect_v)

    def test_eval_mode_uses_running_stats(self):
        x = rand((6, self.C, 4, 4), seed=76).astype(np.float32)
        gamma, beta = self._params()
        out, rm, rv = self._infer(x, segments=3, training=False)
        expect, _ = F.batchnorm_forward(x, gamma, beta, *self._stats(), 0.1, 1e-5, False)
        np.testing.assert_array_equal(out, expect)
        rm0, rv0 = self._stats()
        np.testing.assert_array_equal(rm, rm0)
        np.testing.assert_array_equal(rv, rv0)


# ---------------------------------------------------------------------------
# Bit-identity against the reference oracles (tests/kernel_oracles.py)
# ---------------------------------------------------------------------------


@st.composite
def geometries(draw):
    """``(x, kernel, stride, pad)``: N in {1, 3, 64}, C <= 32, H in 1..9,
    K in {1, 3, 5}, stride in {1, 2}, pad in 0..K//2, float32 or float64."""
    n = draw(st.sampled_from([1, 3, 64]))
    c = draw(st.integers(1, 32))
    h = draw(st.integers(1, 9))
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.integers(0, kernel // 2))
    assume(h + 2 * pad >= kernel)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).normal(size=(n, c, h, h)).astype(dtype)
    return x, kernel, stride, pad


def noise(shape, dtype, seed=1):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def assert_bitwise(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(new, ref)


ORACLE_SETTINGS = settings(deadline=None, max_examples=40)


class TestOracleParity:
    """The standard training kernels equal the textbook oracles bit for bit:
    forward outputs, grad_x and grad_w, on a hypothesis geometry grid."""

    @given(case=geometries(), pad_value=st.sampled_from([0.0, -np.inf]))
    @ORACLE_SETTINGS
    def test_im2col(self, case, pad_value):
        x, kernel, stride, pad = case
        assert_bitwise(
            F.im2col(x, kernel, stride, pad, pad_value),
            O.im2col(x, kernel, stride, pad, pad_value),
        )

    @given(case=geometries())
    @ORACLE_SETTINGS
    def test_col2im(self, case):
        x, kernel, stride, pad = case
        cols = noise(O.im2col(x, kernel, stride, pad).shape, x.dtype)
        assert_bitwise(
            F.col2im(cols, x.shape, kernel, stride, pad),
            O.col2im(cols, x.shape, kernel, stride, pad),
        )

    @given(case=geometries(), out_channels=st.integers(1, 16))
    @ORACLE_SETTINGS
    def test_conv2d(self, case, out_channels):
        x, kernel, stride, pad = case
        w = noise((out_channels, x.shape[1], kernel, kernel), x.dtype, seed=2)
        out, cache = F.conv2d_forward(x, w, stride, pad)
        ref, ref_cache = O.conv2d_forward(x, w, stride, pad)
        assert_bitwise(out, ref)
        g = noise(out.shape, x.dtype, seed=3)
        for new, old in zip(F.conv2d_backward(g, cache), O.conv2d_backward(g, ref_cache)):
            assert_bitwise(new, old)

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_conv2d_long_rows(self, kernel, stride):
        """Output rows longer than the hypothesis grid's images (33 px)."""
        x = noise((3, 4, 33, 33), np.float32)
        w = noise((5, 4, kernel, kernel), np.float32, seed=2)
        pad = kernel // 2
        out, cache = F.conv2d_forward(x, w, stride, pad)
        ref, ref_cache = O.conv2d_forward(x, w, stride, pad)
        assert_bitwise(out, ref)
        g = noise(out.shape, np.float32, seed=3)
        for new, old in zip(F.conv2d_backward(g, cache), O.conv2d_backward(g, ref_cache)):
            assert_bitwise(new, old)

    @given(case=geometries())
    @ORACLE_SETTINGS
    def test_depthwise_conv2d(self, case):
        x, kernel, stride, pad = case
        w = noise((x.shape[1], kernel, kernel), x.dtype, seed=2)
        out, cache = F.depthwise_conv2d_forward(x, w, stride, pad)
        ref, ref_cache = O.depthwise_conv2d_forward(x, w, stride, pad)
        assert_bitwise(out, ref)
        g = noise(out.shape, x.dtype, seed=3)
        for new, old in zip(
            F.depthwise_conv2d_backward(g, cache),
            O.depthwise_conv2d_backward(g, ref_cache),
        ):
            assert_bitwise(new, old)

    @given(case=geometries(), levels=st.integers(1, 4))
    @ORACLE_SETTINGS
    def test_maxpool_with_ties(self, case, levels):
        """Integer-valued inputs from a few levels make most windows tie:
        the gradient must still go to the argmax (first) cell."""
        x, kernel, stride, pad = case
        x = np.floor(x * levels / 2).astype(x.dtype)
        out, cache = F.maxpool2d_forward(x, kernel, stride, pad)
        ref, ref_cache = O.maxpool2d_forward(x, kernel, stride, pad)
        assert_bitwise(out, ref)
        g = noise(out.shape, x.dtype, seed=3)
        assert_bitwise(F.maxpool2d_backward(g, cache), O.maxpool2d_backward(g, ref_cache))

    @given(case=geometries())
    @ORACLE_SETTINGS
    def test_avgpool(self, case):
        x, kernel, stride, pad = case
        out, cache = F.avgpool2d_forward(x, kernel, stride, pad)
        ref, ref_cache = O.avgpool2d_forward(x, kernel, stride, pad)
        assert_bitwise(out, ref)
        g = noise(out.shape, x.dtype, seed=3)
        assert_bitwise(F.avgpool2d_backward(g, cache), O.avgpool2d_backward(g, ref_cache))


class TestTrainingRunsMatchOracles:
    """One epoch of each training loop leaves every parameter and BN
    buffer == to the same epoch run on the oracle kernels."""

    @staticmethod
    def _state(module):
        return [a.copy() for a in module.state_arrays() + module_buffers(module)]

    def _assert_same_as_oracles(self, monkeypatch, run):
        new = run()
        with monkeypatch.context() as patch:
            for name, oracle in O.ORACLES.items():
                patch.setattr(F, name, oracle)
            ref = run()
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert_bitwise(a, b)

    def test_hypernet_epoch(self, monkeypatch, tiny_dataset):
        def run():
            hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(9))
            HyperNetTrainer(hn, epochs=1, seed=0).fit(tiny_dataset, batch_size=32)
            return self._state(hn)

        self._assert_same_as_oracles(monkeypatch, run)

    def test_train_network_epoch(self, monkeypatch, tiny_dataset, genotype):
        def run():
            net = CellNetwork(
                genotype, num_cells=3, stem_channels=4, rng=np.random.default_rng(0)
            )
            train_network(net, tiny_dataset, epochs=1, batch_size=32, seed=0)
            return self._state(net)

        self._assert_same_as_oracles(monkeypatch, run)
