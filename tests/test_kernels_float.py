"""Float kernel correctness: vectorized kernels vs naive definitions."""

import numpy as np
import pytest

from repro import kernels as K
from repro.kernels.common import extract_patches, resolve_padding
from repro.util.errors import KernelError


def naive_conv2d(x, w, stride, pad):
    """Obviously-correct quadruple-loop convolution for cross-checking."""
    n, h, wid, cin = x.shape
    kh, kw, _, cout = w.shape
    (pt, pb), (pl, pr) = pad
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    oh = (xp.shape[1] - kh) // stride + 1
    ow = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout))
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                window = xp[b, i * stride:i * stride + kh,
                            j * stride:j * stride + kw, :]
                for c in range(cout):
                    out[b, i, j, c] = (window * w[:, :, :, c]).sum()
    return out


def naive_depthwise(x, w, stride, pad):
    """Depthwise conv as one naive single-channel conv per (channel, multiplier)."""
    c, mult = w.shape[2:]
    return np.concatenate(
        [naive_conv2d(x[..., ch:ch + 1], w[:, :, ch:ch + 1, m:m + 1], stride, pad)
         for ch in range(c) for m in range(mult)], axis=-1)


def naive_pool(x, k, stride, pad, reduce):
    """Pool over the in-bounds part of each window (padding never counts)."""
    (pt, pb), (pl, pr) = pad
    n, h, w, c = x.shape
    oh = (h + pt + pb - k) // stride + 1
    ow = (w + pl + pr - k) // stride + 1
    out = np.zeros((n, oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            r0, c0 = i * stride - pt, j * stride - pl
            window = x[:, max(r0, 0):r0 + k, max(c0, 0):c0 + k, :]
            out[:, i, j, :] = reduce(window, axis=(1, 2))
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"),
                                                (1, "same"), (2, "same")])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        got = K.conv2d(x, w, stride=stride, padding=padding)
        from repro.kernels.common import resolve_padding
        pad = resolve_padding(padding, 6, 6, 3, 3, stride, stride)
        want = naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                            stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_bias_added_per_channel(self, rng):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        w = np.zeros((1, 1, 2, 3), np.float32)
        bias = np.array([1.0, -2.0, 0.5], np.float32)
        out = K.conv2d(x, w, bias)
        for c, b in enumerate(bias):
            np.testing.assert_allclose(out[..., c], b)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_gemm_matches_im2col(self, rng, stride):
        # The 1x1 fast path multiplies the strided pixels directly; it must
        # stay bit-identical to the im2col GEMM it replaces.
        x = rng.normal(size=(6, 9, 9, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 4, 6)).astype(np.float32)
        b = rng.normal(size=(6,)).astype(np.float32)
        pad = resolve_padding("same", 9, 9, 1, 1, stride, stride)
        patches = extract_patches(x, 1, 1, stride, stride, pad)
        want = (patches.reshape(-1, 4) @ w.reshape(4, 6)).reshape(
            patches.shape[:3] + (6,)) + b
        got = K.conv2d(x, w, b, stride=stride, padding="same")
        np.testing.assert_array_equal(got, want)

    def test_1x1_conv_is_channel_matmul(self, rng):
        x = rng.normal(size=(2, 3, 3, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 4, 5)).astype(np.float32)
        got = K.conv2d(x, w, padding="valid")
        want = x @ w[0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_rejects_channel_mismatch(self, rng):
        with pytest.raises(KernelError):
            K.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 4)))

    def test_rejects_bad_weight_rank(self):
        with pytest.raises(KernelError):
            K.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 3)))

    def test_linearity(self, rng):
        x1 = rng.normal(size=(1, 5, 5, 2))
        x2 = rng.normal(size=(1, 5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        lhs = K.conv2d(x1 + 2 * x2, w)
        rhs = K.conv2d(x1, w) + 2 * K.conv2d(x2, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-8)


class TestDepthwiseConv2d:
    @pytest.mark.parametrize("k,stride,padding,mult", [
        (3, 1, "same", 1), (3, 2, "same", 1), (3, 1, "valid", 2),
        (5, 1, "same", 3),
    ])
    def test_matches_naive(self, rng, k, stride, padding, mult):
        x = rng.normal(size=(2, 9, 9, 4)).astype(np.float32)
        w = rng.normal(size=(k, k, 4, mult)).astype(np.float32)
        b = rng.normal(size=(4 * mult,)).astype(np.float32)
        got = K.depthwise_conv2d(x, w, b, stride=stride, padding=padding)
        pad = resolve_padding(padding, 9, 9, k, k, stride, stride)
        want = naive_depthwise(x.astype(np.float64), w.astype(np.float64),
                               stride, pad) + b
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_matches_per_channel_conv(self, rng):
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 1)).astype(np.float32)
        got = K.depthwise_conv2d(x, w, padding="same")
        for c in range(3):
            single = K.conv2d(x[..., c:c + 1], w[:, :, c:c + 1, :],
                              padding="same")
            np.testing.assert_allclose(got[..., c], single[..., 0], rtol=1e-5,
                                       atol=1e-6)

    def test_channel_multiplier(self, rng):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        w = rng.normal(size=(3, 3, 2, 3)).astype(np.float32)
        out = K.depthwise_conv2d(x, w)
        assert out.shape == (1, 4, 4, 6)

    def test_stride_two_shape(self, rng):
        out = K.depthwise_conv2d(rng.normal(size=(1, 8, 8, 4)),
                                 rng.normal(size=(3, 3, 4, 1)), stride=2)
        assert out.shape == (1, 4, 4, 4)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(KernelError):
            K.depthwise_conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 1)))


class TestDense:
    def test_matches_matmul(self, rng):
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(7, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(K.dense(x, w, b), x @ w + b)

    def test_leading_dims_preserved(self, rng):
        out = K.dense(rng.normal(size=(2, 3, 7)), rng.normal(size=(7, 4)))
        assert out.shape == (2, 3, 4)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(KernelError):
            K.dense(np.zeros((2, 5)), np.zeros((4, 3)))


class TestPooling:
    def test_avg_pool_mean(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = K.avg_pool2d(x, 2)
        np.testing.assert_allclose(out[0, :, :, 0],
                                   [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_same_padding_excludes_pad(self):
        x = np.ones((1, 3, 3, 1))
        out = K.avg_pool2d(x, 2, stride=1, padding="same")
        # Every mean of ones must be exactly 1 (count excludes padding).
        np.testing.assert_allclose(out, 1.0)

    def test_max_pool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = K.max_pool2d(x, 2)
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_max_pool_padding_never_wins(self):
        x = -np.ones((1, 2, 2, 1))
        out = K.max_pool2d(x, 3, stride=1, padding="same")
        assert out.max() == -1.0

    @pytest.mark.parametrize("pool,stride,padding", [
        (2, None, "valid"), (3, 2, "same"), (2, 1, "valid"),
    ])
    def test_pools_match_naive(self, rng, pool, stride, padding):
        x = rng.normal(size=(3, 9, 9, 3)).astype(np.float32)
        s = stride if stride is not None else pool
        pad = resolve_padding(padding, 9, 9, pool, pool, s, s)
        np.testing.assert_array_equal(
            K.max_pool2d(x, pool, stride, padding),
            naive_pool(x, pool, s, pad, np.max).astype(np.float32))
        np.testing.assert_allclose(
            K.avg_pool2d(x, pool, stride, padding),
            naive_pool(x.astype(np.float64), pool, s, pad, np.mean),
            rtol=1e-6, atol=1e-6)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 5, 5, 3))
        np.testing.assert_allclose(K.global_avg_pool(x), x.mean(axis=(1, 2)))
        assert K.global_avg_pool(x, keepdims=True).shape == (2, 1, 1, 3)

    def test_global_avg_pool_rejects_2d(self):
        with pytest.raises(KernelError):
            K.global_avg_pool(np.zeros((2, 3)))


class TestActivations:
    def test_relu6_clamps(self):
        x = np.array([-1.0, 3.0, 9.0])
        np.testing.assert_allclose(K.relu6(x), [0, 3, 6])

    def test_hard_swish_matches_definition(self, rng):
        x = rng.normal(size=100) * 4
        np.testing.assert_allclose(K.hard_swish(x),
                                   x * np.clip(x + 3, 0, 6) / 6, rtol=1e-6)

    def test_sigmoid_stable_at_extremes(self):
        out = K.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        s = K.softmax(rng.normal(size=(4, 7)) * 50)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-6)
        assert np.all(s >= 0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(K.softmax(x), K.softmax(x + 100),
                                   rtol=1e-5, atol=1e-7)

    def test_gelu_midpoint(self):
        assert K.gelu(np.array([0.0]))[0] == 0.0

    def test_registry_complete(self):
        for name in ("relu", "relu6", "hard_swish", "hard_sigmoid", "sigmoid",
                     "tanh", "gelu", "linear"):
            assert name in K.ACTIVATIONS


class TestElementwise:
    def test_pad2d(self, rng):
        x = rng.normal(size=(1, 2, 2, 1))
        out = K.pad2d(x, ((1, 0), (0, 2)), value=9.0)
        assert out.shape == (1, 3, 4, 1)
        assert out[0, 0, 0, 0] == 9.0
        assert out[0, 0, 3, 0] == 9.0

    def test_pad2d_rejects_2d(self):
        with pytest.raises(KernelError):
            K.pad2d(np.zeros((2, 2)), ((1, 1), (1, 1)))

    def test_concat_axis(self, rng):
        a, b = rng.normal(size=(1, 2, 2, 3)), rng.normal(size=(1, 2, 2, 2))
        assert K.concat([a, b], axis=-1).shape == (1, 2, 2, 5)

    def test_concat_empty_rejected(self):
        with pytest.raises(KernelError):
            K.concat([])

    def test_flatten(self, rng):
        assert K.flatten(rng.normal(size=(3, 2, 2, 2))).shape == (3, 8)

    def test_resize_nearest_upsample(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 2, 2, 1)
        out = K.resize_nearest(x, 4, 4)
        assert out.shape == (1, 4, 4, 1)
        np.testing.assert_allclose(out[0, :2, :2, 0], x[0, 0, 0, 0])


class TestNorm:
    def test_batch_norm_identity_params(self, rng):
        x = rng.normal(size=(4, 3, 3, 2)).astype(np.float32)
        out = K.batch_norm(x, np.zeros(2), np.ones(2), np.ones(2), np.zeros(2),
                           eps=0.0)
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_batch_norm_standardizes(self, rng):
        x = rng.normal(3.0, 2.0, size=(1000, 2)).astype(np.float64)
        out = K.batch_norm(x, x.mean(0), x.var(0), np.ones(2), np.zeros(2),
                           eps=1e-8)
        np.testing.assert_allclose(out.mean(0), 0, atol=1e-6)
        np.testing.assert_allclose(out.std(0), 1, atol=1e-3)

    def test_batch_norm_rejects_bad_param_shape(self):
        with pytest.raises(KernelError):
            K.batch_norm(np.zeros((2, 3)), np.zeros(2), np.ones(2),
                         np.ones(2), np.zeros(2))

    def test_layer_norm_rows(self, rng):
        x = rng.normal(5, 3, size=(6, 10))
        out = K.layer_norm(x, np.ones(10), np.zeros(10))
        np.testing.assert_allclose(out.mean(-1), 0, atol=1e-5)


class TestAttention:
    def test_embedding_lookup(self, rng):
        table = rng.normal(size=(10, 4))
        ids = np.array([[1, 3], [0, 9]])
        out = K.embedding_lookup(table, ids)
        np.testing.assert_allclose(out[0, 1], table[3])

    def test_embedding_rejects_out_of_range(self, rng):
        with pytest.raises(KernelError):
            K.embedding_lookup(rng.normal(size=(5, 2)), np.array([5]))

    def test_attention_uniform_when_keys_equal(self, rng):
        q = rng.normal(size=(1, 3, 4))
        k = np.ones((1, 5, 4))
        v = rng.normal(size=(1, 5, 4))
        out = K.scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(1, keepdims=True),
                                                        out.shape), rtol=1e-5)

    def test_attention_mask_excludes(self, rng):
        q = rng.normal(size=(1, 1, 4))
        k = rng.normal(size=(1, 3, 4))
        v = np.stack([np.full((3, 2), 9.0)])
        v[0, 0] = 1.0
        mask = np.array([[[True, False, False]]])
        out = K.scaled_dot_product_attention(q, k, v, mask)
        np.testing.assert_allclose(out, 1.0)

    def test_split_merge_heads_roundtrip(self, rng):
        x = rng.normal(size=(2, 5, 8))
        np.testing.assert_allclose(K.merge_heads(K.split_heads(x, 2)), x)

    def test_split_heads_rejects_indivisible(self, rng):
        with pytest.raises(KernelError):
            K.split_heads(rng.normal(size=(1, 2, 7)), 2)
