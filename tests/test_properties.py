"""Cross-cutting hypothesis property tests on core invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import conv2d, softmax
from repro.kernels.common import pad_spatial
from repro.kernels.quantized.requant import (
    fused_activation_bounds,
    requantize,
    rescale_tensor,
    wrap_to_bits,
)
from repro.pipelines import preprocess
from repro.pipelines.preprocess import _resize_weights, resize
from repro.quantize import choose_qparams
from repro.util.rng import derive_rng
from repro.zoo import get_entry, list_models, playback_data


def test_property_tests_are_derandomized():
    """Tier-1 is deterministic: every property test replays the same
    examples, with no example database carrying state between runs."""
    assert settings().derandomize and settings().database is None


class TestResizeWeightProperties:
    @given(n_in=st.integers(4, 120), n_out=st.integers(2, 40),
           method=st.sampled_from(["area", "bilinear", "nearest"]))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_stochastic(self, n_in, n_out, method):
        """Every resize row is a convex combination: weights sum to 1 and are
        non-negative — implies constant images stay constant and output range
        never exceeds input range."""
        w = _resize_weights(method, n_in, n_out)
        assert w.shape == (n_out, n_in)
        assert np.all(w >= -1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    @given(n_in=st.integers(4, 60), factor=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_area_preserves_mean(self, n_in, factor):
        """Area-averaging an image preserves its mean when the output size
        divides the input size (exact box partition)."""
        n_in = (n_in // factor) * factor
        if n_in < factor:
            n_in = factor
        rng = derive_rng(0, "resize-mean", n_in, factor)
        img = rng.uniform(size=(1, n_in, n_in, 3))
        out = resize(img, n_in // factor, n_in // factor, "area")
        np.testing.assert_allclose(out.mean(), img.mean(), atol=1e-9)


def einsum_resize(images, out_h, out_w, method):
    """The one-contraction resize the two GEMMs replaced."""
    return np.einsum(
        "oh,nhwc,pw->nopc", _resize_weights(method, images.shape[1], out_h),
        images.astype(np.float64), _resize_weights(method, images.shape[2], out_w),
        optimize=True)


def zoo_image_recipes():
    """(model, sensor frames, target size) for every distinct zoo image
    recipe shape."""
    recipes = {}
    for name in list_models():
        pipeline = get_entry(name).pipeline
        if "image_preprocess" not in pipeline:
            continue
        raw = playback_data(name, 64, "resize-gemm")[0]
        target = tuple(pipeline["image_preprocess"]["target_size"])
        recipes.setdefault((raw.shape[1:], target), (name, raw, target))
    return sorted(recipes.values(), key=lambda recipe: recipe[0])


class TestResizeGemmProperties:
    @pytest.mark.parametrize("rotation_k", [0, 1])
    @pytest.mark.parametrize("method", ["area", "bilinear", "nearest"])
    def test_zoo_shapes_byte_equal_einsum(self, method, rotation_k):
        """On every shape the zoo's recipes resize, the two GEMMs are byte
        for byte the einsum they replaced, at batch 1, 32 and 64."""
        for name, raw, (out_h, out_w) in zoo_image_recipes():
            images = preprocess.rotate90(preprocess.to_float(raw), rotation_k)
            for batch in (1, 32, 64):
                expected = einsum_resize(images[:batch], out_h, out_w, method)
                got = resize(images[:batch], out_h, out_w, method)
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                assert got.tobytes() == expected.tobytes(), (name, batch)

    @given(h=st.integers(2, 24), w=st.integers(2, 24), c=st.integers(1, 3),
           out=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           batch=st.integers(2, 40),
           method=st.sampled_from(["area", "bilinear", "nearest"]),
           dtype=st.sampled_from(["float64", "float32", "uint8"]),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_batch_one(self, h, w, c, out, batch, method, dtype,
                                  seed):
        """Row i of a batch-N resize is byte-equal to resizing image i
        alone: what lets replay preprocess a chunk of frames in one call."""
        images = derive_rng(seed, "resize-rows").uniform(
            0, 255, size=(batch, h, w, c)).astype(dtype)
        batched = resize(images, out[0], out[1], method)
        for i in range(batch):
            single = resize(images[i:i + 1], out[0], out[1], method)
            assert batched[i:i + 1].tobytes() == single.tobytes(), i

    @given(h=st.integers(2, 24), w=st.integers(2, 24), c=st.integers(1, 3),
           out=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           method=st.sampled_from(["area", "bilinear", "nearest"]),
           dtype=st.sampled_from(["float64", "float32"]),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_close_to_einsum_on_random_shapes(self, h, w, c, out, method,
                                              dtype, seed):
        """Off the zoo's shapes, einsum may contract in another order, so
        values agree to rounding (about one ulp), not always to the byte."""
        for batch in (1, 4, 32):
            images = derive_rng(seed, "resize-einsum", batch).uniform(
                size=(batch, h, w, c)).astype(dtype)
            for out_h, out_w in (out, out[::-1]):
                expected = einsum_resize(images, out_h, out_w, method)
                got = resize(images, out_h, out_w, method)
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(8, 8, 3), (1, 8, 8, 3), (32, 8, 8, 3)])
    def test_float64_input_not_copied(self, monkeypatch, shape):
        seen = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            seen.append(a)
            return matmul(a, b, **kwargs)

        images = np.ones(shape)
        monkeypatch.setattr(np, "matmul", spy)
        resize(images, 4, 4)
        assert len(seen) == 2 and np.shares_memory(seen[0], images)


PAD_FILLS = {"float32": [0.0, -np.inf, 1.5], "float64": [0.0, -np.inf, -2.25],
             "int8": [0, -128, -3, 127], "uint8": [0, 128, 255]}


class TestPadSpatialProperties:
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 6),
                           st.integers(1, 6), st.integers(1, 4)),
           pad=st.tuples(*[st.integers(0, 3)] * 4),
           fill=st.sampled_from([(dtype, value) for dtype, values
                                 in PAD_FILLS.items() for value in values]),
           seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_matches_np_pad(self, shape, pad, fill, seed):
        """One preallocated fill plus a slice is byte-identical to
        ``np.pad`` with a constant, dtype and fill rounding included."""
        dtype, value = fill
        x = derive_rng(seed, "pad-spatial").integers(
            -100, 100, size=shape).astype(dtype)
        pt, pb, pl, pr = pad
        out = pad_spatial(x, ((pt, pb), (pl, pr)), value)
        expected = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                          mode="constant", constant_values=value)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestQuantizationProperties:
    @given(lo=st.floats(-50, -0.01), hi=st.floats(0.01, 50),
           q=st.integers(-128, 127))
    @settings(max_examples=80, deadline=None)
    def test_rescale_within_one_step(self, lo, hi, q):
        """Requantizing a tensor to a different parameterization moves each
        value by at most half of each scale step."""
        src = choose_qparams(lo, hi, "int8")
        dst = choose_qparams(lo * 1.7, hi * 1.3, "int8")
        arr = np.array([q], dtype=np.int8)
        out = rescale_tensor(arr, src, dst)
        real_src = src.dequantize(arr)[0]
        real_dst = dst.dequantize(out)[0]
        tolerance = src.scale.item() / 2 + dst.scale.item() / 2 + 1e-6
        assert abs(real_src - real_dst) <= tolerance

    @given(acc=st.floats(-1e6, 1e6), mult=st.floats(1e-4, 10))
    @settings(max_examples=80, deadline=None)
    def test_requantize_always_in_dtype_range(self, acc, mult):
        params = choose_qparams(-1.0, 1.0, "int8")
        q = requantize(np.array([acc]), np.float64(mult), params)
        assert -128 <= int(q[0]) <= 127

    @given(bits=st.integers(4, 20), value=st.integers(-(2**24), 2**24))
    @settings(max_examples=80, deadline=None)
    def test_wrap_to_bits_range_and_periodicity(self, bits, value):
        wrapped = wrap_to_bits(np.array([float(value)]), bits)[0]
        half = 2 ** (bits - 1)
        assert -half <= wrapped < half
        # Periodic with period 2^bits.
        again = wrap_to_bits(np.array([float(value + 2**bits)]), bits)[0]
        assert wrapped == again

    @given(activation=st.sampled_from(["linear", "relu", "relu6"]),
           lo=st.floats(-10, -0.1), hi=st.floats(0.1, 10))
    @settings(max_examples=40, deadline=None)
    def test_fused_bounds_ordered(self, activation, lo, hi):
        params = choose_qparams(lo, hi, "int8")
        bound_lo, bound_hi = fused_activation_bounds(activation, params)
        assert -128 <= bound_lo <= bound_hi <= 127


class TestKernelProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_conv_translation_covariance(self, seed):
        """Shifting a (periodically padded) input shifts a stride-1 valid
        convolution's output — the defining symmetry of convolution."""
        rng = derive_rng(seed, "conv-shift")
        x = rng.normal(size=(1, 8, 8, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        rolled = np.roll(x, shift=1, axis=2)
        out = conv2d(x, w, padding="valid")
        out_rolled = conv2d(rolled, w, padding="valid")
        # Interior columns (unaffected by the wrap seam) must match.
        np.testing.assert_allclose(out_rolled[:, :, 1:-1], out[:, :, :-2],
                                   rtol=1e-5, atol=1e-6)

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10))
    @settings(max_examples=25, deadline=None)
    def test_softmax_invariances(self, seed, scale):
        rng = derive_rng(seed, "softmax")
        x = rng.normal(size=(4, 6))
        s = softmax(x)
        assert np.all(s > 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-6)
        np.testing.assert_allclose(softmax(x + 7.0), s, rtol=1e-5, atol=1e-7)
        # Order-preserving along the axis.
        assert np.array_equal(np.argsort(x, axis=-1), np.argsort(s, axis=-1))


class TestArchSignatureProperties:
    @given(st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_signature_injective_on_width(self, width):
        from repro.zoo.arch import arch_signature, conv, dense, gap, softmax as sm
        arch_a = [conv("stem", width), gap(), dense("logits", 4), sm()]
        arch_b = [conv("stem", width + 1), gap(), dense("logits", 4), sm()]
        assert arch_signature(arch_a) != arch_signature(arch_b)


LOG_DTYPES = ["float16", "float32", "float64", "int8", "uint8", "int32",
              "int64", "bool", "<U5"]


def _log_tensor(rng, dtype, shape, layout):
    """A tensor of ``dtype``/``shape`` laid out C-order, Fortran-order, or as
    a non-contiguous view (every other element of a wider last axis)."""
    if layout == "strided" and shape:
        wide = _log_tensor(rng, dtype, shape[:-1] + (2 * shape[-1],), "c")
        return wide[..., ::2]
    values = rng.integers(-100, 100, size=shape)
    if dtype == "bool":
        array = values > 0
    elif dtype == "<U5":
        array = np.abs(values).astype(dtype)
    elif dtype.startswith("float"):
        array = (values + rng.normal(size=shape)).astype(dtype)
    else:
        array = np.asarray(values % 100 if dtype == "uint8" else values,
                           dtype=dtype)
    return np.asfortranarray(array) if layout == "fortran" else array


class TestMonitorLogRoundTripProperty:
    @given(n_frames=st.integers(1, 4),
           specs=st.lists(st.tuples(st.sampled_from(LOG_DTYPES),
                                    st.lists(st.integers(0, 4), max_size=3),
                                    st.sampled_from(["c", "fortran",
                                                     "strided"])),
                          min_size=1, max_size=4),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    @example(n_frames=2, seed=0,
             specs=[(dtype, [2, 3], "fortran") for dtype in LOG_DTYPES]
             + [("float64", [], "c"), ("int8", [0, 3], "c"),
                ("<U5", [3, 2], "strided"), ("float16", [4], "strided")])
    def test_save_load_identity(self, tmp_path_factory, n_frames, specs,
                                seed):
        """Every dtype, shape (0-d and zero-size included) and memory
        layout comes back with identical dtype, shape and bytes."""
        from repro.instrument import EXrayLog, EdgeMLMonitor, save_log
        rng = derive_rng(seed, "logprop")
        monitor = EdgeMLMonitor("p")
        for _ in range(n_frames):
            with monitor.frame() as frame:
                for i, (dtype, shape, layout) in enumerate(specs):
                    frame.tensors[f"t{i}"] = _log_tensor(
                        rng, dtype, tuple(shape), layout)
                frame.scalars["s"] = float(rng.normal())
        root = tmp_path_factory.mktemp("log")
        save_log(monitor, root)
        loaded = EXrayLog.load(root)
        assert len(loaded) == n_frames
        for orig, restored in zip(monitor.frames, loaded.frames):
            assert sorted(restored.tensors) == sorted(orig.tensors)
            for key, array in orig.tensors.items():
                got = restored.tensors[key]
                assert got.dtype == array.dtype
                assert got.shape == array.shape
                assert got.tobytes() == array.tobytes()
            assert orig.scalars["s"] == restored.scalars["s"]
