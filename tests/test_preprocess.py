"""Preprocessing tests: resize math, channel ops, normalization, spectrogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipelines.preprocess import (
    NORMALIZATIONS,
    SPEC_NORMALIZATIONS,
    ImagePreprocessConfig,
    flip_horizontal,
    normalize,
    resize,
    rgb_to_bgr,
    rotate90,
    spectrogram,
    to_float,
)
from repro.util.errors import KernelError


class TestResize:
    def test_area_on_integer_factor_is_block_mean(self, rng):
        x = rng.uniform(size=(1, 8, 8, 1))
        got = resize(x, 4, 4, "area")
        want = x.reshape(1, 4, 2, 4, 2, 1).mean(axis=(2, 4))
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("method", ["area", "bilinear", "nearest"])
    def test_constant_image_preserved(self, method):
        x = np.full((1, 10, 10, 3), 0.5)
        out = resize(x, 4, 4, method)
        np.testing.assert_allclose(out, 0.5, rtol=1e-9)

    @pytest.mark.parametrize("method", ["area", "bilinear", "nearest"])
    def test_range_preserved(self, rng, method):
        x = rng.uniform(size=(2, 9, 9, 3))
        out = resize(x, 5, 5, method)
        assert out.min() >= x.min() - 1e-9 and out.max() <= x.max() + 1e-9

    def test_bilinear_aliases_checkerboard_area_averages(self):
        """The §2 resize-bug mechanism: area-averaging flattens a period-2
        checkerboard while naive bilinear at 2.5:1 keeps alias energy."""
        yy, xx = np.meshgrid(np.arange(80), np.arange(80), indexing="ij")
        checker = (((yy // 2) + (xx // 2)) % 2).astype(np.float64)
        img = checker[None, :, :, None]
        area = resize(img, 32, 32, "area")
        bilinear = resize(img, 32, 32, "bilinear")
        assert bilinear.std() > 2 * area.std()

    def test_3d_input_accepted(self, rng):
        out = resize(rng.uniform(size=(8, 8, 3)), 4, 4)
        assert out.shape == (4, 4, 3)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(KernelError):
            resize(rng.uniform(size=(1, 8, 8, 3)), 4, 4, "lanczos")

    def test_bad_rank_rejected(self, rng):
        with pytest.raises(KernelError):
            resize(rng.uniform(size=(8, 8)), 4, 4)


class TestChannels:
    def test_bgr_swap_is_involution(self, rng):
        x = rng.uniform(size=(2, 4, 4, 3))
        np.testing.assert_array_equal(rgb_to_bgr(rgb_to_bgr(x)), x)

    def test_bgr_swaps_r_and_b(self, rng):
        x = rng.uniform(size=(1, 2, 2, 3))
        out = rgb_to_bgr(x)
        np.testing.assert_array_equal(out[..., 0], x[..., 2])
        np.testing.assert_array_equal(out[..., 1], x[..., 1])



class TestOrientation:
    def test_four_rotations_identity(self, rng):
        x = rng.uniform(size=(2, 4, 4, 3))
        out = x
        for _ in range(4):
            out = rotate90(out)
        np.testing.assert_array_equal(out, x)

    def test_flip_is_involution(self, rng):
        x = rng.uniform(size=(2, 4, 5, 3))
        np.testing.assert_array_equal(flip_horizontal(flip_horizontal(x)), x)

    def test_rotation_moves_corner(self):
        x = np.zeros((1, 3, 3, 1))
        x[0, 0, 0, 0] = 1.0
        out = rotate90(x, 1)
        assert out[0, 0, 0, 0] == 0.0 and out.sum() == 1.0


class TestNormalization:
    def test_minus_one_one(self):
        out = normalize(np.array([0.0, 0.5, 1.0]), "[-1,1]")
        np.testing.assert_allclose(out, [-1, 0, 1])

    def test_zero_one_identity(self):
        x = np.array([0.25, 0.75])
        np.testing.assert_array_equal(normalize(x, "[0,1]"), x)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KernelError):
            normalize(np.zeros(2), "[-2,2]")

    def test_to_float_range(self):
        out = to_float(np.array([0, 255], np.uint8))
        np.testing.assert_allclose(out, [0.0, 1.0])

    @given(st.sampled_from(sorted(NORMALIZATIONS)))
    @settings(max_examples=10, deadline=None)
    def test_schemes_affine(self, scheme):
        x = np.linspace(0, 1, 11)
        out = normalize(x, scheme)
        diffs = np.diff(out)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)


class TestImagePreprocessConfig:
    def test_apply_shapes(self, rng):
        sensor = rng.integers(0, 255, (3, 80, 80, 3)).astype(np.uint8)
        cfg = ImagePreprocessConfig((32, 32))
        out = cfg.apply(sensor)
        assert out.shape == (3, 32, 32, 3) and out.dtype == np.float32
        assert -1.01 <= out.min() and out.max() <= 1.01

    def test_bgr_config_matches_manual(self, rng):
        sensor = rng.integers(0, 255, (2, 80, 80, 3)).astype(np.uint8)
        base = ImagePreprocessConfig((16, 16)).apply(sensor)
        bgr = ImagePreprocessConfig((16, 16), channel_order="bgr").apply(sensor)
        np.testing.assert_allclose(bgr, base[..., ::-1], atol=1e-6)

    def test_rotation_config(self, rng):
        sensor = rng.integers(0, 255, (1, 80, 80, 3)).astype(np.uint8)
        rot = ImagePreprocessConfig((16, 16), rotation_k=1).apply(sensor)
        base = ImagePreprocessConfig((16, 16)).apply(
            rotate90(sensor.astype(np.float64), 1).astype(np.uint8))
        np.testing.assert_allclose(rot, base, atol=1e-5)

    def test_json_roundtrip(self):
        cfg = ImagePreprocessConfig((24, 24), "bilinear", "bgr", "[0,1]", 2)
        restored = ImagePreprocessConfig.from_json(cfg.to_json())
        assert restored == cfg

    def test_unknown_channel_order_rejected(self, rng):
        sensor = rng.integers(0, 255, (1, 8, 8, 3)).astype(np.uint8)
        with pytest.raises(KernelError):
            ImagePreprocessConfig((4, 4), channel_order="gbr").apply(sensor)


class TestSpectrogram:
    def test_shape(self, rng):
        waves = rng.normal(size=(3, 4000)).astype(np.float32)
        spec = spectrogram(waves, frame_len=256, hop=125, num_bins=64)
        assert spec.shape == (3, 30, 64)

    def test_tone_peaks_at_right_bin(self):
        sr = 4000
        t = np.arange(sr) / sr
        tone = np.sin(2 * np.pi * 500 * t)[None, :]
        spec = spectrogram(tone, frame_len=256, hop=125, num_bins=64)
        peak_bin = spec.mean(axis=1).argmax()
        expected = int(500 * 256 / sr)
        assert abs(peak_bin - expected) <= 1

    def test_short_waveform_rejected(self, rng):
        # Regression: waveforms shorter than frame_len used to produce an
        # empty (N, 0, bins) feature tensor silently.
        waves = rng.normal(size=(2, 100)).astype(np.float32)
        with pytest.raises(KernelError, match="100.*256"):
            spectrogram(waves, frame_len=256, hop=125)

    def test_exact_frame_len_accepted(self, rng):
        spec = spectrogram(rng.normal(size=(1, 256)), frame_len=256, hop=125)
        assert spec.shape[1] == 1  # exactly one frame, not zero

    def test_global_db_bounded(self, rng):
        spec = spectrogram(rng.normal(size=(2, 4000)))
        out = SPEC_NORMALIZATIONS["global_db"].apply(spec)
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_per_utterance_standardizes(self, rng):
        spec = spectrogram(rng.normal(size=(2, 4000)))
        out = SPEC_NORMALIZATIONS["per_utterance"].apply(spec)
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(1, 2)), 1.0, atol=1e-3)

    def test_conventions_differ(self, rng):
        """The Figure 4(c) bug: the two training pipelines' conventions
        produce materially different features for the same audio."""
        spec = spectrogram(rng.normal(size=(2, 4000)))
        a = SPEC_NORMALIZATIONS["global_db"].apply(spec)
        b = SPEC_NORMALIZATIONS["per_utterance"].apply(spec)
        assert np.abs(a - b).mean() > 0.1
