"""Dataset tests: determinism, structure, and the engineered class signals."""

import numpy as np

from repro.datasets import (
    COMMANDS,
    SyntheticDetection,
    SyntheticImageClassification,
    SyntheticSegmentation,
    SyntheticSentiment,
    SyntheticSpeechCommands,
)


class TestImages:
    def test_deterministic(self):
        a = SyntheticImageClassification(seed=5).sample(8, "train")
        b = SyntheticImageClassification(seed=5).sample(8, "train")
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_splits_differ(self):
        ds = SyntheticImageClassification(seed=5)
        a, _ = ds.sample(8, "train")
        b, _ = ds.sample(8, "test")
        assert not np.array_equal(a, b)

    def test_shapes_and_dtype(self):
        imgs, labels = SyntheticImageClassification(12, seed=0).sample(5)
        assert imgs.shape == (5, 80, 80, 3) and imgs.dtype == np.uint8
        assert labels.shape == (5,) and labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 12

    def test_full_dynamic_range(self):
        imgs, _ = SyntheticImageClassification(seed=0).sample(32)
        assert imgs.min() < 30 and imgs.max() > 220

    def test_color_signal_channel_asymmetric(self):
        """Per-class mean channel intensities differ: a BGR swap destroys
        real information (the Figure 4(a) channel bug mechanism)."""
        ds = SyntheticImageClassification(seed=0)
        imgs, labels = ds.sample(300)
        means = np.stack([imgs[labels == c].mean(axis=(0, 1, 2))
                          for c in range(ds.num_classes) if (labels == c).any()])
        asym = np.abs(means[:, 0] - means[:, 2]).max()
        assert asym > 5.0  # dominant-channel signal present

    def test_orientation_signal(self):
        """Classes 0 (horizontal-ish) and 2 (vertical-ish stripes) have
        distinguishable row/column energy profiles."""
        ds = SyntheticImageClassification(seed=0)

        def directional_energy(c):
            rng_imgs = []
            imgs, labels = ds.sample(200)
            sel = imgs[labels == c].astype(np.float64).mean(axis=3)
            row_var = sel.mean(axis=2).var(axis=1).mean()
            col_var = sel.mean(axis=1).var(axis=1).mean()
            return row_var, col_var

        r0, c0 = directional_energy(0)
        r2, c2 = directional_energy(2)
        assert (r0 > c0) != (r2 > c2)  # orthogonal stripe orientations

    def test_describe_card(self):
        card = SyntheticImageClassification(seed=0).describe()
        assert card["num_classes"] == 12 and "seed" in card


class TestDetection:
    def test_annotations_within_bounds(self):
        ds = SyntheticDetection(64, seed=1)
        imgs, anns = ds.sample(10)
        assert imgs.shape == (10, 64, 64, 3)
        for per_image in anns:
            assert 1 <= len(per_image) <= 3
            for ann in per_image:
                y0, x0, y1, x1 = ann.box
                assert 0 <= y0 < y1 <= 64 and 0 <= x0 < x1 <= 64
                assert 0 <= ann.label < 4

    def test_deterministic(self):
        a = SyntheticDetection(seed=2).sample(4)
        b = SyntheticDetection(seed=2).sample(4)
        np.testing.assert_array_equal(a[0], b[0])
        assert [[x.box for x in img] for img in a[1]] == \
               [[x.box for x in img] for img in b[1]]


class TestSegmentation:
    def test_masks_align_with_images(self):
        ds = SyntheticSegmentation(48, seed=3)
        imgs, masks = ds.sample(6)
        assert imgs.shape == (6, 48, 48, 3)
        assert masks.shape == (6, 48, 48)
        assert masks.max() < ds.NUM_CLASSES
        assert (masks > 0).any()  # at least one shape per scene

    def test_shape_pixels_brighter_than_background(self):
        ds = SyntheticSegmentation(48, seed=3)
        imgs, masks = ds.sample(10)
        fg = imgs[masks > 0].mean()
        bg = imgs[masks == 0].mean()
        assert fg > bg


class TestSpeech:
    def test_shapes(self):
        waves, labels = SyntheticSpeechCommands(seed=4).sample(6)
        assert waves.shape == (6, 4000) and waves.dtype == np.float32
        assert labels.max() < len(COMMANDS)

    def test_classes_spectrally_distinct(self):
        ds = SyntheticSpeechCommands(seed=4)
        waves, labels = ds.sample(100)
        # "left" (low tone) vs "right" (high tone): spectral centroid differs.
        freqs = np.fft.rfftfreq(4000, 1 / 4000)

        def centroid(c):
            sel = waves[labels == c]
            spec = np.abs(np.fft.rfft(sel, axis=1)).mean(axis=0)
            return (spec * freqs).sum() / spec.sum()

        assert centroid(3) > centroid(2) + 300

    def test_amplitude_varies(self):
        waves, _ = SyntheticSpeechCommands(seed=4).sample(50)
        peaks = np.abs(waves).max(axis=1)
        assert peaks.std() > 0.05


class TestText:
    def test_vocab_contains_cased_variants(self):
        ds = SyntheticSentiment(seed=0)
        assert "good0" in ds.token_to_id and "Good0" in ds.token_to_id
        assert ds.token_to_id["good0"] != ds.token_to_id["Good0"]

    def test_encode_pads_and_truncates(self):
        ds = SyntheticSentiment(seed=0)
        ids = ds.encode(["good0"] * 20)
        assert ids.shape == (ds.seq_len,) == (16,)
        ids = ds.encode(["good0"])
        assert (ids[1:] == ds.token_to_id["<pad>"]).all()

    def test_lowercase_changes_ids(self):
        ds = SyntheticSentiment(seed=0)
        raw = ds.encode(["Good0", "bad1"])
        low = ds.encode(["Good0", "bad1"], lowercase=True)
        assert raw[0] != low[0]       # cased token remapped
        assert raw[1] == low[1]       # already-lower token unchanged

    def test_labels_correlate_with_sentiment_words(self):
        ds = SyntheticSentiment(seed=0)
        reviews, labels = ds.sample_tokens(200)
        pos_hits = [sum(t.lower().startswith("good") for t in r)
                    for r in reviews]
        neg_hits = [sum(t.lower().startswith("bad") for t in r)
                    for r in reviews]
        score = np.array(pos_hits) - np.array(neg_hits)
        acc = ((score > 0).astype(int) == labels).mean()
        assert acc > 0.8

