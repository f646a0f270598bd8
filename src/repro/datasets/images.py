"""Synthetic image-classification dataset ("SynthImageNet").

Public datasets are unavailable offline, so we synthesize a classification
task whose class signal is carried by exactly the image properties the
paper's preprocessing bugs corrupt (§2, §4.3):

* **color signature** — class-dependent RGB mixture that is *not* symmetric
  under channel permutation, so a BGR/RGB mix-up destroys information;
* **oriented stripes** — class-dependent stripe angle in {0°, 45°, 90°, 135°}
  so a 90° rotation aliases classes into each other;
* **high-frequency texture** — class-dependent checkerboard period, so a
  naive (non-area-averaging) downsample aliases it away;
* **full dynamic range** — images span the whole [0, 255] range, so a
  [0,1]-vs-[-1,1] normalization mismatch washes out the features a model
  trained on [-1,1] expects.

Images are generated at a "sensor" resolution (default 80x80 uint8 RGB) and
downsampled by the preprocessing pipeline, exactly like camera frames feeding
a mobile model. The 2.5:1 sensor-to-model ratio is deliberate: at that ratio
a naive bilinear downsampler partially point-samples and aliases the texture
that an area-averaging downsampler integrates away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import derive_rng

DEFAULT_NUM_CLASSES = 12


@dataclass(frozen=True)
class ImageClassSpec:
    """Generative attributes of one synthetic class."""

    color: np.ndarray          # (3,) base RGB in [0, 1]
    stripe_angle: float        # radians
    stripe_freq: float         # cycles per image
    stripe_strength: float
    texture_period: int        # checkerboard period in sensor pixels
    texture_strength: float


class SyntheticImageClassification:
    """Deterministic synthetic image classification dataset.

    Parameters
    ----------
    num_classes:
        Number of categories.
    seed:
        Base seed; all splits and samples derive from it deterministically.

    Images are :attr:`image_size` pixels square.
    """

    image_size = 80

    def __init__(self, num_classes: int = DEFAULT_NUM_CLASSES,
                 seed: int = 2022):
        self.num_classes = num_classes
        self.seed = seed
        self.classes = [self._class_spec(c) for c in range(num_classes)]

    def _class_spec(self, c: int) -> ImageClassSpec:
        rng = derive_rng(self.seed, "image-class", c)
        angles = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
        # Class layout (12 classes): angle = c % 4, group = c // 4.
        # Groups 0 and 1 share the stripe frequency and differ ONLY in
        # checkerboard period (2 vs 3 px) — the distinction a non-area
        # downsampler aliases away. Group 2 has a distinct frequency.
        group = c // 4
        freq = 5.0 if group < 2 else 9.0
        period = 3 if group == 1 else 2
        # Palette: for groups 0/1 the color is a function of the stripe angle
        # only, so the texture-pair classes (c, c+4) share it and can ONLY be
        # told apart by texture; group 2 carries independent color signal so
        # channel swaps still destroy real information.
        dominant = (c % 4) % 3 if group < 2 else c % 3
        color = np.full(3, 0.32)
        color[dominant] = 0.50 + 0.06 * rng.random()
        color[(dominant + 1) % 3] += 0.08 * rng.random()
        return ImageClassSpec(
            color=color,
            stripe_angle=angles[c % 4],
            stripe_freq=freq,
            stripe_strength=0.34,
            texture_period=period,
            texture_strength=0.22,
        )

    # ------------------------------------------------------------- sampling
    def sample(self, n: int, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` labelled sensor images for a split.

        Returns ``(images, labels)`` with images uint8 of shape
        (n, image_size, image_size, 3) and labels int64 of shape (n,).
        """
        rng = derive_rng(self.seed, "image-split", split)
        labels = rng.integers(0, self.num_classes, size=n)
        images = np.empty((n, self.image_size, self.image_size, 3), dtype=np.uint8)
        for i, label in enumerate(labels):
            images[i] = self._render(int(label), rng)
        return images, labels.astype(np.int64)

    def _render(self, label: int, rng: np.random.Generator) -> np.ndarray:
        spec = self.classes[label]
        s = self.image_size
        yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
        # Oriented sinusoidal stripes with per-sample angle/phase jitter.
        angle = spec.stripe_angle + rng.normal(0.0, 0.06)
        proj = (np.cos(angle) * xx + np.sin(angle) * yy) / s
        stripes = np.sin(2 * np.pi * spec.stripe_freq * proj + rng.uniform(0, 2 * np.pi))
        # High-frequency checkerboard texture with random spatial phase.
        p = spec.texture_period
        oy, ox = int(rng.integers(0, p)), int(rng.integers(0, p))
        checker = ((((yy + oy) // p) + ((xx + ox) // p)) % 2).astype(np.float64) * 2 - 1
        # Compose luminance field.
        lum = 0.5 + spec.stripe_strength * stripes + spec.texture_strength * checker
        # Class color under per-sample photometric jitter: white-balance gains
        # per channel (weakens the color shortcut), global brightness/contrast
        # jitter (gives the model partial tolerance to normalization shifts,
        # as real augmented training does).
        wb = rng.uniform(0.62, 1.38, size=3)
        illum = rng.uniform(0.70, 1.30)
        img = lum[:, :, None] * (spec.color * wb)[None, None, :] * illum
        img = img + rng.uniform(-0.08, 0.08)
        img = img + rng.normal(0.0, 0.06, size=img.shape)
        return (np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)

    # ------------------------------------------------------------ metadata
    def describe(self) -> dict:
        """Dataset card used by reference-pipeline docs and DESIGN records."""
        return {
            "name": "SyntheticImageClassification",
            "num_classes": self.num_classes,
            "sensor_resolution": self.image_size,
            "signal": ["color", "orientation", "texture"],
            "seed": self.seed,
        }
