"""Synthetic object-detection dataset (COCO stand-in).

Scenes contain 1-3 colored, textured objects on a cluttered background;
annotations are (class, box) pairs in pixel coordinates. Object classes carry
the same channel-asymmetric color signal as the classification dataset, so
channel/normalization bugs depress mAP while resize bugs barely matter — the
relative ordering Figure 4(b) reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng


@dataclass(frozen=True)
class BoxAnnotation:
    """One ground-truth object: class id and [y0, x0, y1, x1] pixel box."""

    label: int
    box: tuple[float, float, float, float]


class SyntheticDetection:
    """Deterministic synthetic detection dataset.

    Parameters
    ----------
    image_size:
        Sensor resolution (square).

    A scene holds one to :attr:`max_objects` objects of
    :attr:`num_classes` categories (colors/patterns).
    """

    max_objects = 3
    num_classes = 4

    def __init__(self, image_size: int = 64, seed: int = 2022):
        self.image_size = image_size
        self.seed = seed
        self.palette = self._build_palette()

    def _build_palette(self) -> np.ndarray:
        palette = np.zeros((self.num_classes, 3))
        for c in range(self.num_classes):
            rng = derive_rng(self.seed, "det-class", c)
            palette[c, c % 3] = 0.85
            palette[c, (c + 1) % 3] = 0.15 + 0.35 * ((c // 3) % 2) + 0.1 * rng.random()
        return palette

    def sample(
        self, n: int, split: str = "train"
    ) -> tuple[np.ndarray, list[list[BoxAnnotation]]]:
        """Generate ``n`` scenes; returns (uint8 images, per-image annotations)."""
        rng = derive_rng(self.seed, "det-split", split)
        s = self.image_size
        images = np.empty((n, s, s, 3), dtype=np.uint8)
        annotations: list[list[BoxAnnotation]] = []
        for i in range(n):
            img = rng.uniform(0.05, 0.25, size=(s, s, 3))
            img += rng.normal(0, 0.03, size=img.shape)
            anns: list[BoxAnnotation] = []
            for _ in range(int(rng.integers(1, self.max_objects + 1))):
                label = int(rng.integers(0, self.num_classes))
                size = int(rng.integers(s // 5, s // 2))
                y0 = int(rng.integers(0, s - size))
                x0 = int(rng.integers(0, s - size))
                color = self.palette[label] * rng.uniform(0.85, 1.1)
                patch = img[y0:y0 + size, x0:x0 + size]
                yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
                if label % 2 == 0:  # filled square with stripes
                    mask = np.ones((size, size), dtype=bool)
                    shading = 0.85 + 0.15 * np.sin(2 * np.pi * 3 * xx / size)
                else:  # disk
                    r = size / 2.0
                    mask = (yy - r + 0.5) ** 2 + (xx - r + 0.5) ** 2 <= r**2
                    shading = 0.85 + 0.15 * np.sin(2 * np.pi * 3 * yy / size)
                patch[mask] = (color[None, None, :] * shading[:, :, None])[mask]
                anns.append(BoxAnnotation(label, (float(y0), float(x0),
                                                  float(y0 + size), float(x0 + size))))
            images[i] = (np.clip(img, 0, 1) * 255).astype(np.uint8)
            annotations.append(anns)
        return images, annotations
