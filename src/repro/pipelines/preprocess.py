"""Sensor-data preprocessing: the error-prone stage of every edge pipeline.

Implements the exact function families §2 identifies as common bug sources,
each in its correct form plus the buggy variants the paper benchmarks:

* **resizing** — area-averaging (the training-pipeline default) vs bilinear
  resampling *without anti-aliasing* (the historical ``tf.image.resize``
  behaviour that aliases high-frequency content) vs nearest;
* **channel extraction** — RGB vs BGR ordering;
* **numerical conversion / normalization** — named schemes like [-1,1] and
  [0,1] whose silent mismatch "appears as a washed-out image";
* **orientation** — 90° rotations and flips;
* **audio spectrograms** — framed FFT magnitude in dB with two normalization
  conventions from "different training pipelines" (Figure 4(c)).

All functions are vectorized: resize builds (out, in) weight matrices once
and applies them as two GEMMs per image — no Python loops over pixels.
Every recipe here maps row i of a batch exactly as it maps that row alone,
which lets offline replay preprocess many frames in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import KernelError

# --------------------------------------------------------------------- resize

def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic (n_out, n_in) box-filter weights (fractional boxes ok)."""
    weights = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for o in range(n_out):  # n_out is small (model input size); cheap
        lo, hi = o * scale, (o + 1) * scale
        i0, i1 = int(np.floor(lo)), int(np.ceil(hi))
        for i in range(i0, min(i1, n_in)):
            overlap = min(hi, i + 1) - max(lo, i)
            if overlap > 0:
                weights[o, i] = overlap
    return weights / weights.sum(axis=1, keepdims=True)


def _bilinear_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) half-pixel-center bilinear sampling weights, NO anti-alias.

    For downscaling this samples sparse source pixels — the aliasing-prone
    behaviour the paper (and the Savsunenko post it cites) warns about.
    """
    weights = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for o in range(n_out):
        src = (o + 0.5) * scale - 0.5
        i0 = int(np.floor(src))
        frac = src - i0
        for i, w in ((i0, 1.0 - frac), (i0 + 1, frac)):
            if 0 <= i < n_in and w > 0:
                weights[o, i] += w
            elif w > 0:  # clamp at borders
                weights[o, int(np.clip(i, 0, n_in - 1))] += w
    return weights


def _nearest_weights(n_in: int, n_out: int) -> np.ndarray:
    weights = np.zeros((n_out, n_in))
    scale = n_in / n_out
    idx = np.clip(np.floor((np.arange(n_out) + 0.5) * scale), 0, n_in - 1).astype(int)
    weights[np.arange(n_out), idx] = 1.0
    return weights


_WEIGHT_BUILDERS = {
    "area": _area_weights,
    "bilinear": _bilinear_weights,
    "nearest": _nearest_weights,
}

_weights_cache: dict[tuple[str, int, int], np.ndarray] = {}


def _resize_weights(method: str, n_in: int, n_out: int) -> np.ndarray:
    key = (method, n_in, n_out)
    if key not in _weights_cache:
        try:
            _weights_cache[key] = _WEIGHT_BUILDERS[method](n_in, n_out)
        except KeyError:
            raise KernelError(f"unknown resize method {method!r}") from None
    return _weights_cache[key]


def resize(images: np.ndarray, out_h: int, out_w: int,
           method: str = "area") -> np.ndarray:
    """Resize (N, H, W, C) or (H, W, C) float images with the given method.

    Two GEMMs per image, H axis first, then W, so row i of a batch equals
    that image resized alone. A float64 input is not copied first.
    """
    squeeze = images.ndim == 3
    if squeeze:
        images = images[None]
    if images.ndim != 4:
        raise KernelError(f"resize expects (N,H,W,C) or (H,W,C), got {images.shape}")
    n, h, w, c = images.shape
    wh = _resize_weights(method, h, out_h)
    ww = _resize_weights(method, w, out_w)
    x = images.astype(np.float64, copy=False).reshape(n, h, w * c)
    rows = np.matmul(x.transpose(0, 2, 1), wh.T)            # (n, w*c, out_h)
    cols = np.matmul(rows.reshape(n, w, c * out_h).transpose(0, 2, 1), ww.T)
    out = cols.reshape(n, c, out_h, out_w).transpose(0, 2, 3, 1)
    return out[0] if squeeze else out


# ------------------------------------------------------------------- channels

def to_float(images: np.ndarray) -> np.ndarray:
    """uint8 [0, 255] -> float64 [0, 1], divided in place (one copy)."""
    x = images.astype(np.float64)
    x /= 255.0
    return x


def rgb_to_bgr(images: np.ndarray) -> np.ndarray:
    """Reverse the channel axis (the classic RGB/BGR mix-up)."""
    return images[..., ::-1]


# ---------------------------------------------------------------- orientation

def rotate90(images: np.ndarray, k: int = 1) -> np.ndarray:
    """Rotate images by k*90° in the (H, W) plane."""
    return np.rot90(images, k=k, axes=(-3, -2)).copy()


def flip_horizontal(images: np.ndarray) -> np.ndarray:
    """Mirror images along the width axis."""
    return images[..., :, ::-1, :].copy()


# -------------------------------------------------------------- normalization

@dataclass(frozen=True)
class NormalizationScheme:
    """Affine numerical conversion applied to [0,1] floats: y = x*scale + offset."""

    name: str
    scale: float
    offset: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x * self.scale + self.offset


NORMALIZATIONS: dict[str, NormalizationScheme] = {
    "[-1,1]": NormalizationScheme("[-1,1]", 2.0, -1.0),
    "[0,1]": NormalizationScheme("[0,1]", 1.0, 0.0),
    "[0,255]": NormalizationScheme("[0,255]", 255.0, 0.0),
}


def normalize(x: np.ndarray, scheme: str) -> np.ndarray:
    """Apply a named normalization scheme to [0,1] floats."""
    try:
        return NORMALIZATIONS[scheme].apply(x)
    except KeyError:
        raise KernelError(f"unknown normalization scheme {scheme!r}") from None


# -------------------------------------------------------------------- imaging

@dataclass(frozen=True)
class ImagePreprocessConfig:
    """Complete image preprocessing recipe; fields mirror §2's bug classes.

    The correct recipe for a model is recorded in its graph metadata; an
    edge app's (possibly wrong) recipe is an independent instance.
    """

    target_size: tuple[int, int]
    resize_method: str = "area"
    channel_order: str = "rgb"          # "rgb" or "bgr"
    normalization: str = "[-1,1]"
    rotation_k: int = 0                  # multiples of 90°

    def apply(self, sensor_images: np.ndarray) -> np.ndarray:
        """uint8 sensor frames (N,H,W,3) -> float32 model input tensor."""
        x = to_float(sensor_images)
        if self.rotation_k % 4:
            x = rotate90(x, self.rotation_k)
        x = resize(x, self.target_size[0], self.target_size[1], self.resize_method)
        if self.channel_order == "bgr":
            x = rgb_to_bgr(x)
        elif self.channel_order != "rgb":
            raise KernelError(f"unknown channel order {self.channel_order!r}")
        return normalize(x, self.normalization).astype(np.float32)

    def to_json(self) -> dict:
        return {
            "target_size": list(self.target_size),
            "resize_method": self.resize_method,
            "channel_order": self.channel_order,
            "normalization": self.normalization,
            "rotation_k": self.rotation_k,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ImagePreprocessConfig":
        return cls(
            target_size=tuple(data["target_size"]),
            resize_method=data["resize_method"],
            channel_order=data["channel_order"],
            normalization=data["normalization"],
            rotation_k=data.get("rotation_k", 0),
        )


# ----------------------------------------------------------------------- audio

def spectrogram(waves: np.ndarray, frame_len: int = 256, hop: int = 125,
                num_bins: int = 64) -> np.ndarray:
    """Framed FFT magnitude in dB: (N, T) -> (N, frames, num_bins).

    This is the out-of-graph feature generation the paper calls out for
    audio pipelines ("one preprocessing function for audio waveform is to
    transform it into a spectrogram using FFT").
    """
    if waves.ndim == 1:
        waves = waves[None]
    n, t = waves.shape
    if t < frame_len:
        raise KernelError(
            f"waveform length {t} is shorter than frame_len {frame_len}; "
            "no spectrogram frame can be formed (pad the waveform or "
            "shorten the frame)"
        )
    frames = 1 + (t - frame_len) // hop
    idx = (np.arange(frames)[:, None] * hop + np.arange(frame_len)[None, :])
    segments = waves[:, idx] * np.hanning(frame_len)[None, None, :]
    mags = np.abs(np.fft.rfft(segments, axis=-1))[:, :, :num_bins]
    return 20.0 * np.log10(mags + 1e-6)


@dataclass(frozen=True)
class SpectrogramNormalization:
    """A spectrogram normalization convention (one per training pipeline)."""

    name: str

    def apply(self, spec_db: np.ndarray) -> np.ndarray:
        if self.name == "global_db":
            # Fixed dB window [-80, 0] mapped to [-1, 1].
            return np.clip((spec_db + 80.0) / 40.0 - 1.0, -1.0, 1.0)
        if self.name == "per_utterance":
            mean = spec_db.mean(axis=(-2, -1), keepdims=True)
            std = spec_db.std(axis=(-2, -1), keepdims=True) + 1e-6
            return (spec_db - mean) / std
        raise KernelError(f"unknown spectrogram normalization {self.name!r}")


SPEC_NORMALIZATIONS = {
    "global_db": SpectrogramNormalization("global_db"),
    "per_utterance": SpectrogramNormalization("per_utterance"),
}
