"""Inference pipelines: preprocessing, edge apps, and reference replays."""

from repro.pipelines.detection import GRID, decode_predictions, encode_targets
from repro.pipelines.edge import EdgeApp, make_preprocess
from repro.pipelines.preprocess import (
    NORMALIZATIONS,
    SPEC_NORMALIZATIONS,
    ImagePreprocessConfig,
    NormalizationScheme,
    SpectrogramNormalization,
    flip_horizontal,
    normalize,
    resize,
    rgb_to_bgr,
    rotate90,
    spectrogram,
    to_float,
)
from repro.pipelines.reference import build_reference_app

__all__ = [
    "EdgeApp",
    "GRID",
    "ImagePreprocessConfig",
    "NORMALIZATIONS",
    "NormalizationScheme",
    "SPEC_NORMALIZATIONS",
    "SpectrogramNormalization",
    "build_reference_app",
    "decode_predictions",
    "encode_targets",
    "flip_horizontal",
    "make_preprocess",
    "normalize",
    "resize",
    "rgb_to_bgr",
    "rotate90",
    "spectrogram",
    "to_float",
]
