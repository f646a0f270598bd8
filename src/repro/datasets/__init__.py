"""Seeded synthetic datasets standing in for the paper's public benchmarks.

The paper's public datasets are not in the repo, so seeded synthetic
stand-ins take their place. Every dataset is a pure function of its seed:
the same (seed, split, n) always yields identical data.
"""

from repro.datasets.audio import COMMANDS, SyntheticSpeechCommands
from repro.datasets.detection import BoxAnnotation, SyntheticDetection
from repro.datasets.images import SyntheticImageClassification
from repro.datasets.segmentation import SyntheticSegmentation
from repro.datasets.text import SyntheticSentiment

__all__ = [
    "BoxAnnotation",
    "COMMANDS",
    "SyntheticDetection",
    "SyntheticImageClassification",
    "SyntheticSegmentation",
    "SyntheticSentiment",
    "SyntheticSpeechCommands",
]
