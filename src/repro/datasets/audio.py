"""Synthetic speech-command dataset (Warden-2018 stand-in).

Each "command" class is a distinctive time-frequency trajectory (constant
tones, rising/falling chirps, warbles, pulse trains) embedded in noise. The
class signal lives in the **spectrogram**, so a mismatched spectrogram
normalization — the Figure 4(c) bug — directly corrupts it, while the
waveform itself stays plausible.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import derive_rng

COMMANDS = ("up", "down", "left", "right", "go", "stop", "yes", "no")


class SyntheticSpeechCommands:
    """One-second synthetic utterances at 4000 samples per second (Nyquist
    2 kHz is plenty for the synthetic trajectories)."""

    sample_rate = 4000

    def __init__(self, seed: int = 2022):
        self.seed = seed
        self.num_classes = len(COMMANDS)

    def sample(self, n: int, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` labelled waveforms: (float32 (n, T), int64 (n,))."""
        rng = derive_rng(self.seed, "audio-split", split)
        labels = rng.integers(0, self.num_classes, size=n).astype(np.int64)
        t = np.arange(self.sample_rate) / self.sample_rate
        waves = np.empty((n, self.sample_rate), dtype=np.float32)
        for i, label in enumerate(labels):
            waves[i] = self._render(int(label), t, rng)
        return waves, labels

    def _render(self, label: int, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        base = rng.uniform(0.9, 1.1)
        phase = rng.uniform(0, 2 * np.pi)
        if label == 0:      # "up": rising chirp 300 -> 1200 Hz
            freq = (300 + 900 * t) * base
        elif label == 1:    # "down": falling chirp 1200 -> 300 Hz
            freq = (1200 - 900 * t) * base
        elif label == 2:    # "left": low constant tone
            freq = np.full_like(t, 350.0 * base)
        elif label == 3:    # "right": high constant tone
            freq = np.full_like(t, 1400.0 * base)
        elif label == 4:    # "go": slow warble around 700 Hz
            freq = 700 * base + 250 * np.sin(2 * np.pi * 3 * t)
        elif label == 5:    # "stop": fast warble around 1000 Hz
            freq = 1000 * base + 180 * np.sin(2 * np.pi * 9 * t)
        elif label == 6:    # "yes": two-tone alternation
            freq = np.where((t * 6).astype(int) % 2 == 0, 500.0, 1100.0) * base
        else:               # "no": pulsed tone
            freq = np.full_like(t, 800.0 * base)
        wave = np.sin(2 * np.pi * np.cumsum(freq) / self.sample_rate + phase)
        wave += 0.35 * np.sin(4 * np.pi * np.cumsum(freq) / self.sample_rate)  # harmonic
        if label == 7:
            envelope = (np.sin(2 * np.pi * 5 * t) > 0).astype(np.float64)
            wave = wave * envelope
        amplitude = rng.uniform(0.3, 0.9)
        wave = amplitude * wave + rng.normal(0, 0.05, size=t.shape)
        return wave.astype(np.float32)
