"""The harmonic/percussive signal pair that the separators return."""

from __future__ import annotations

from dataclasses import dataclass

from .audio_io import Signal


@dataclass(frozen=True)
class SignalPair:
    """Harmonic/percussive signal pair of equal length and rate."""

    harmonic: Signal
    percussive: Signal

    def __post_init__(self):
        if len(self.harmonic) != len(self.percussive):
            raise ValueError("pair members must have equal length")
        if self.harmonic.sample_rate != self.percussive.sample_rate:
            raise ValueError("pair members must share a sample rate")

