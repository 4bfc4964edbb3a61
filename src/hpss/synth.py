"""Seeded synthetic test material: tonal stems, percussion, and mixtures.

The benchmark corpus mixes short melodies of stationary partials (some
with gentle vibrato or chirp) against click/noise-burst percussion, with
most bursts landing on note onsets. Everything is driven by a single
seeded generator so corpora are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Signal


@dataclass(frozen=True)
class SynthTrack:
    """A mixture plus its ground-truth stems (mixture = harmonic + percussive)."""

    mixture: Signal
    harmonic: Signal
    percussive: Signal
    name: str


def sine_tone(freq_hz: float, n: int, sample_rate: int, phase: float) -> np.ndarray:
    return np.cos(2.0 * np.pi * freq_hz * np.arange(n) / sample_rate + phase)


def melody_stem(rng, n: int, sample_rate: int):
    """Sequence of 2-3 partial notes of 0.12-0.3 s at 220-750 Hz, with 0.8 %
    vibrato and a 1 % upward chirp on a quarter of them; returns (samples,
    onset indices)."""
    harm = np.zeros(n)
    onsets = []
    pos = 0
    min_note = int(0.12 * sample_rate)
    while pos < n - 2 * min_note:
        dlen = min(int(rng.uniform(0.12, 0.3) * sample_rate), n - pos)
        f0 = rng.uniform(220.0, 750.0)
        nh = int(rng.integers(2, 4))
        ts = np.arange(dlen)
        base = f0 * (
            1.0 + 0.008 * np.sin(2.0 * np.pi * rng.uniform(4.5, 6.5) * ts / sample_rate
                                 + rng.uniform(0, 2 * np.pi))
        )
        if rng.uniform() < 0.25:
            base = base * (1.0 + 0.01 * ts / max(dlen, 1))
        seg = np.zeros(dlen)
        for k in range(1, nh + 1):
            if k * f0 < sample_rate / 2 - 300:
                seg += np.cos(
                    2.0 * np.pi * np.cumsum(k * base) / sample_rate
                    + rng.uniform(0, 2 * np.pi)
                ) / np.sqrt(k)
        attack = int(0.012 * sample_rate)
        release = int(0.025 * sample_rate)
        env = np.minimum(1.0, ts / max(attack, 1)) * np.minimum(
            1.0, (dlen - ts) / max(release, 1)
        )
        harm[pos : pos + dlen] += seg * env
        onsets.append(pos)
        pos += dlen
    return harm, onsets


def percussion_stem(rng, n: int, sample_rate: int, onsets):
    """Clicks and noise bursts (half each) with a 4 ms decay, every 50-130 ms;
    70 % of the given onsets get an extra hit at gain 3."""
    perc = np.zeros(n)

    def hit(pos: int, gain: float) -> None:
        if rng.uniform() < 0.5:
            k = int(rng.uniform(0.001, 0.004) * sample_rate)
        else:
            k = int(rng.uniform(0.008, 0.025) * sample_rate)
        k = min(k, n - pos)
        if k <= 0:
            return
        tail = np.exp(-np.arange(k) / (0.004 * sample_rate))
        perc[pos : pos + k] += gain * tail * rng.standard_normal(k)

    for onset in onsets:
        if rng.uniform() < 0.7:
            hit(int(onset), 3.0)
    pos = int(rng.uniform(0.01, 0.05) * sample_rate)
    while pos < n - 30:
        hit(pos, 1.0)
        pos += int(rng.uniform(0.05, 0.13) * sample_rate)
    return perc


def mix_at_zero_db(harm: np.ndarray, perc: np.ndarray):
    """Scale the tonal stem so both stems carry equal energy, peak-normalize.

    The common gain uses the largest peak across mixture and stems so the
    stems themselves stay inside [-1, 1] and survive WAV round trips.
    """
    he = float(np.sum(harm**2))
    pe = float(np.sum(perc**2))
    if he > 0.0 and pe > 0.0:
        harm = harm * np.sqrt(pe / he)
    x = harm + perc
    peak = max(np.max(np.abs(x)), np.max(np.abs(harm)), np.max(np.abs(perc)))
    if peak > 0.0:
        harm, perc, x = harm / peak, perc / peak, x / peak
    return x, harm, perc


def bench_track(rng, sample_rate: int = 16000, duration: float = 2.5,
                name: str = "track") -> SynthTrack:
    """One benchmark mixture: melody stem vs onset-synced percussion at 0 dB."""
    n = int(sample_rate * duration)
    harm, onsets = melody_stem(rng, n, sample_rate)
    perc = percussion_stem(rng, n, sample_rate, onsets)
    x, harm, perc = mix_at_zero_db(harm, perc)
    return SynthTrack(
        mixture=Signal(x, sample_rate),
        harmonic=Signal(harm, sample_rate),
        percussive=Signal(perc, sample_rate),
        name=name,
    )


def bench_corpus(seed: int = 0, n_tracks: int = 10, sample_rate: int = 16000,
                 duration: float = 2.5):
    """The seeded benchmark corpus: a list of SynthTrack."""
    rng = np.random.default_rng(seed)
    return [
        bench_track(rng, sample_rate, duration, name=f"track{i:02d}")
        for i in range(n_tracks)
    ]


def criterion_mixture(seed: int = 0, sample_rate: int = 44100, duration: float = 5.0,
                      win_len: int = 4096) -> SynthTrack:
    """Sinusoid on bin 41 of ``win_len`` plus an aperiodic burst train at 0 dB."""
    rng = np.random.default_rng(seed)
    n = int(sample_rate * duration)
    harm = sine_tone(41.0 * sample_rate / win_len, n, sample_rate, phase=0.4)
    perc = np.zeros(n)
    pos = 2000
    while pos < n - 50:
        k = min(400, n - pos)
        perc[pos : pos + k] += np.exp(-np.arange(k) / 80.0) * rng.standard_normal(k)
        pos += int(rng.uniform(6000, 14000))
    x, harm, perc = mix_at_zero_db(harm, perc)
    return SynthTrack(
        mixture=Signal(x, sample_rate),
        harmonic=Signal(harm, sample_rate),
        percussive=Signal(perc, sample_rate),
        name="sine-plus-bursts",
    )
