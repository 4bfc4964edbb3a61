"""Instantaneous-frequency estimation and instantaneous phase correction.

The correction matrix E, the running product of the predicted per-frame
phase steps of sinusoidal content, cancels their phase advance, so the
phase-corrected STFT of a steady tone is constant along time in each
sub-band. The steps follow from the IF map alone, so the map is the
correction; for a fixed map the corrected transform is a linear operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import as_samples
from .stft import Spectrogram, StftConfig, forward

# bins below this fraction of the peak magnitude keep their own frequency
_IF_EPS = 1e-6


@dataclass(frozen=True)
class IfMap:
    """Per-bin instantaneous frequencies in bin units, shape (K, T)."""

    v: np.ndarray
    config: StftConfig

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "v", v)
        if v.ndim != 2 or v.shape[0] != self.config.n_bins:
            raise ValueError("IfMap must be K x T with K = n_bins")
        if not np.all(np.isfinite(v)):
            raise ValueError("IfMap entries must be finite")
        if v.min() < 0.0 or v.max() > self.config.win_len / 2:
            raise ValueError("IfMap entries must lie in [0, L/2]")


def estimate_if(x, config: StftConfig) -> IfMap:
    """Estimate per-bin instantaneous frequency from the phase derivative.

    Transforms x with the analysis and the derivative window and applies
    ``if_from_spectra``.
    """
    spec = forward(x, config)
    spec_d = forward(as_samples(x), config, window=config.deriv_window)
    return if_from_spectra(spec, spec_d)


def if_from_spectra(spec: Spectrogram, spec_d: Spectrogram) -> IfMap:
    """Instantaneous frequency from the plain and derivative-window transforms.

    v[w, tau] = w - Im[ F_d(x) / F(x) ] where F_d uses the derivative
    window (already scaled to bin units). Bins whose magnitude falls
    below ``_IF_EPS`` times the global maximum, or below the smallest normal
    float, keep v = w, and the result is clamped to [0, L/2].
    """
    config = spec.config
    mag = np.abs(spec.data)
    # subnormal bins stay weak too: their reciprocal overflows (and silence divides 0/0)
    strong = mag >= max(_IF_EPS * mag.max(), np.finfo(np.float64).tiny)
    q = np.divide(spec_d.data, spec.data, out=np.zeros_like(spec.data), where=strong)
    v = np.arange(config.n_bins, dtype=np.float64)[:, None] - q.imag
    return IfMap(np.clip(v, 0.0, config.win_len / 2, out=v), config)


def build_correction(if_map: IfMap) -> np.ndarray:
    """The per-frame phase steps s = exp(-2pi j v a / L), K x T; the last
    column is unused. Steps of a valid IF map have unit modulus."""
    config = if_map.config
    return np.exp(-2j * np.pi * (config.hop / config.win_len) * if_map.v)

