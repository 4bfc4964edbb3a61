"""Instantaneous-frequency estimation from the phase derivative of the STFT.

The solver predicts each bin's phase advance over one hop from the IF map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import as_samples
from .stft import StftConfig, StftPlan

# bins below this fraction of the peak magnitude keep their own frequency
_IF_EPS = 1e-6


@dataclass(frozen=True)
class IfMap:
    """Per-bin instantaneous frequencies in bin units, shape (T, K)."""

    v: np.ndarray
    config: StftConfig

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "v", v)
        if v.ndim != 2 or v.shape[1] != self.config.n_bins:
            raise ValueError("IfMap must be T x K with K = n_bins")
        if not np.all(np.isfinite(v)):
            raise ValueError("IfMap entries must be finite")
        if v.min() < 0.0 or v.max() > self.config.win_len / 2:
            raise ValueError("IfMap entries must lie in [0, L/2]")


def estimate_if(x, config: StftConfig) -> IfMap:
    """Estimate per-bin instantaneous frequency from the phase derivative.

    Transforms x with the analysis and the derivative window and applies
    ``if_from_spectra``.
    """
    samples = as_samples(x)
    plan = StftPlan(config, samples.size)
    v = if_from_spectra(plan.forward(samples), plan.forward(samples, config.deriv_window))
    return IfMap(v, config)


def if_from_spectra(spec: np.ndarray, spec_d: np.ndarray) -> np.ndarray:
    """Instantaneous frequencies from the T x K plain and derivative-window
    transforms, as the T x K array ``v`` of an ``IfMap``.

    v[tau, w] = w - Im[ F_d(x) / F(x) ] where F_d uses the derivative
    window (already scaled to bin units). Bins whose magnitude falls
    below ``_IF_EPS`` times the global maximum, or below the smallest normal
    float, keep v = w, and the result is clamped to [0, L/2] = [0, K - 1].
    """
    mag = np.abs(spec)
    # subnormal bins stay weak too: their reciprocal overflows (and silence divides 0/0)
    strong = mag >= max(_IF_EPS * mag.max(), np.finfo(np.float64).tiny)
    q = np.divide(spec_d, spec, out=np.zeros_like(spec), where=strong)
    v = np.arange(spec.shape[1], dtype=np.float64) - q.imag
    return np.clip(v, 0.0, spec.shape[1] - 1, out=v)
