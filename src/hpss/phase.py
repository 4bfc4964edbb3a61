"""Instantaneous-frequency estimation from the phase derivative of the STFT.

The solver predicts each bin's phase advance over one hop from the IF map.
"""

from __future__ import annotations

import numpy as np

from .audio_io import as_samples
from .stft import StftConfig, StftPlan

# bins below this fraction of the peak magnitude keep their own frequency
_IF_EPS = 1e-6


def estimate_if(x, config: StftConfig) -> np.ndarray:
    """Per-bin instantaneous frequencies of x in bin units, as a T x K array.

    Transforms x with the analysis and the derivative window and applies
    ``if_from_spectra``.
    """
    samples = as_samples(x)
    plan = StftPlan(config, samples.size)
    spec = plan.forward(samples)
    return if_from_spectra(np.abs(spec), spec, plan.forward(samples, config.deriv_window))


def if_from_spectra(mag: np.ndarray, spec: np.ndarray, spec_d: np.ndarray) -> np.ndarray:
    """Instantaneous frequencies from the T x K plain and derivative-window
    transforms, given ``mag = np.abs(spec)``, as a T x K array ``v``.

    v[tau, w] = w - Im[ F_d(x) / F(x) ] where F_d uses the derivative
    window (already scaled to bin units). Bins whose magnitude falls
    below ``_IF_EPS`` times the global maximum, or below the smallest normal
    float, keep v = w, and the result is clamped to [0, L/2] = [0, K - 1].
    """
    # subnormal bins stay weak too: their reciprocal overflows (and silence divides 0/0)
    strong = mag >= max(_IF_EPS * mag.max(), np.finfo(np.float64).tiny)
    q = np.divide(spec_d, spec, out=np.zeros_like(spec), where=strong)
    v = np.arange(spec.shape[1], dtype=np.float64) - q.imag
    return np.clip(v, 0.0, spec.shape[1] - 1, out=v)
