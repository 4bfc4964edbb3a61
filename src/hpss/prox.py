"""Analytic proximity/projection operators used by the separation solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def split_sum_arrays(x: np.ndarray, x_h: np.ndarray, x_p: np.ndarray):
    """Euclidean projection of (x_h, x_p) onto the exact-sum constraint h + p = x.

    Returns the projected pair with the percussive part recomputed as
    x - h so the constraint holds bit-exactly.
    """
    if not (x.shape == x_h.shape == x_p.shape):
        raise ValueError("length mismatch in sum projection")
    r = (x - x_h - x_p) / 2.0
    h = x_h + r
    return h, x - h


def prox_sq_fro(data: np.ndarray, rho: float) -> np.ndarray:
    """Prox of rho * (1/2)||.||_Fro^2: uniform scaling by 1/(1 + rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return np.asarray(data) / (1.0 + rho)


def prox_l21(data: np.ndarray, rho: float) -> np.ndarray:
    """Column-wise shrinkage (1 - rho/||X_tau||_2)_+ X_tau.

    Column norms are the plain complex 2-norm over all K one-sided bins;
    columns at or below the threshold are set exactly to zero.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    data = np.asarray(data)
    norms = np.linalg.norm(data, axis=0)
    scale = np.maximum(0.0, 1.0 - rho / np.where(norms > 0.0, norms, 1.0))
    return data * scale[None, :]


def l21_norm(data: np.ndarray) -> float:
    """Sum over time frames of the per-frame l2 norm over bins."""
    return float(np.sum(np.linalg.norm(np.asarray(data), axis=0)))
