"""Median-filter HPSS: pre-estimator, solver initializer, and baseline.

Time-directional medians of the magnitude spectrogram capture horizontal
(harmonic) structure, frequency-directional medians capture vertical
(percussive) structure; a soft Wiener-type mask splits the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Signal, as_samples
from .prox import SignalPair
from .stft import Spectrogram, StftConfig, adjoint, forward


@dataclass(frozen=True)
class MedianConfig:
    """Median kernel lengths (odd) and the Wiener mask exponent."""

    harm_kernel: int = 17
    perc_kernel: int = 17
    mask_power: float = 2.0

    def __post_init__(self):
        for k in (self.harm_kernel, self.perc_kernel):
            if k < 3 or k % 2 == 0:
                raise ValueError("median kernels must be odd and >= 3")
        if not 1.0 <= self.mask_power < np.inf:  # NaN fails every comparison
            raise ValueError(f"mask_power must be finite and >= 1, got {self.mask_power}")


@lru_cache(maxsize=None)
def _median_network(kernel: int) -> tuple:
    """Merge exchange (Knuth, TAOCP 5.2.2M) pruned to the middle lane: (i, j,
    use_min, use_max) with i < j, where a flag marks an output read later."""
    t = (kernel - 1).bit_length()
    comps, p = [], 1 << (t - 1)
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            comps += [(i, i + d) for i in range(kernel - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    live, kept = {kernel // 2}, []
    for i, j in reversed(comps):
        if i in live or j in live:
            kept.append((i, j, i in live, j in live))
            live |= {i, j}
    return tuple(reversed(kept))


def _median_shrink(mag: np.ndarray, kernel: int, axis: int) -> np.ndarray:
    """Running median along one axis with shrinking windows at the edges."""
    out = np.empty_like(mag)
    half = kernel // 2
    n = mag.shape[axis]
    m = n - 2 * half  # full windows go through the network, edge windows np.median
    if m > 0:
        width, rows = (m, mag.shape[0]) if axis == 1 else (mag.shape[1], m)
        step = max(1, (1 << 14) // max(width, 1))  # 2 MB of lanes at kernel 17: in cache

        def lane(a, r0, r1, k):  # element k of the full windows in block rows r0:r1
            return a[r0:r1, k:k + m] if axis == 1 else a[r0 + k:r1 + k]

        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            x = [lane(mag, r0, r1, k) for k in range(kernel)]
            for i, j, use_min, use_max in _median_network(kernel):
                a, b = x[i], x[j]
                x[i] = np.minimum(a, b) if use_min else None
                x[j] = np.maximum(a, b) if use_max else None
            lane(out, r0, r1, half)[...] = x[half]
    a, o = (mag, out) if axis == 1 else (mag.T, out.T)
    for i in range(min(half, n)):
        o[:, i] = np.median(a[:, : i + half + 1], axis=1)
        o[:, n - 1 - i] = np.median(a[:, max(n - 1 - i - half, 0) :], axis=1)
    return out


def median_filter_hpss(spec: Spectrogram, mc: MedianConfig = MedianConfig()):
    """Return (H_mag, P_mag, mask_h) for a mixture spectrogram.

    H_mag is the time-directional median of |X|, P_mag the
    frequency-directional median; mask_h = H^p / (H^p + P^p), computed on
    magnitudes divided by max|X|, with the 0/0 case mapped to 0.5. The
    soft-masked harmonic spectrogram is mask_h * X.
    """
    mag = np.abs(spec.data)
    if mag.size == 0:
        raise ValueError("empty spectrogram")
    h_mag = _median_shrink(mag, mc.harm_kernel, axis=1)
    p_mag = _median_shrink(mag, mc.perc_kernel, axis=0)
    # no median exceeds the peak, so the scaled powers neither overflow nor
    # depend on the input's gain; silence keeps scale 1
    scale = mag.max() or 1.0
    num = (h_mag / scale) ** mc.mask_power
    den = num + (p_mag / scale) ** mc.mask_power
    mask = np.divide(num, den, out=np.full_like(num, 0.5), where=den > 0.0)
    return h_mag, p_mag, mask


def mf_separate(x, config: StftConfig, mc: MedianConfig = MedianConfig()) -> SignalPair:
    """Median-filter separation: soft-masked harmonic, exact-sum percussive."""
    samples = as_samples(x)
    rate = x.sample_rate if isinstance(x, Signal) else 1
    spec = forward(samples, config)
    _, _, mask = median_filter_hpss(spec, mc)
    x_h = adjoint(spec.with_data(mask * spec.data))
    return SignalPair(Signal(x_h, rate), Signal(samples - x_h, rate))


def compute_weight(pre_h, kappa: float = 0.001) -> np.ndarray:
    """Smoothness weight kappa / max(kappa, normalized harmonic amplitude).

    Magnitudes of the pre-estimated harmonic K x T array are normalized
    by their global maximum, so entries lie in (0, 1] and strong
    harmonic bins receive the smallest smoothing weight. An all-zero
    pre-estimate degenerates to a uniform weight of one.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    mag = np.abs(np.asarray(pre_h))
    peak = mag.max() if mag.size else 0.0
    if peak == 0.0:
        return np.ones_like(mag)
    return kappa / np.maximum(kappa, mag / peak)
