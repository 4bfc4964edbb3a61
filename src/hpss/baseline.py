"""Median-filter HPSS: pre-estimator, solver initializer, and baseline.

Time-directional medians of the frame-major (T x K) magnitude spectrogram
capture horizontal (harmonic) structure, frequency-directional medians
vertical (percussive) structure; a soft Wiener-type mask splits the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Signal, as_samples
from .prox import SignalPair
from .stft import StftConfig, StftPlan


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


def _selection_network(n: int, lanes: tuple, presorted: tuple = ()) -> tuple:
    """Merge exchange (Knuth, TAOCP 5.2.2M) on n lanes pruned to ``lanes``:
    (i, j, use_min, use_max) with i < j, where a flag marks an output read
    later. Inputs on the ``presorted`` lanes arrive in ascending order, so
    every comparator that no such 0/1 input makes swap is dropped first."""
    t = (n - 1).bit_length()
    comps, p = [], (1 << t) >> 1
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            comps += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    if presorted:  # every 0/1 input, column z holding z zeros on the presorted lanes
        free = [i for i in range(n) if i not in presorted]
        bits = (np.arange(1 << len(free)) >> np.arange(len(free))[:, None]) & 1
        x = np.zeros((n, len(presorted) + 1, bits.shape[1]), dtype=bool)
        for rank, i in enumerate(presorted):
            x[i, :rank + 1] = True
        x[free] = bits[:, None].astype(bool)
        x, swapping = x.reshape(n, -1), []
        for i, j in comps:
            if np.any(x[i] > x[j]):
                swapping.append((i, j))
                x[i], x[j] = x[i] & x[j], x[i] | x[j]
        comps = swapping
    live, kept = set(lanes), []
    for i, j in reversed(comps):
        if i in live or j in live:
            kept.append((i, j, i in live, j in live))
            live |= {i, j}
    return tuple(reversed(kept))


def _passes(net: tuple) -> int:
    """np.minimum/np.maximum calls that a network makes per output lane."""
    return sum(use_min + use_max for _, _, use_min, use_max in net)


@lru_cache(maxsize=None)
def _group_networks(kernel: int, g: int) -> tuple:
    """The networks of g neighbouring windows' medians: the core pruned to the
    g middle ranks of the kernel - g + 1 samples the windows share, then per
    window the median of those ranks (even lanes, ascending) and its g - 1
    other samples (odd lanes)."""
    half = kernel // 2
    core = _selection_network(kernel - g + 1, tuple(range(half - g + 1, half + 1)))
    select = _selection_network(2 * g - 1, (g - 1,), tuple(range(0, 2 * g - 1, 2)))
    return core, select


# pruning the select network of g windows lists (g + 1) * 2^(g - 1) 0/1
# inputs on 2g - 1 lanes: 1.4 MB at g = 13, doubling with each further g
_MAX_GROUP = 13


@lru_cache(maxsize=None)
def _group_size(kernel: int) -> int:
    """The g of fewest passes per output, searched up from 1 until it stops
    falling or reaches _MAX_GROUP."""
    best, best_g = np.inf, 1
    for g in range(1, min(kernel // 2 + 2, _MAX_GROUP + 1)):
        core, select = _group_networks.__wrapped__(kernel, g)  # cache only the g in use
        cost = (_passes(core) + g * _passes(select)) / g
        if cost >= best:
            break
        best, best_g = cost, g
    return best_g


def _run_network(net: tuple, x: list) -> None:
    """Apply a network to the list of lanes x in place."""
    for i, j, use_min, use_max in net:
        a, b = x[i], x[j]
        x[i] = np.minimum(a, b) if use_min else None
        x[j] = np.maximum(a, b) if use_max else None


def _group_medians(sample, kernel: int, g: int):
    """Yield the medians of g neighbouring windows in turn, where sample(i)
    is the i-th of the kernel + g - 1 samples that the windows span."""
    half = kernel // 2
    core, select = _group_networks(kernel, g)
    x = [sample(i) for i in range(g - 1, kernel)]  # the samples all g windows hold
    _run_network(core, x)
    for j in range(g):
        y = [None] * (2 * g - 1)
        y[::2] = x[half - g + 1:half + 1]
        y[1::2] = [sample(i) for i in (*range(j, g - 1), *range(kernel, kernel + j))]
        _run_network(select, y)
        yield y[g - 1]


@lru_cache(maxsize=None)
def _edge_network(kernel: int) -> tuple:
    """The network that sorts the kernel // 2 + 1 samples of an outermost window."""
    n = kernel // 2 + 1
    return _selection_network(n, tuple(range(n)))


def _edge_medians(sample, kernel: int, n: int):
    """Yield the medians of the min(kernel // 2, n) shrunken windows at one end
    in turn, where window i holds samples 0 .. min(i + kernel // 2, n - 1)
    counted from that end and sample(i) is the i-th of them.

    One network sorts the outermost window into the rows of one array; each
    further sample enters only the ranks that later medians read, rank r
    becoming max(x[r - 1], min(x[r], new)) for all of them in two passes. An
    even window takes (lo + hi) / 2 of its middle ranks, as np.median does.
    """
    half = kernel // 2
    x = [sample(i) for i in range(min(half + 1, n))]
    # a lane past the input would hold +inf, which no comparator moves
    _run_network([c for c in _edge_network(kernel) if c[1] < n], x)
    x = np.stack(x)
    size = len(x)
    for i in range(min(half, n)):
        if 0 < i < n - half:  # window i holds one sample more than window i - 1
            new, size = sample(half + i), size + 1
            ranks = np.minimum(x[i:half + 1], new)
            np.maximum(ranks, x[i - 1:half], out=x[i:half + 1])  # numpy buffers the overlap
        mid = size // 2
        yield x[mid] if size % 2 else (x[mid - 1] + x[mid]) / 2


def _median_shrink(mag: np.ndarray, kernel: int, axis: int) -> np.ndarray:
    """Running median along one axis with shrinking windows at the edges.

    The m full windows go through the selection networks in groups of g
    neighbours that share one core (Adams 2021), the m mod g left over one
    window at a time. The kernel // 2 edge windows at each end go through
    the edge networks.
    """
    out = np.empty_like(mag)
    half = kernel // 2
    n = mag.shape[axis]
    m = max(n - 2 * half, 0)
    g = _group_size(kernel) if m > 1 else 1
    for size, start, count in ((g, 0, m // g), (1, m - m % g, m % g)):
        if count == 0:
            continue
        width, rows = (count, mag.shape[0]) if axis == 1 else (mag.shape[1], count)
        step = max(1, (1 << 14) // max(width, 1))  # 2 MB of lanes at kernel 17: in cache

        def lane(a, r0, r1, i):  # sample i of each group's windows in block rows r0:r1
            if axis == 1:
                return a[r0:r1, start + i:start + i + size * count:size]
            return a[start + i + size * r0:start + i + size * r1:size]

        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            medians = _group_medians(lambda i: lane(mag, r0, r1, i), kernel, size)
            for j, median in enumerate(medians):
                lane(out, r0, r1, half + j)[...] = median
    a, o = (mag, out) if axis == 1 else (mag.T, out.T)
    for i, median in enumerate(_edge_medians(lambda j: a[:, j], kernel, n)):
        o[:, i] = median
    for i, median in enumerate(_edge_medians(lambda j: a[:, n - 1 - j], kernel, n)):
        o[:, n - 1 - i] = median
    return out


def median_filter_hpss(spec: np.ndarray, mc: MedianConfig = MedianConfig()) -> np.ndarray:
    """Soft harmonic mask of the T x K mixture coefficients X, a T x K array.

    H is the time-directional median of |X|, P the frequency-directional
    median; the mask is H^p / (H^p + P^p), computed on magnitudes divided by
    max|X| in the two medians' own buffers, with the 0/0 case mapped to 0.5.
    The soft-masked harmonic spectrogram is mask * X.
    """
    mag = np.abs(spec)
    if mag.size == 0:
        raise ValueError("empty spectrogram")
    num = _median_shrink(mag, mc.harm_kernel, axis=0)
    den = _median_shrink(mag, mc.perc_kernel, axis=1)
    # no median exceeds the peak, so the scaled powers neither overflow nor
    # depend on the input's gain; silence keeps scale 1
    scale = mag.max() or 1.0
    del mag  # the mask is built in the medians' own buffers below
    for a in (num, den):
        a /= scale
        a **= mc.mask_power
    den += num
    mask = np.divide(num, den, out=num, where=den > 0.0)
    mask[den == 0.0] = 0.5  # where num = den = 0
    return mask


def mf_separate(x, config: StftConfig, mc: MedianConfig = MedianConfig()) -> SignalPair:
    """Median-filter separation: soft-masked harmonic, exact-sum percussive."""
    samples = as_samples(x)
    rate = x.sample_rate if isinstance(x, Signal) else 1
    plan = StftPlan(config, samples.size)
    spec = plan.forward(samples)
    spec *= median_filter_hpss(spec, mc)
    x_h = plan.adjoint(spec)
    return SignalPair(Signal(x_h, rate), Signal(samples - x_h, rate))


def compute_weight(pre_h, kappa: float = 0.001) -> np.ndarray:
    """Smoothness weight kappa / max(kappa, normalized harmonic amplitude).

    Magnitudes of the pre-estimated harmonic T x K array are normalized
    by their global maximum, so entries lie in (0, 1] and strong
    harmonic bins receive the smallest smoothing weight. An all-zero
    pre-estimate degenerates to a uniform weight of one.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    mag = np.abs(pre_h, dtype=np.float64)  # a new array: scaled in place below
    peak = mag.max() if mag.size else 0.0
    if not np.isfinite(peak):  # a NaN or inf entry would spread to every weight
        raise ValueError(f"pre-estimate magnitudes must be finite, got a peak of {peak}")
    if peak == 0.0:
        return np.ones_like(mag)
    mag /= peak
    return np.divide(kappa, np.maximum(kappa, mag, out=mag), out=mag)
