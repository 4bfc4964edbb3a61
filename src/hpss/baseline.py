"""Median-filter HPSS: pre-estimator, solver initializer, and baseline.

Time-directional medians of the frame-major (T x K) magnitude spectrogram
capture horizontal (harmonic) structure, frequency-directional medians
vertical (percussive) structure; a soft Wiener-type mask splits the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Signal, _check_integers, as_samples
from .prox import SignalPair
from .stft import StftConfig, StftPlan


@dataclass(frozen=True)
class MedianConfig:
    """Median kernel lengths (odd)."""

    harm_kernel: int = 17
    perc_kernel: int = 17

    def __post_init__(self):
        _check_integers(self, "harm_kernel", "perc_kernel")
        for k in (self.harm_kernel, self.perc_kernel):
            if k < 3 or k % 2 == 0:
                raise ValueError("median kernels must be odd and >= 3")


def _merge_exchange(n: int):
    """Merge exchange (Knuth, TAOCP 5.2.2M) on n lanes, one round at a time:
    (i, d) compares lanes i and i + d for every entry of the index array i,
    and no lane appears twice in a round."""
    t = (n - 1).bit_length()
    p = (1 << t) >> 1
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            i = np.arange(n - d)
            yield i[i & p == r], d
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1


def _pruned_rounds(n: int, lanes) -> list:
    """Merge exchange on n lanes pruned to ``lanes``, round by round: (i, d,
    use_min, use_max) for the comparators kept, where a flag marks an output
    read later. A round's comparators touch disjoint lanes, so pruning from
    the last round back settles a whole round at once on boolean lanes."""
    live = np.zeros(n, dtype=bool)
    live[list(lanes)] = True
    rounds = []
    for i, d in reversed(list(_merge_exchange(n))):
        use_min, use_max = live[i], live[i + d]
        kept = use_min | use_max  # a kept comparator reads both its lanes
        rounds.append((i[kept], d, use_min[kept], use_max[kept]))
        live[i] = kept
        live[i + d] = kept
    return rounds[::-1]


def _network(n: int, lanes) -> tuple:
    """The pruned rounds flattened: (i, j, use_min, use_max) with i < j."""
    return tuple((i, i + d, use_min, use_max) for lo, d, mins, maxs in _pruned_rounds(n, lanes)
                 for i, use_min, use_max in zip(lo.tolist(), mins.tolist(), maxs.tolist()))


def _pruned_passes(n: int, lanes) -> int:
    """np.minimum/np.maximum calls per output lane of _network(n, lanes),
    counted without building it."""
    return sum(int(np.count_nonzero(mins)) + int(np.count_nonzero(maxs))
               for _, _, mins, maxs in _pruned_rounds(n, lanes))


@lru_cache(maxsize=None)
def _sort_network(n: int) -> tuple:
    """The network that sorts n lanes."""
    return _network(n, range(n))


@lru_cache(maxsize=None)
def _core_network(kernel: int, g: int) -> tuple:
    """The network that sorts the kernel - g + 1 samples that g neighbouring
    windows share down to their g middle ranks."""
    return _network(kernel - g + 1, _core_lanes(kernel, g))


def _core_lanes(kernel: int, g: int) -> tuple:
    """The g middle ranks of the kernel - g + 1 samples that g windows share."""
    half = kernel // 2
    return tuple(range(half - g + 1, half + 1))


@lru_cache(maxsize=None)
def _group_size(kernel: int) -> int:
    """The g of fewest passes per output, searched up from 1 until it stops
    falling: one core per group, then per window a sort of its g - 1 other
    samples and a merge of 2(g - 1) passes."""
    best, best_g = np.inf, 1
    for g in range(1, kernel // 2 + 2):
        core = _pruned_passes(kernel - g + 1, _core_lanes(kernel, g))
        cost = (core + g * (_pruned_passes(g - 1, range(g - 1)) + 2 * (g - 1))) / g
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
    is the i-th of the kernel + g - 1 samples that the windows span.

    Each median is rank g - 1 of the core's g middle ranks a and the window's
    g - 1 other samples b, both ascending: the least of a[g - 1] and
    max(a[i - 1], b[g - 1 - i]) for i in 1 .. g - 1.
    """
    half = kernel // 2
    x = [sample(i) for i in range(g - 1, kernel)]  # the samples all g windows hold
    _run_network(_core_network(kernel, g), x)
    a = x[half - g + 1:half + 1]
    for j in range(g):
        b = [sample(i) for i in (*range(j, g - 1), *range(kernel, kernel + j))]
        _run_network(_sort_network(g - 1), b)
        median = a[g - 1]
        for i in range(1, g):
            median = np.minimum(median, np.maximum(a[i - 1], b[g - 1 - i]))
        yield median


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
    _run_network(_sort_network(len(x)), x)
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

    The m full windows go in groups of g neighbours that share one core
    (Adams 2021), the m mod g left over one window at a time. The
    kernel // 2 edge windows at each end start from one sort network.
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


def _magnitude_peak(mag: np.ndarray, what: str):
    """The largest entry of a non-empty real magnitude array. A NaN or inf
    entry would spread to every output through the peak, and a negative one
    is no magnitude: either raises ``ValueError``."""
    peak, low = mag.max(), mag.min()
    if not (np.isfinite(peak) and low >= 0.0):  # NaN fails both
        raise ValueError(f"{what} must be finite and non-negative, got entries in "
                         f"[{low}, {peak}]")
    return peak


def median_filter_hpss(mag: np.ndarray, mc: MedianConfig = MedianConfig()) -> np.ndarray:
    """Soft harmonic mask of the T x K mixture magnitudes |X|, a real T x K array.

    H is the time-directional median of |X|, P the frequency-directional
    median; the mask is H^2 / (H^2 + P^2), computed on magnitudes divided by
    max|X| in the two medians' own buffers, with the 0/0 case mapped to 0.5.
    The soft-masked harmonic spectrogram is mask * X.
    """
    mag = np.asarray(mag)
    if np.iscomplexobj(mag):
        raise ValueError("median_filter_hpss takes the magnitudes |X|, not complex coefficients")
    if mag.size == 0:
        raise ValueError("empty spectrogram")
    # no median exceeds the peak, so the scaled squares neither overflow nor
    # depend on the input's gain; silence keeps scale 1
    scale = _magnitude_peak(mag, "magnitudes |X|") or 1.0
    num = _median_shrink(mag, mc.harm_kernel, axis=0)
    den = _median_shrink(mag, mc.perc_kernel, axis=1)
    for a in (num, den):
        a /= scale
        np.square(a, out=a)
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
    spec *= median_filter_hpss(np.abs(spec), mc)
    x_h = plan.adjoint(spec)
    return SignalPair(Signal(x_h, rate), Signal(samples - x_h, rate))


def compute_weight(mag: np.ndarray, kappa: float = 0.001) -> np.ndarray:
    """Smoothness weight kappa / max(kappa, normalized harmonic amplitude).

    The pre-estimated harmonic magnitudes, a real T x K array, are
    normalized by their global maximum, so entries lie in (0, 1] and strong
    harmonic bins receive the smallest smoothing weight. An all-zero
    pre-estimate degenerates to a uniform weight of one.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    mag = np.asarray(mag)
    if np.iscomplexobj(mag):
        raise ValueError("compute_weight takes harmonic magnitudes, not complex coefficients")
    peak = _magnitude_peak(mag, "pre-estimate magnitudes") if mag.size else 0.0
    mag = np.divide(mag, peak or 1.0, dtype=np.float64)  # silence: kappa / kappa = 1
    return np.divide(kappa, np.maximum(kappa, mag, out=mag), out=mag)
