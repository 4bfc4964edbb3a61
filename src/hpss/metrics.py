"""BSS-Eval style SDR/SIR/SAR for scoring separations against references.

Each estimate is decomposed into target, interference and artifact parts
by least-squares projection onto delayed copies of the references
(projection filters of a configurable length, computed over the full
signals). Follows the classic sources-style evaluation.

The correlations that set up the projections come from one streamed pass
over short blocks: every block is transformed at a power-of-two length m
(16 samples per tap, at least 1024) that holds it and its
``filter_len - 1`` neighbours on each side, the products are summed over
the blocks, and one batched inverse transform reads off every lag, none of
which wraps. The Gram matrix G of the delayed copies is then exact, so the
energies of the target, interference and artifact parts are quadratic
forms of G, with no convolution. Two of them are differences of large
terms (the estimate's energy less twice its projection's correlation with
it, plus the projection's energy), which rounding resolves to about 1e-16
of those terms: a difference below a small multiple of that reads as 0.
Every score is a power ratio clamped to [1e-30, 1e30], so it lies in
[-300, 300] dB: a silent estimate reads -300, and an artifact below the
rounding of its terms reads as the +300 dB cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import Signal, _caller_stacklevel, as_samples

_DB_FLOOR_RATIO = 1e-30
_DB_CAP = 300.0  # -10 log10(_DB_FLOOR_RATIO): every score lies in [-300, 300] dB
_CHUNK_SAMPLES = 1 << 16  # frame samples per signal transformed at once
_GAP_EPS = 64 * np.finfo(float).eps  # residual energies below this share of their terms read 0


@dataclass(frozen=True)
class EvalResult:
    """Per-channel scores in dB plus the harmonic/percussive averages."""

    sdr_h: float
    sir_h: float
    sar_h: float
    sdr_p: float
    sir_p: float
    sar_p: float

    # columns of the score table: track, method, then every score
    HEADER: ClassVar[tuple] = (
        "track", "method",
        "sdr_h", "sir_h", "sar_h",
        "sdr_p", "sir_p", "sar_p",
        "sdr_avg", "sir_avg", "sar_avg",
    )

    @property
    def sdr_avg(self) -> float:
        return 0.5 * (self.sdr_h + self.sdr_p)

    @property
    def sir_avg(self) -> float:
        return 0.5 * (self.sir_h + self.sir_p)

    @property
    def sar_avg(self) -> float:
        return 0.5 * (self.sar_h + self.sar_p)

    def row(self, track: str, method: str) -> list:
        """One table row: track, method and the nine scores at 4 decimals."""
        return [track, method] + [f"{getattr(self, k):.4f}" for k in self.HEADER[2:]]

    @classmethod
    def mean(cls, results) -> EvalResult:
        """Per-channel means over results; the averages follow from these."""
        cols = list(zip(*map(astuple, results)))
        return cls(*(sum(col) / len(col) for col in cols))


def _safe_db(num: float, den: float) -> float:
    """10 log10(num / den) with the ratio clamped to [1e-30, 1e30]."""
    num, den = float(num), float(den)
    if num <= den * _DB_FLOOR_RATIO:
        return -_DB_CAP
    if den <= num * _DB_FLOOR_RATIO:
        return _DB_CAP
    return 10.0 * math.log10(num / den)


def _block_len(flen: int, n: int) -> int:
    """Transform length of the correlation blocks: the power of two of at least
    16 flen and 1024 samples, or of one block that covers all n samples if
    that is shorter. Each block holds m - 2 (flen - 1) samples."""
    return 1 << (min(max(16 * flen, 1024), n + 2 * (flen - 1)) - 1).bit_length()


def _block_correlations(refs: list, sigs: list, flen: int) -> np.ndarray:
    """cc[i, s, flen - 1 + d] = sum_t refs[i][t] sigs[s][t + d] for |d| < flen,
    with samples outside the signals taken as zero.

    The signals are cut into blocks of hop = m - 2 (flen - 1) samples. Each
    block's full frame holds them and flen - 1 neighbours on each side; a
    reference's own frame holds its block's samples alone, at the frame's
    start, so lag d of their circular correlation sits at flen - 1 + d. The
    products conj(own_i) full_s are summed over the blocks, a chunk of blocks
    at a time, and one batched inverse transform reads every lag off: a
    block's samples meet no sample more than hop + 2 (flen - 1) <= m away,
    so no lag wraps.
    """
    n, edge = sigs[0].size, flen - 1
    m = _block_len(flen, n)
    hop = m - 2 * edge
    n_blocks = -(-n // hop)
    chunk = max(1, _CHUNK_SAMPLES // m)
    acc = np.zeros((len(refs), len(sigs), m // 2 + 1), dtype=complex)
    for b0 in range(0, n_blocks, chunk):
        nb = min(chunk, n_blocks - b0)
        lo = b0 * hop - edge  # the first sample of the chunk's first frame
        seg = np.zeros((len(sigs), nb * hop + 2 * edge))
        a, b = max(lo, 0), min(lo + seg.shape[1], n)
        for row, sig in zip(seg, sigs):
            row[a - lo:b - lo] = sig[a:b]
        frames = sliding_window_view(seg, hop + 2 * edge, axis=1)[:, ::hop]
        full = np.fft.rfft(frames, n=m)
        own = np.fft.rfft(seg[:len(refs), edge:edge + nb * hop].reshape(len(refs), nb, hop), n=m)
        acc += np.einsum("ibk,sbk->isk", own.conj(), full)
    return np.fft.irfft(acc, n=m)[..., :2 * flen - 1]


def _toeplitz(lags: np.ndarray, flen: int) -> np.ndarray:
    """The flen x flen Toeplitz block T[r, c] = lags[flen - 1 + r - c] of the
    2 flen - 1 lags, as a read-only view of them."""
    return sliding_window_view(lags, flen)[:, ::-1]


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve for one right-hand side, or one per column of a 2-D rhs. A
    singular gram gets a tiny ridge and one warning per right-hand side."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(np.trace(gram) / gram.shape[0], 1.0)
        for _ in range(1 if rhs.ndim == 1 else rhs.shape[1]):
            warnings.warn(
                "singular projection system; regularizing with a tiny ridge",
                stacklevel=_caller_stacklevel(),
            )
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)


def _residual(energy: float, cross: float, proj: float) -> float:
    """||est - p||^2 = energy - 2 cross + proj for a projection p with
    ||p||^2 = proj and <est, p> = cross, read as 0 below the rounding of its
    terms."""
    gap = energy - 2.0 * cross + proj
    return gap if gap > _GAP_EPS * (energy + 2.0 * abs(cross) + proj) else 0.0


def bss_eval_sources(refs, ests, filter_len: int = 512):
    """Score each estimate against its matching reference.

    Returns a list of (SDR, SIR, SAR) triples, one per source, using
    filter_len-tap projection filters. One streamed pass over short blocks
    gives the joint Gram matrix G of all the references' delayed copies and
    one right-hand side per estimate; G is built and solved once, and the
    projection onto reference j alone solves its j-th diagonal block. Every
    energy is then a quadratic form of G, with no convolution. Signal inputs
    must share one sample rate.
    """
    refs, ests = list(refs), list(ests)
    rates = {s.sample_rate for s in refs + ests if isinstance(s, Signal)}
    if len(rates) > 1:
        raise ValueError(f"sample rates do not match: {sorted(rates)} Hz")
    refs = [as_samples(r) for r in refs]
    ests = [as_samples(e) for e in ests]
    if len(refs) != len(ests) or not refs:
        raise ValueError("need equally many references and estimates")
    n = refs[0].size
    if any(r.size != n for r in refs) or any(e.size != n for e in ests):
        raise ValueError("all signals must have equal length")
    if filter_len < 1:
        raise ValueError("filter_len must be >= 1")
    if filter_len > n:
        raise ValueError(f"filter_len {filter_len} exceeds the signal length {n}")

    flen = filter_len
    n_src = len(refs)
    blocks = [slice(i * flen, (i + 1) * flen) for i in range(n_src)]
    cc = _block_correlations(refs, refs + ests, flen)
    gram = np.empty((n_src * flen,) * 2)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks[: i + 1]):
            block = _toeplitz(cc[i, j], flen)
            gram[bi, bj] = block
            gram[bj, bi] = block.T
    # rhs[i flen + k, e] = <ref_i delayed by k, est_e>
    rhs = cc[:, n_src:, flen - 1:].transpose(0, 2, 1).reshape(n_src * flen, n_src)
    joint = _solve(gram, rhs) if n_src > 1 else None

    scores = []
    for j, (bj, est) in enumerate(zip(blocks, ests)):
        c = np.zeros(n_src * flen)  # the target-only filter
        c[bj] = _solve(gram[bj, bj], rhs[bj, j])
        a = c if joint is None else joint[:, j]
        energy = est @ est
        target = c[bj] @ gram[bj, bj] @ c[bj]
        both = a @ gram @ a
        interf = max((a - c) @ gram @ (a - c), 0.0)
        distort = _residual(energy, c @ rhs[:, j], target)
        artif = _residual(energy, a @ rhs[:, j], both)
        scores.append((_safe_db(target, distort), _safe_db(target, interf),
                       _safe_db(both, artif)))
    return scores


def bss_eval(ref_h, ref_p, est_h, est_p, filter_len: int = 512) -> EvalResult:
    """Evaluate a harmonic/percussive pair against reference stems."""
    scores_h, scores_p = bss_eval_sources([ref_h, ref_p], [est_h, est_p], filter_len)
    return EvalResult(*scores_h, *scores_p)
