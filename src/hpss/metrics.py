"""BSS-Eval style SDR/SIR/SAR for scoring separations against references.

Each estimate is decomposed into target, interference and artifact parts
by least-squares projection onto delayed copies of the references
(projection filters of a configurable length, computed over the full
signals). Follows the classic sources-style evaluation.

The correlations that set up the projections come from one real FFT of
each signal at the smallest 5-smooth length of at least
``n + filter_len - 1``, so that no lag wraps around. The projections
themselves are short-block (overlap-add) convolutions of each reference
with its filter. Every score is a power ratio clamped to [1e-30, 1e30],
so it lies in [-300, 300] dB: a silent estimate reads -300.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz
from scipy.signal import oaconvolve

from .audio_io import Signal, _caller_stacklevel, as_samples

_DB_FLOOR_RATIO = 1e-30
_DB_CAP = 300.0  # -10 log10(_DB_FLOOR_RATIO): every score lies in [-300, 300] dB


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


def _xcorr(a_fft, b_fft, prod, cc, flen: int):
    """Cross-correlation of a and b at lags 0, -1, ..., 1 - flen (the
    Toeplitz column) and at lags 0, 1, ..., flen - 1 (its row).

    The product goes through the buffer prod and the inverse transform
    into the buffer cc; the row is a view of cc, valid until the next call.
    """
    np.conjugate(b_fft, out=prod)
    prod *= a_fft
    np.fft.irfft(prod, n=cc.size, out=cc)
    return np.concatenate((cc[:1], cc[-1:-flen:-1])), cc[:flen]


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


def _scores(s_target, e_interf, e_artif):
    sdr = _safe_db(s_target @ s_target, (e_interf + e_artif) @ (e_interf + e_artif))
    sir = _safe_db(s_target @ s_target, e_interf @ e_interf)
    st_i = s_target + e_interf
    sar = _safe_db(st_i @ st_i, e_artif @ e_artif)
    return sdr, sir, sar


def bss_eval_sources(refs, ests, filter_len: int = 512):
    """Score each estimate against its matching reference.

    Returns a list of (SDR, SIR, SAR) triples, one per source, using
    filter_len-tap projection filters. Every signal is transformed once,
    and the joint Gram matrix of all the references' delayed copies is
    built and solved once, with one right-hand side per estimate; the
    projection onto reference j alone solves its j-th diagonal block.
    Signal inputs must share one sample rate.
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
    # long enough that no lag below flen wraps around
    n_fft = next_fast_len(n + flen - 1, real=True)
    spectra = np.empty((2 * n_src, n_fft // 2 + 1), dtype=complex)
    for sig, out in zip(refs + ests, spectra):
        np.fft.rfft(sig, n=n_fft, out=out)
    ref_f, est_f = spectra[:n_src], spectra[n_src:]
    prod, cc = np.empty_like(spectra[0]), np.empty(n_fft)

    gram = np.zeros((n_src * flen,) * 2)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks[: i + 1]):
            block = toeplitz(*_xcorr(ref_f[i], ref_f[j], prod, cc, flen))
            gram[bi, bj] = block
            gram[bj, bi] = block.T
    rhs = np.empty((n_src * flen, n_src))
    for i, bi in enumerate(blocks):
        for j, e_f in enumerate(est_f):
            rhs[bi, j] = _xcorr(ref_f[i], e_f, prod, cc, flen)[0]
    joint = _solve(gram, rhs) if n_src > 1 else None

    scores = []
    for j, (bj, est) in enumerate(zip(blocks, ests)):
        s_target = oaconvolve(refs[j], _solve(gram[bj, bj], rhs[bj, j]))
        p_all = s_target
        if joint is not None:
            p_all = sum(oaconvolve(r, joint[bi, j]) for r, bi in zip(refs, blocks))
        e_artif = -p_all
        e_artif[:n] += est
        scores.append(_scores(s_target, p_all - s_target, e_artif))
    return scores


def bss_eval(ref_h, ref_p, est_h, est_p, filter_len: int = 512) -> EvalResult:
    """Evaluate a harmonic/percussive pair against reference stems."""
    scores_h, scores_p = bss_eval_sources([ref_h, ref_p], [est_h, est_p], filter_len)
    return EvalResult(*scores_h, *scores_p)
