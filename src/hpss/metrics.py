"""BSS-Eval style SDR/SIR/SAR for scoring separations against references.

Each estimate is decomposed into target, interference and artifact parts
by least-squares projection onto delayed copies of the references
(projection filters of a configurable length, computed over the full
signals). Follows the classic sources-style evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import toeplitz

from .audio_io import Signal, as_samples

_DB_FLOOR_RATIO = 1e-30


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
    den = max(den, num * _DB_FLOOR_RATIO, 1e-300)
    return 10.0 * np.log10(num / den)


def _xcorr(a_fft: np.ndarray, b_fft: np.ndarray, n_fft: int, flen: int):
    """Circular cross-correlation of a and b at lags 0, -1, ..., 1 - flen
    (the Toeplitz column) and at lags 0, 1, ..., flen - 1 (its row)."""
    cc = np.real(np.fft.irfft(a_fft * np.conj(b_fft), n=n_fft))
    return np.concatenate(([cc[0]], cc[-1 : -flen : -1])), cc[:flen]


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(np.trace(gram) / gram.shape[0], 1.0)
        warnings.warn(
            "singular projection system; regularizing with a tiny ridge",
            stacklevel=3,
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
    filter_len-tap projection filters. Each reference is transformed once
    and the joint Gram matrix of all their delayed copies is built once;
    the projection onto reference j alone solves its j-th diagonal block.
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

    flen = filter_len
    blocks = [slice(i * flen, (i + 1) * flen) for i in range(len(refs))]
    n_out = n + flen - 1
    n_fft = int(2 ** np.ceil(np.log2(n_out)))
    ref_f = [np.fft.rfft(r, n=n_fft) for r in refs]

    gram = np.zeros((len(refs) * flen,) * 2)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks[: i + 1]):
            block = toeplitz(*_xcorr(ref_f[i], ref_f[j], n_fft, flen))
            gram[bi, bj] = block
            gram[bj, bi] = block.T

    def filtered(coeffs, i):
        filt_f = np.fft.rfft(coeffs, n=n_fft)
        return np.real(np.fft.irfft(filt_f * ref_f[i], n=n_fft))[:n_out]

    scores = []
    for j, est in enumerate(ests):
        est_f = np.fft.rfft(est, n=n_fft)
        rhs = np.concatenate([_xcorr(f, est_f, n_fft, flen)[0] for f in ref_f])
        bj = blocks[j]
        s_target = filtered(_solve(gram[bj, bj], rhs[bj]), j)
        p_all = s_target
        if len(refs) > 1:
            coeffs = _solve(gram, rhs)
            p_all = sum(filtered(coeffs[bi], i) for i, bi in enumerate(blocks))
        e_artif = -p_all
        e_artif[:n] += est
        scores.append(_scores(s_target, p_all - s_target, e_artif))
    return scores


def bss_eval(ref_h, ref_p, est_h, est_p, filter_len: int = 512) -> EvalResult:
    """Evaluate a harmonic/percussive pair against reference stems."""
    (sdr_h, sir_h, sar_h), (sdr_p, sir_p, sar_p) = bss_eval_sources(
        [ref_h, ref_p], [est_h, est_p], filter_len
    )
    return EvalResult(sdr_h, sir_h, sar_h, sdr_p, sir_p, sar_p)
