"""Instantaneous-frequency estimation and instantaneous phase correction.

The correction matrix E, the running product of the predicted per-frame
phase steps of sinusoidal content, cancels their phase advance, so the
phase-corrected STFT of a steady tone is constant along time in each
sub-band. For fixed steps the corrected transform is a linear operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import as_samples
from .stft import Spectrogram, StftConfig, adjoint, forward


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


@dataclass(frozen=True)
class PhaseCorrection:
    """Unit-modulus phase steps s, K x T; the last column is unused."""

    step: np.ndarray

    def __post_init__(self):
        step = np.asarray(self.step, dtype=np.complex128)
        object.__setattr__(self, "step", step)
        if step.ndim != 2:
            raise ValueError("PhaseCorrection must be 2-D")
        if not np.allclose(np.abs(step), 1.0, atol=1e-9):
            raise ValueError("PhaseCorrection entries must have unit modulus")

    @property
    def shape(self) -> tuple:
        return self.step.shape

    @property
    def e(self) -> np.ndarray:
        """E[:, 0] = 1, E[:, t] = E[:, t-1] s[:, t-1], renormalized to unit modulus."""
        e = np.cumprod(np.insert(self.step[:, :-1], 0, 1.0, axis=1), axis=1)
        return np.divide(e, np.abs(e), out=e)


def estimate_if(x, config: StftConfig, eps: float = 1e-6) -> IfMap:
    """Estimate per-bin instantaneous frequency from the phase derivative.

    Transforms x with the analysis and the derivative window and applies
    ``if_from_spectra``.
    """
    spec = forward(x, config)
    spec_d = forward(as_samples(x), config, window=config.deriv_window)
    return if_from_spectra(spec, spec_d, eps)


def if_from_spectra(spec: Spectrogram, spec_d: Spectrogram, eps: float) -> IfMap:
    """Instantaneous frequency from the plain and derivative-window transforms.

    v[w, tau] = w - Im[ F_d(x) / F(x) ] where F_d uses the derivative
    window (already scaled to bin units). Bins whose magnitude falls
    below eps times the global maximum keep v = w, and the result is
    clamped to [0, L/2].
    """
    config = spec.config
    mag = np.abs(spec.data)
    peak = mag.max()
    omega = np.arange(config.n_bins, dtype=np.float64)[:, None]
    v = np.broadcast_to(omega, mag.shape).copy()
    if peak > 0.0:
        weak = mag < eps * peak
        safe = np.where(weak, 1.0, spec.data)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.imag(spec_d.data / safe)
        v = np.where(weak, v, v - corr)
    return IfMap(np.clip(v, 0.0, config.win_len / 2), config)


def build_correction(if_map: IfMap, config: StftConfig) -> PhaseCorrection:
    """The per-frame phase steps s = exp(-2pi j v a / L) of the correction."""
    return PhaseCorrection(np.exp(-2j * np.pi * (config.hop / config.win_len) * if_map.v))


def ipc_forward(x, correction: PhaseCorrection, config: StftConfig) -> Spectrogram:
    """Phase-corrected STFT: E applied elementwise to the plain transform."""
    spec = forward(x, config)
    if correction.shape != spec.shape:
        raise ValueError("correction shape does not match the spectrogram")
    return spec.with_data(correction.e * spec.data)


def ipc_adjoint(spec: Spectrogram, correction: PhaseCorrection) -> np.ndarray:
    """Adjoint of ``ipc_forward``: conjugate correction, then the STFT adjoint."""
    if correction.shape != spec.shape:
        raise ValueError("correction shape does not match the spectrogram")
    return adjoint(spec.with_data(np.conj(correction.e) * spec.data))


def time_diff(data: np.ndarray) -> np.ndarray:
    """Forward difference along time with a zero first column."""
    data = np.asarray(data)
    out = np.zeros_like(data)
    np.subtract(data[:, 1:], data[:, :-1], out=out[:, 1:])
    return out


def time_diff_adj(data: np.ndarray) -> np.ndarray:
    """Adjoint of ``time_diff``: negated backward difference, matching boundary."""
    data = np.asarray(data)
    out = np.zeros_like(data)
    out[:, :-1] -= data[:, 1:]
    out[:, 1:] += data[:, 1:]
    return out

