"""Windowed forward/adjoint STFT as explicit linear operators.

The transform uses a canonical tight window, frames centered at multiples
of the hop, and circular extension of the (hop-aligned zero-padded)
signal. Under the spectrogram inner product that weights the one-sided
bins by [1, 2, ..., 2, 1] / L, the adjoint is an exact inverse:
``adjoint(forward(x)) == x`` to machine precision for any signal length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import as_samples

# dump magic by payload kind: complex (re/im interleaved) or real
_DUMP_MAGIC = {True: b"HPSSSPC1", False: b"HPSSIFM1"}


@dataclass(frozen=True)
class StftConfig:
    """Transform geometry; the analysis and derivative windows derive from it.

    win_len:      frame length L (even)
    hop:          frame advance a, divides L
    window:       canonical tight periodic Hann window, length L (derived)
    deriv_window: samples of (L / 2*pi) * d(window)/dl, same normalizer
                  as ``window``; used by the instantaneous-frequency
                  estimator so its correction comes out in bin units
                  (derived)

    Configs compare and hash by ``(win_len, hop)``.
    """

    win_len: int
    hop: int
    window: np.ndarray = field(init=False, repr=False, compare=False)
    deriv_window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.win_len < 2 or self.win_len % 2 != 0:
            raise ValueError("win_len must be an even integer >= 2")
        if not (1 <= self.hop <= self.win_len):
            raise ValueError("hop must lie in [1, win_len]")
        if self.win_len % self.hop != 0:
            raise ValueError("hop must divide win_len")
        # periodic Hann prototype
        l = np.arange(self.win_len)
        proto = 0.5 - 0.5 * np.cos(2.0 * np.pi * l / self.win_len)
        # per-phase sums of proto^2: row r of the contiguous (hop, L/hop) array
        # is proto[r::hop], and a row sum adds in the order a 1-D sum of that
        # phase does (a strided or axis-0 sum can differ in the last bit)
        sums = np.ascontiguousarray((proto**2).reshape(-1, self.hop).T).sum(axis=1)
        if np.any(sums <= 0.0):
            raise ValueError("window/hop combination leaves coverage gaps")
        den = np.tile(np.sqrt(sums), self.win_len // self.hop)
        object.__setattr__(self, "window", proto / den)
        # analytic Hann derivative (pi/L) sin(2 pi l / L), scaled by L/(2 pi)
        object.__setattr__(
            self, "deriv_window", 0.5 * np.sin(2.0 * np.pi * l / self.win_len) / den
        )

    @property
    def n_bins(self) -> int:
        return self.win_len // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        return -(-n_samples // self.hop)


def make_config(win_len: int, hop: int) -> StftConfig:
    """Standard configuration: canonical tight Hann analysis window."""
    return StftConfig(win_len, hop)


@dataclass(frozen=True)
class Spectrogram:
    """Complex K x T matrix of one-sided STFT coefficients.

    Column tau holds the frame centered at sample hop*tau. n_samples
    records the analyzed signal length so the adjoint can crop.
    """

    data: np.ndarray
    config: StftConfig
    n_samples: int

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError("Spectrogram data must be 2-D")
        if data.shape[0] != self.config.n_bins:
            raise ValueError("row count must equal n_bins")
        if data.shape[1] != self.config.n_frames(self.n_samples):
            raise ValueError("column count must equal ceil(n_samples / hop)")
        if not np.all(np.isfinite(data.view(np.float64))):
            raise ValueError("Spectrogram entries must be finite")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Spectrogram":
        return replace(self, data=data)


class StftPlan:
    """Frame-major (T x K) forward/adjoint pair for signals of one length.

    Framing reads a strided view of a persistent, circularly extended
    buffer; the adjoint overlap-adds the L/hop frame blocks with one
    reshape-add each. Repeated transforms of same-length signals reuse
    the buffers, so they allocate nothing but the outputs they are not
    given. ``forward`` and ``adjoint`` below wrap this pair.
    """

    def __init__(self, config: StftConfig, n_samples: int):
        win_len, hop = config.win_len, config.hop
        self.config = config
        self.n_samples = n_samples
        self.n_frames = config.n_frames(n_samples)
        self.n_pad = hop * self.n_frames
        # x[k] sits at (k + L/2) mod n_pad of the padded frame-0-at-zero signal
        self._shift = (win_len // 2) % self.n_pad
        self._head = min(n_samples, self.n_pad - self._shift)
        self._pad = np.zeros(self.n_pad + win_len - hop)
        self._frames = np.lib.stride_tricks.sliding_window_view(self._pad, win_len)[::hop]
        self._real = np.empty((self.n_frames, win_len))
        if self.n_pad >= win_len:
            self._wrap = None
            self._ola = np.empty(self._pad.size)
        else:
            # frames overlap themselves: scatter-add through explicit indices
            tau = hop * np.arange(self.n_frames)[:, None]
            self._wrap = (tau + np.arange(win_len)[None, :]) % self.n_pad

    def _extend(self) -> None:
        """Repeat pad[:n_pad] periodically over the frame tail."""
        pad, start = self._pad, self.n_pad
        while start < pad.size:
            stop = min(pad.size, start + self.n_pad)
            pad[start:stop] = pad[: stop - start]
            start = stop

    def forward(self, x: np.ndarray, window=None, out=None) -> np.ndarray:
        """T x K one-sided coefficients of the length-n signal ``x``."""
        g = self.config.window if window is None else window
        s, m, n = self._shift, self._head, self.n_samples
        self._pad[s : s + m] = x[:m]
        self._pad[: n - m] = x[m:]
        self._extend()
        np.multiply(self._frames, g, out=self._real)
        return np.fft.rfft(self._real, n=self.config.win_len, axis=1, out=out)

    def adjoint(self, data: np.ndarray) -> np.ndarray:
        """Length-n signal from T x K coefficients (any strides)."""
        win_len, hop = self.config.win_len, self.config.hop
        u = np.fft.irfft(data, n=win_len, axis=1, out=self._real)
        u *= self.config.window
        n_frames, n_pad = self.n_frames, self.n_pad
        if self._wrap is None:
            buf = self._ola
            buf[:n_pad].reshape(n_frames, hop)[...] = u[:, :hop]
            buf[n_pad:] = 0.0
            for j in range(1, win_len // hop):
                buf[j * hop : j * hop + n_pad].reshape(n_frames, hop)[...] += u[
                    :, j * hop : (j + 1) * hop
                ]
            buf[: buf.size - n_pad] += buf[n_pad:]
        else:
            buf = np.zeros(n_pad)
            np.add.at(buf, self._wrap, u)
        s, m, n = self._shift, self._head, self.n_samples
        out = np.empty(n)
        out[:m] = buf[s : s + m]
        out[m:] = buf[: n - m]
        return out


def forward(x, config: StftConfig, window: np.ndarray | None = None) -> Spectrogram:
    """One-sided STFT: X[w, tau] = sum_l x[l + a*tau - L/2] g[l] e^{-2pi j w l / L}."""
    samples = as_samples(x)
    data = StftPlan(config, samples.size).forward(samples, window)
    return Spectrogram(
        data=np.ascontiguousarray(data.T),
        config=config,
        n_samples=samples.size,
    )


def adjoint(spec: Spectrogram) -> np.ndarray:
    """Exact adjoint of ``forward`` under the bin-weighted inner product."""
    return StftPlan(spec.config, spec.n_samples).adjoint(spec.data.T)


def write_dump(path, data: np.ndarray, config: StftConfig) -> None:
    """Dump a K x T array: an 8-byte magic, K, T, L, a as little-endian uint64,
    then row-major float64. Complex data gets magic HPSSSPC1 and interleaves
    re/im; real data gets HPSSIFM1."""
    k, t = data.shape
    is_complex = np.iscomplexobj(data)
    if is_complex:
        data = np.stack((data.real, data.imag), axis=-1)
    header = _DUMP_MAGIC[is_complex] + struct.pack("<QQQQ", k, t, config.win_len, config.hop)
    with open(path, "wb") as fh:
        fh.write(header + np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_dump(path):
    """Read a ``write_dump`` file; returns (data, (K, T, L, a)), complex or real
    according to its magic."""
    with open(path, "rb") as fh:
        raw = fh.read()
    is_complex = {magic: c for c, magic in _DUMP_MAGIC.items()}.get(raw[:8])
    if len(raw) < 40 or is_complex is None:
        raise ValueError(f"{path}: not a valid dump file")
    k, t, win_len, hop = struct.unpack_from("<QQQQ", raw, 8)
    body = np.frombuffer(raw, dtype="<f8", offset=40)
    if body.size != k * t * (1 + is_complex):
        raise ValueError(f"{path}: truncated dump payload")
    body = body.reshape(k, t, 1 + is_complex)
    data = body[..., 0] + 1j * body[..., 1] if is_complex else body[..., 0].copy()
    return data, (int(k), int(t), int(win_len), int(hop))
