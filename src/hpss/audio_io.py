"""WAV file reading/writing and the Signal container.

Supports RIFF/WAVE PCM 16/24-bit and IEEE float32, little-endian.
Integer samples are scaled to [-1, 1] on read; multi-channel audio is
downmixed to mono by averaging.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE
# bytes per sample of each supported (codec, bits)
_SAMPLE_BYTES = {(_FMT_PCM, 16): 2, (_FMT_PCM, 24): 3, (_FMT_IEEE_FLOAT, 32): 4}


@dataclass(frozen=True)
class Signal:
    """A mono waveform: float64 samples (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("Signal requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("Signal samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def as_samples(x) -> np.ndarray:
    """Accept a Signal or a bare 1-D array and return float64 samples."""
    if isinstance(x, Signal):
        return x.samples
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sample array")
    return arr


def _iter_chunks(data: bytes):
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        yield cid, pos + 8, size
        pos += 8 + size + (size & 1)


def read_wav(path) -> Signal:
    """Read a PCM or IEEE-float WAV file as a mono Signal.

    16/24-bit integers are divided by 32768 / 8388608; stereo or
    multi-channel content is averaged down to one channel.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    for cid, off, size in _iter_chunks(data):
        if cid == b"fmt ":
            fmt = data[off : off + size]  # never read past the chunk itself
            if len(fmt) < 16:
                raise ValueError(f"{path}: fmt chunk shorter than 16 bytes")
        elif cid == b"data":
            payload = data[off : off + size]
    if fmt is None or payload is None:
        raise ValueError(f"{path}: missing fmt or data chunk")

    codec, n_channels, sample_rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if codec == _FMT_EXTENSIBLE and len(fmt) >= 40:
        # subformat GUID starts with the ordinary codec tag
        codec = struct.unpack_from("<H", fmt, 24)[0]
    if n_channels < 1:
        raise ValueError(f"{path}: invalid channel count")

    width = _SAMPLE_BYTES.get((codec, bits))
    if width is None:
        raise ValueError(f"{path}: unsupported codec (tag={codec}, bits={bits})")
    n_frames = len(payload) // (width * n_channels)  # a partial frame is dropped
    if n_frames == 0:
        raise ValueError(f"{path}: zero-length audio")
    payload = payload[: n_frames * width * n_channels]

    if width == 2:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 3:
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        vals = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        vals = (vals ^ 0x800000) - 0x800000  # sign-extend 24 -> 32 bits
        raw = vals.astype(np.float64) / 8388608.0
    else:
        raw = np.frombuffer(payload, dtype="<f4")
        if not np.all(np.isfinite(raw)):  # before the cast, which warns on a signaling NaN
            raise ValueError(f"{path}: float samples must be finite")
        raw = raw.astype(np.float64)

    mono = raw.reshape(n_frames, n_channels).mean(axis=1)
    try:
        return Signal(mono, sample_rate)
    except ValueError as exc:  # a zero sample rate
        raise ValueError(f"{path}: {exc}") from None


def write_wav(path, s: Signal, bit_depth=16) -> None:
    """Write a Signal to a WAV file.

    bit_depth is 16, 24 or "float32". Samples outside [-1, 1] are
    hard-clipped with a warning; separation residuals can slightly
    exceed full scale.
    """
    samples, rate = s.samples, s.sample_rate
    depth = str(bit_depth).lower()
    if depth not in ("16", "24", "float32"):
        raise ValueError(f"unsupported bit depth: {bit_depth!r}")

    if np.any(np.abs(samples) > 1.0):
        n_clip = int(np.sum(np.abs(samples) > 1.0))
        warnings.warn(
            f"clipping {n_clip} out-of-range samples to [-1, 1]", stacklevel=2
        )
        samples = np.clip(samples, -1.0, 1.0)

    if depth == "16":
        ints = np.round(samples * 32768.0).astype(np.int64)
        ints = np.clip(ints, -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        codec, bits = _FMT_PCM, 16
    elif depth == "24":
        ints = np.round(samples * 8388608.0).astype(np.int64)
        ints = np.clip(ints, -8388608, 8388607).astype(np.int32)
        u = (ints & 0xFFFFFF).astype(np.uint32)
        b = np.empty((u.size, 3), dtype=np.uint8)
        b[:, 0] = u & 0xFF
        b[:, 1] = (u >> 8) & 0xFF
        b[:, 2] = (u >> 16) & 0xFF
        payload = b.tobytes()
        codec, bits = _FMT_PCM, 24
    else:
        payload = samples.astype("<f4").tobytes()
        codec, bits = _FMT_IEEE_FLOAT, 32

    n_channels = 1
    block_align = n_channels * bits // 8
    byte_rate = rate * block_align
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        codec,
        n_channels,
        rate,
        byte_rate,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)
