"""WAV file reading/writing and the Signal container.

Supports RIFF/WAVE PCM 16/24-bit and IEEE float32, little-endian.
Integer samples are scaled to [-1, 1] on read; multi-channel audio is
downmixed to mono by averaging.
"""

from __future__ import annotations

import numbers
import os
import struct
import sys
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
        object.__setattr__(self, "samples", as_samples(self.samples))
        rate = self.sample_rate
        integral = isinstance(rate, numbers.Integral) or (
            isinstance(rate, numbers.Real) and float(rate).is_integer())
        if not integral or isinstance(rate, bool) or rate < 1:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        object.__setattr__(self, "sample_rate", int(rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def as_samples(x) -> np.ndarray:
    """Accept a Signal or a bare non-empty 1-D array of real finite values;
    return float64 samples."""
    if isinstance(x, Signal):
        return x.samples
    if np.iscomplexobj(x):
        raise ValueError("samples must be real")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D sample array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by the calling function names
    the first frame outside the package, whichever public function led there
    (``warnings.warn``'s ``skip_file_prefixes`` needs Python 3.12)."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _check_integers(obj, *names) -> None:
    """Reject each named field of ``obj`` that is a bool or not an integer."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_reals(obj, *names) -> None:
    """Reject each named field of ``obj`` that is a bool or not a real number."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


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

    if codec == _FMT_IEEE_FLOAT:
        raw = np.frombuffer(payload, dtype="<f4")
        if not np.all(np.isfinite(raw)):  # before the cast, which warns on a signaling NaN
            raise ValueError(f"{path}: float samples must be finite")
        raw = raw.astype(np.float64)
    else:
        if width == 2:
            ints = np.frombuffer(payload, dtype="<i2")
        else:  # the three bytes fill the top of an int32 word; >> 8 sign-extends
            words = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
            words[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
            ints = words.view("<i4")[:, 0] >> 8
        raw = ints.astype(np.float64) / float(1 << (bits - 1))

    frames = raw.reshape(n_frames, n_channels)
    # np.mean sums by numpy's pairwise_sum: under 8 terms one by one onto +0.0,
    # which adding the columns in order repeats bit for bit; from 8 terms on in
    # unrolled partial sums, so wider files keep np.mean
    if n_channels < 8:
        mono = frames[:, 0] + 0.0
        for c in range(1, n_channels):
            mono += frames[:, c]
        mono /= n_channels
    else:
        mono = frames.mean(axis=1)
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
    codec, bits = (_FMT_IEEE_FLOAT, 32) if depth == "float32" else (_FMT_PCM, int(depth))
    n_channels = 1
    block_align = n_channels * bits // 8
    byte_rate = rate * block_align
    data_size = samples.size * block_align
    if max(byte_rate, 36 + data_size) > 0xFFFFFFFF:  # the header's 32-bit fields
        raise ValueError(f"{path}: a WAV header cannot hold {samples.size} samples at "
                         f"{rate} Hz and {bits} bits (byte rate {byte_rate})")

    if samples.max() > 1.0 or samples.min() < -1.0:
        n_clip = np.count_nonzero(np.abs(samples) > 1.0)
        warnings.warn(f"{path}: clipping {n_clip} out-of-range samples to [-1, 1]",
                      stacklevel=_caller_stacklevel())
        samples = np.clip(samples, -1.0, 1.0)

    if codec == _FMT_IEEE_FLOAT:
        payload = samples.astype("<f4")
    else:
        full = float(1 << (bits - 1))
        scaled = samples * full
        np.rint(scaled, out=scaled)  # within [-full, full]: only the top needs clipping
        np.minimum(scaled, full - 1.0, out=scaled)
        if bits == 16:
            payload = scaled.astype("<i2")
        else:  # the low three bytes of each little-endian int32 word
            words = scaled.astype("<i4").view(np.uint8).reshape(-1, 4)
            payload = np.ascontiguousarray(words[:, :3])

    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + data_size,
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
        data_size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
