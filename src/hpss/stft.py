"""Windowed forward/adjoint STFT as explicit linear operators.

The transform uses a canonical tight window, frames centered at multiples
of the hop, and circular extension of the (hop-aligned zero-padded)
signal. Under the spectrogram inner product that weights the one-sided
bins by [1, 2, ..., 2, 1] / L, a plan's adjoint is an exact inverse:
``plan.adjoint(plan.forward(x)) == x`` to machine precision for any signal
length.
Coefficients are T x K, a row per frame; only dump files hold them K x T.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .audio_io import _check_integers, as_samples

# dump magic by payload kind: complex (re/im interleaved) or real
_DUMP_MAGIC = {True: b"HPSSSPC1", False: b"HPSSIFM1"}
# complex coefficients per frame block: 2**15 of them are 512 KB, so a block and
# the few block-sized arrays an elementwise pass reads beside it stay in cache
_BLOCK_COEFFS = 1 << 15


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
        _check_integers(self, "win_len", "hop")
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


# kept for perfbench/workloads.py, its one remaining caller
make_config = StftConfig


@dataclass(frozen=True)
class Spectrogram:
    """Complex T x K matrix of one-sided STFT coefficients.

    Row tau holds the frame centered at sample hop*tau. n_samples
    records the analyzed signal length so the adjoint can crop.
    """

    data: np.ndarray
    config: StftConfig
    n_samples: int

    def __post_init__(self):
        data = np.asarray(self.data)
        shape = (self.config.n_frames(self.n_samples), self.config.n_bins)
        if data.shape != shape:
            raise ValueError(f"Spectrogram data must be T x K = {shape}, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("Spectrogram entries must be finite")

    @property
    def shape(self) -> tuple:
        return self.data.shape


# the most frame lanes a plan uses: two were measured (2 cores), and more
# lanes have smaller blocks, which an earlier prototype saw run slower
_MAX_LANES = 2


def _lane_count(n_frames: int, block: int, halo: int) -> int:
    """Frame lanes of a plan: one per core this process may run on, at most
    ``_MAX_LANES``, each of at least two frame blocks (about 2**16
    coefficients) plus the ``halo`` of L/hop - 1 frames that a later lane's
    adjoint inverse-transforms beside its own: a lane no longer than its halo
    transforms as many frames as one lane does for the whole sweep. A sweep of
    a few blocks takes well under a millisecond, and a second lane gains
    nothing there: waking it costs about as much, and it loses outright when
    its core is shared, as with an OpenBLAS worker that spins after a BLAS
    call."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return max(1, min(_MAX_LANES, cores, n_frames // (2 * block + halo)))


_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _lane_pool() -> ThreadPoolExecutor:
    """The pool that runs lanes 1.. of every plan, ``_MAX_LANES - 1`` threads
    started on demand: made on first use, and again in a forked child, which
    inherits the pool but not its threads."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(_MAX_LANES - 1, thread_name_prefix="hpss-lane")
            _pool_pid = os.getpid()
        return _pool


class StftPlan:
    """Frame-major (T x K) forward/adjoint pair for signals of one length.

    The frames split into ``lanes``: contiguous ranges (t0, t1), one per core
    this process may run on, at most two, and each of at least two blocks of
    ``block`` rows and the adjoint's halo (below), so a plan on one core, or of
    fewer than 2 (2 block + L/hop - 1) frames, has a single lane and starts no
    thread. Lane 0 runs on the calling thread and the others on a shared
    pool, each streaming its frames in blocks of
    ``lane_block = ceil(block / lanes)`` rows, with ``block`` sized by the
    bin count so that one block holds about 2**15 coefficients. Both
    directions work on one signal buffer: framing reads a strided view of it
    after the signal's period is repeated over the frame tail, and the
    adjoint overlap-adds each block's L/hop frame parts into it with one
    reshape-add each, then folds the tail back onto the period. Beside that
    buffer the plan holds only sample-domain scratch: each lane's real block
    of windowed frames. Coefficients live in arrays the caller owns:
    ``forward`` and ``adjoint`` read and write whole T x K arrays, and the
    streaming sweeps ``forward_blocks`` and ``adjoint_blocks`` hand blocks to
    and take them from callbacks, ``forward_blocks`` in the ``block_rows()``
    array its caller passes. A plan runs one sweep at a time, and lanes
    change no bit of any of them. Each lane writes only its own frames or hop
    segments, so every lane after the first transforms frames before it: a
    forward block reaches its callback with the frame before it (one extra
    frame per sweep), and the adjoint reads a halo of the L/hop - 1 frames
    whose parts land in the lane's segments (3 of 216 on the criterion-8
    problem, 63 at 4096/64).
    """

    def __init__(self, config: StftConfig, n_samples: int):
        win_len, hop = config.win_len, config.hop
        self.config = config
        self.n_samples = n_samples
        self.n_frames = config.n_frames(n_samples)
        self.n_pad = hop * self.n_frames
        self.block = max(1, min(self.n_frames, _BLOCK_COEFFS // config.n_bins))
        n_lanes = _lane_count(self.n_frames, self.block, win_len // hop - 1)
        self.lane_block = -(-self.block // n_lanes)
        bounds = [k * self.n_frames // n_lanes for k in range(n_lanes + 1)]
        self.lanes = list(zip(bounds[:-1], bounds[1:]))
        # x[k] sits at (k + L/2) mod n_pad of the padded frame-0-at-zero signal
        self._shift = (win_len // 2) % self.n_pad
        self._head = min(n_samples, self.n_pad - self._shift)
        self._pad = np.zeros(self.n_pad + win_len - hop)
        self._frames = np.lib.stride_tricks.sliding_window_view(self._pad, win_len)[::hop]
        self._real = np.empty((n_lanes, self.lane_block, win_len))

    def _extend(self) -> None:
        """Repeat pad[:n_pad] periodically over the frame tail."""
        pad = self._pad
        for start in range(self.n_pad, pad.size, self.n_pad):
            period = pad[start : start + self.n_pad]
            period[...] = pad[: period.size]

    def _fold(self) -> None:
        """Add the frame tail back onto pad[:n_pad] periodically, one period at a
        time, first to last: the adjoint of ``_extend``."""
        pad = self._pad
        for start in range(self.n_pad, pad.size, self.n_pad):
            period = pad[start : start + self.n_pad]
            pad[: period.size] += period

    def _blocks(self, lane: int):
        """(t0, t1) of each frame block of ``lane``, first to last."""
        start, stop = self.lanes[lane]
        return [(t0, min(t0 + self.lane_block, stop))
                for t0 in range(start, stop, self.lane_block)]

    def _run_lanes(self, sweep) -> None:
        """Run ``sweep(lane)`` for every lane: lane 0 on this thread, the others
        on the pool, except that this thread also runs, in order, the lanes no
        worker has started by the time its own lane is done (a worker woken on
        a core that another thread holds can start milliseconds late). An
        exception of any lane is raised once every lane has stopped."""
        n_lanes = len(self.lanes)
        if n_lanes == 1:
            sweep(0)
            return
        pool = _lane_pool()
        futures = [pool.submit(sweep, lane) for lane in range(1, n_lanes)]
        try:
            sweep(0)
            for lane, future in enumerate(futures, 1):
                if future.cancel():
                    sweep(lane)
        finally:
            futures = [future for future in futures if not future.cancelled()]
            wait(futures)
        error = next(filter(None, (future.exception() for future in futures)), None)
        if error is not None:
            try:
                raise error
            finally:  # the traceback holds this frame: hold no reference back
                futures = error = None

    def block_rows(self) -> np.ndarray:
        """Fresh coefficient rows for ``forward_blocks``: a complex (lanes,
        lane_block + 1, K) array, a block and the frame before it per lane."""
        shape = (len(self.lanes), self.lane_block + 1, self.config.n_bins)
        return np.empty(shape, dtype=np.complex128)

    def _load(self, x: np.ndarray) -> None:
        """Place the length-n signal ``x`` and its zero padding in the signal
        buffer, then repeat its period over the frame tail."""
        s, m, n = self._shift, self._head, self.n_samples
        pad = self._pad
        pad[s : s + m] = x[:m]
        pad[: n - m] = x[m:]
        pad[n - m : s] = 0.0  # the zero padding, which an adjoint may have written
        pad[s + m : self.n_pad] = 0.0
        self._extend()

    def _transform(self, lane: int, t0: int, t1: int, window, out) -> None:
        """Frames t0..t1-1, windowed in the lane's real scratch, into ``out``."""
        real = self._real[lane, : t1 - t0]
        np.multiply(self._frames[t0:t1], window, out=real)
        np.fft.rfft(real, n=self.config.win_len, axis=1, out=out)

    def forward_blocks(self, x: np.ndarray, block, rows: np.ndarray) -> None:
        """Transform the length-n signal ``x`` block by block and call
        ``block(lane, t0, t1, coeffs)`` with frames t0-1..t1-1 as a read-only
        (t1 - t0 + 1) x K view of ``rows[lane]``, zeros for frame -1: first to
        last within each lane, the lanes in parallel. ``rows`` is a
        ``block_rows()`` array, which the caller owns; each block's last row
        moves to row 0 for the next, and a later lane's first block
        transforms frame t0-1 too."""
        self._load(x)
        window = self.config.window

        def sweep(lane):
            own = rows[lane]
            view = own.view()
            view.flags.writeable = False
            for t0, t1 in self._blocks(lane):
                if t0 == 0:
                    own[0] = 0.0
                elif t0 == self.lanes[lane][0]:  # a later lane's first block
                    self._transform(lane, t0 - 1, t0, window, own[:1])
                else:  # the last row of the lane's previous (full) block
                    own[0] = own[self.lane_block]
                self._transform(lane, t0, t1, window, own[1 : t1 - t0 + 1])
                block(lane, t0, t1, view[: t1 - t0 + 1])

        self._run_lanes(sweep)

    def forward(self, x: np.ndarray, window=None) -> np.ndarray:
        """T x K one-sided coefficients of the length-n signal ``x``."""
        window = self.config.window if window is None else window
        out = np.empty((self.n_frames, self.config.n_bins), dtype=np.complex128)
        self._load(x)

        def sweep(lane):
            for t0, t1 in self._blocks(lane):
                self._transform(lane, t0, t1, window, out[t0:t1])

        self._run_lanes(sweep)
        return out

    def adjoint_blocks(self, coeffs) -> np.ndarray:
        """Length-n signal from the T x K coefficients that ``coeffs(lane, t0,
        t1)`` returns for frames t0..t1-1, as a (t1 - t0) x K array of any
        strides, each read before the next is asked for.

        Each lane overlap-adds into its own hop segments only, the last lane
        into the frame tail too. It asks for its own blocks from the last to
        the first, then for its halo, the L/hop - 1 frames before it (fewer
        near frame 0), whose later parts land in its segments: in blocks of
        at most ``lane_block`` rows, last first, frames that may belong to an
        earlier lane. So every sample adds its frames in decreasing order, as
        a whole-array overlap-add does, at any lane count.
        """
        win_len, hop = self.config.win_len, self.config.hop
        parts = win_len // hop
        pad = self._pad
        pad[self.n_pad :] = 0.0
        last = len(self.lanes) - 1

        def sweep(lane):
            start, stop = self.lanes[lane]
            if lane == last:
                stop = self.n_frames + parts  # the frame tail
            halo = [(t0, min(t0 + self.lane_block, start))
                    for t0 in range(max(0, start - parts + 1), start, self.lane_block)]
            for t0, t1 in reversed(halo + self._blocks(lane)):
                u = self._inverse(lane, coeffs(lane, t0, t1))
                for j in range(parts):
                    # frames lo..hi-1 put their part j in segments start..stop-1
                    lo, hi = max(t0, start - j), min(t1, stop - j)
                    if hi > lo:
                        seg = pad[(lo + j) * hop : (hi + j) * hop].reshape(hi - lo, hop)
                        part = u[lo - t0 : hi - t0, j * hop : (j + 1) * hop]
                        if j:
                            seg += part
                        else:
                            seg[...] = part

        self._run_lanes(sweep)
        self._fold()
        s, m, n = self._shift, self._head, self.n_samples
        out = np.empty(n)
        out[:m] = pad[s : s + m]
        out[m:] = pad[: n - m]
        return out

    def _inverse(self, lane: int, coeffs: np.ndarray) -> np.ndarray:
        """Windowed inverse FFT of a block of frames, in the lane's real scratch."""
        real = self._real[lane, : len(coeffs)]
        u = np.fft.irfft(coeffs, n=self.config.win_len, axis=1, out=real)
        u *= self.config.window
        return u

    def adjoint(self, data: np.ndarray) -> np.ndarray:
        """Length-n signal from T x K coefficients (any strides)."""
        return self.adjoint_blocks(lambda lane, t0, t1: data[t0:t1])


def forward(x, config: StftConfig) -> Spectrogram:
    """One-sided STFT: X[tau, w] = sum_l x[l + a*tau - L/2] g[l] e^{-2pi j w l / L}."""
    samples = as_samples(x)
    data = StftPlan(config, samples.size).forward(samples)
    return Spectrogram(data=data, config=config, n_samples=samples.size)


def write_dump(path, data: np.ndarray, config: StftConfig) -> None:
    """Dump a T x K array as K x T: an 8-byte magic, K, T, L, a as little-endian
    uint64, then row-major float64 of the K x T transpose. Complex data gets
    magic HPSSSPC1 and interleaves re/im; real data gets HPSSIFM1."""
    t, k = data.shape
    is_complex = np.iscomplexobj(data)
    if is_complex:
        data = np.stack((data.real, data.imag), axis=-1)
    header = _DUMP_MAGIC[is_complex] + struct.pack("<QQQQ", k, t, config.win_len, config.hop)
    with open(path, "wb") as fh:
        fh.write(header + np.ascontiguousarray(data.swapaxes(0, 1), dtype="<f8").tobytes())


def read_dump(path):
    """Read a ``write_dump`` file; returns (data, (K, T, L, a)) with ``data`` a
    C-contiguous T x K array, complex or real according to its magic."""
    with open(path, "rb") as fh:
        raw = fh.read()
    is_complex = {magic: c for c, magic in _DUMP_MAGIC.items()}.get(raw[:8])
    if len(raw) < 40 or is_complex is None:
        raise ValueError(f"{path}: not a valid dump file")
    k, t, win_len, hop = struct.unpack_from("<QQQQ", raw, 8)
    body = np.frombuffer(raw, dtype="<f8", offset=40)
    if body.size != k * t * (1 + is_complex):
        raise ValueError(f"{path}: truncated dump payload")
    if is_complex:  # a view keeps each part's bits, the sign of a zero included
        body = body.view("<c16")
    data = body.reshape(k, t).T.copy()  # C-contiguous and writeable
    return data, (int(k), int(t), int(win_len), int(hop))
