import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpss import Signal, StftConfig
from hpss.stft import Spectrogram, StftPlan, forward, read_dump, write_dump

from conftest import sine_signal
from reference import bin_weights, spec_inner, spec_norm


def naive_stft(x, config):
    """O(L*K) DFT-sum oracle, straight from the transform definition."""
    win_len, hop = config.win_len, config.hop
    n = x.size
    n_frames = config.n_frames(n)
    n_pad = hop * n_frames
    y = np.zeros(n_pad)
    y[:n] = x
    k = config.n_bins
    out = np.zeros((n_frames, k), dtype=complex)
    for tau in range(n_frames):
        for omega in range(k):
            acc = 0.0 + 0.0j
            for l in range(win_len):
                acc += (
                    y[(hop * tau - win_len // 2 + l) % n_pad]
                    * config.window[l]
                    * np.exp(-2j * np.pi * omega * l / win_len)
                )
            out[tau, omega] = acc
    return out


def reference_forward(x, config, window):
    """Roll, pad and frame the signal, then one rfft per frame (T x K)."""
    win_len, hop = config.win_len, config.hop
    n_frames = config.n_frames(x.size)
    n_pad = hop * n_frames
    y = np.zeros(n_pad)
    y[: x.size] = x
    z = np.roll(y, win_len // 2)
    idx = (hop * np.arange(n_frames)[:, None] + np.arange(win_len)[None, :]) % n_pad
    return np.fft.rfft(z[idx] * window[None, :], n=win_len, axis=1)


def reference_adjoint(data, config, n):
    """irfft per frame, overlap-add, fold the tail back periodically, unroll."""
    win_len, hop = config.win_len, config.hop
    n_frames = data.shape[0]
    n_pad = hop * n_frames
    u = np.fft.irfft(data, n=win_len, axis=1) * config.window[None, :]
    # the overlap-add spans n_pad + L - hop samples; whole periods of them,
    # summed row by row, add each sample's periods first to last
    buf = np.zeros(-(-(n_pad + win_len - hop) // n_pad) * n_pad)
    for j in range(win_len // hop):
        buf[j * hop : j * hop + n_pad].reshape(n_frames, hop)[...] += u[
            :, j * hop : (j + 1) * hop
        ]
    out = buf.reshape(-1, n_pad).sum(axis=0)
    return np.roll(out, -(win_len // 2))[:n]


# every hop dividing these is tested; 256 keeps the (256, 64) case
WINDOW_LENGTHS = (2, 4, 6, 8, 12, 16, 64, 96, 256, 1024, 4096)


class TestWindows:
    def test_hann_quarter_points(self):
        # at hop 1 the tight normalizer is one constant, sqrt(sum of Hann^2) = sqrt(3/2)
        w = StftConfig(4, 1).window
        np.testing.assert_allclose(w * np.sqrt(1.5), [0.0, 0.5, 1.0, 0.5])

    def test_hann_midpoint(self):
        # Hann^2 at 75 % overlap sums to 3/2 at every sample, so the peak is sqrt(2/3)
        w = StftConfig(4096, 1024).window
        assert w[2048] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert np.argmax(w) == 2048

    def test_hann_too_short(self):
        with pytest.raises(ValueError, match=">= 2"):
            StftConfig(0, 1)

    def test_tight_cola_sum(self):
        w = StftConfig(4096, 1024).window
        sums = np.zeros(1024)
        for l0 in range(1024):
            sums[l0] = np.sum(w[l0::1024] ** 2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_tight_coverage_gap(self):
        # hop = L leaves residue 0 with Hann's zero at l = 0 alone
        for win_len in WINDOW_LENGTHS:
            with pytest.raises(ValueError, match="coverage gaps"):
                StftConfig(win_len, win_len)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StftConfig(63, 16)  # odd length
        with pytest.raises(ValueError):
            StftConfig(64, 24)  # hop does not divide
        cfg = StftConfig(64, 16)
        assert cfg.n_bins == 33
        assert cfg.n_frames(1000) == 63

    def test_bin_weights(self):
        cfg = StftConfig(8, 4)
        np.testing.assert_allclose(bin_weights(cfg) * 8, [1, 2, 2, 2, 1])

    @pytest.mark.parametrize(
        "win_len, hop",
        [(n, a) for n in WINDOW_LENGTHS for a in range(1, n) if n % a == 0],
    )
    def test_windows_derive_from_geometry(self, win_len, hop):
        # an in-test copy of the tight Hann and derivative-window formula, with
        # the normalizer summed phase by phase; equal bytes, so sign bits too
        proto = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win_len) / win_len)
        den = np.empty(win_len)
        for l0 in range(hop):
            den[l0::hop] = np.sum(proto[l0::hop] ** 2)
        den = np.sqrt(den)
        deriv = 0.5 * np.sin(2.0 * np.pi * np.arange(win_len) / win_len) / den
        cfg = StftConfig(win_len, hop)
        assert cfg.window.tobytes() == (proto / den).tobytes()
        assert cfg.deriv_window.tobytes() == deriv.tobytes()

    def test_equal_and_hash_by_geometry(self):
        a, b = StftConfig(64, 16), StftConfig(64, 16)
        assert a == b and hash(a) == hash(b)
        assert a != StftConfig(64, 32)
        assert len({a, b, StftConfig(64, 32)}) == 2
        assert repr(a) == "StftConfig(win_len=64, hop=16)"


class TestForward:
    def test_impulse_flat_spectrum(self):
        # impulse at the center of frame 0: flat magnitude for any window
        cfg = StftConfig(16, 4)
        x = np.zeros(16)
        x[0] = 1.0
        spec = forward(x, cfg)
        mags = np.abs(spec.data[0])
        np.testing.assert_allclose(mags, mags[0])
        assert mags[0] > 0

    def test_on_bin_sinusoid_peak_row(self, bench_config):
        s = sine_signal(100.0, 16000, bench_config.win_len)
        spec = forward(s, bench_config)
        interior = np.abs(spec.data[5:-5])
        assert np.all(np.argmax(interior, axis=1) == 100)

    def test_matches_naive_dft(self, rng):
        cfg = StftConfig(16, 4)
        x = rng.normal(size=50)
        fast = forward(x, cfg).data
        slow = naive_stft(x, cfg)
        assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_linearity(self, small_config, rng):
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        a, b = 1.7, -0.6
        lhs = forward(a * x + b * y, small_config).data
        rhs = a * forward(x, small_config).data + b * forward(y, small_config).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_accepts_signal_and_array(self, small_config, rng):
        x = rng.normal(size=200)
        a = forward(x, small_config)
        b = forward(Signal(x, 8000), small_config)
        np.testing.assert_array_equal(a.data, b.data)


class TestAdjoint:
    def test_perfect_reconstruction(self, rng):
        cfg = StftConfig(64, 16)
        for n in (17, 64, 777, 5000):
            x = rng.normal(size=n)
            plan = StftPlan(cfg, n)
            xr = plan.adjoint(plan.forward(x))
            assert np.linalg.norm(xr - x) <= 1e-10 * np.linalg.norm(x)

    def test_adjoint_identity(self, rng, small_config):
        cfg = small_config
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=400)
            spec = forward(x, cfg)
            y = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
            yspec = replace(spec, data=y)
            lhs = spec_inner(spec, yspec, cfg)
            rhs = float(np.dot(x, StftPlan(cfg, x.size).adjoint(y)))
            denom = np.linalg.norm(x) * spec_norm(yspec, cfg)
            worst = max(worst, abs(lhs - rhs) / denom)
        assert worst <= 1e-8

    def test_zero_spectrogram(self, small_config):
        spec = forward(np.zeros(100), small_config)
        np.testing.assert_array_equal(StftPlan(small_config, 100).adjoint(spec.data), np.zeros(100))

    def test_parseval(self, rng, small_config):
        x = rng.normal(size=1234)
        spec = forward(x, small_config)
        energy = spec_inner(spec, spec, small_config)
        assert abs(energy - np.dot(x, x)) <= 1e-8 * np.dot(x, x)

    def test_shape_mismatch(self, small_config, rng):
        spec = forward(rng.normal(size=100), small_config)
        with pytest.raises(ValueError):
            Spectrogram(spec.data[:-1], small_config, 100)

    def test_any_strides(self, small_config, rng):
        # an F-ordered array and a strided view are valid data, checked for
        # finiteness like any other; the adjoint reads them as they are
        n = 300
        spec = forward(rng.normal(size=n), small_config)
        strided = np.zeros((spec.shape[0], 2 * spec.shape[1]), dtype=complex)[:, ::2]
        strided[...] = spec.data
        plan = StftPlan(small_config, n)
        for data in (np.asfortranarray(spec.data), strided):
            assert not data.flags.c_contiguous
            assert plan.adjoint(Spectrogram(data, small_config, n).data).tobytes() == (
                plan.adjoint(spec.data).tobytes()
            )
            data[2, 3] = complex(0.0, float("nan"))
            with pytest.raises(ValueError, match="must be finite"):
                Spectrogram(data, small_config, n)


class TestFrameMajorKernel:
    LENGTHS = (1, 5, 15, 16, 17, 40, 63, 64, 65, 100, 777)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bit_identical_to_reference(self, small_config, rng, n):
        x = rng.normal(size=n)
        for window in (small_config.window, small_config.deriv_window):
            np.testing.assert_array_equal(
                StftPlan(small_config, n).forward(x, window),
                reference_forward(x, small_config, window),
            )
        y = forward(x, small_config)
        np.testing.assert_array_equal(
            y.data, reference_forward(x, small_config, small_config.window)
        )
        data = rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape)
        np.testing.assert_array_equal(
            StftPlan(small_config, n).adjoint(data), reference_adjoint(data, small_config, n)
        )

    @pytest.mark.parametrize("n", (5, 40, 777))
    def test_plan_reuse_is_stateless(self, small_config, rng, n):
        plan = StftPlan(small_config, n)
        for _ in range(3):
            x = rng.normal(size=n)
            np.testing.assert_array_equal(
                plan.forward(x), reference_forward(x, small_config, small_config.window)
            )
            data = rng.normal(size=(plan.n_frames, small_config.n_bins)) * (1 + 1j)
            np.testing.assert_array_equal(
                plan.adjoint(data), reference_adjoint(data, small_config, n)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.sampled_from([(64, 4), (16, 2), (8, 2)]),
        frames=st.integers(1, 48),
        cut=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(geometry=(64, 4), frames=5, cut=0, seed=0)
    @example(geometry=(64, 4), frames=5, cut=1, seed=0)
    def test_plan_reuse_when_frames_overlap_themselves(self, geometry, frames, cut, seed):
        # lengths 1..3L, a multiple of the hop at cut 0; at T < (L - hop) / hop the
        # tail outgrows a period, so the fold takes several steps. A forward after
        # an adjoint re-zeroes the padding the adjoint wrote
        win_len, hop = geometry
        config = StftConfig(win_len, hop)
        n = hop * min(frames, 3 * win_len // hop) - cut % hop
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=n)
        plan = StftPlan(config, n)
        data = rng.normal(size=(plan.n_frames, config.n_bins)) * (1 - 1j)
        for sweep, arg in (("forward", x), ("adjoint", data), ("forward", y)):
            got = getattr(plan, sweep)(arg)
            assert got.tobytes() == getattr(StftPlan(config, n), sweep)(arg).tobytes()
        assert np.max(np.abs(plan.adjoint(plan.forward(x)) - x)) <= 1e-13


def block_rows(config):
    """The plan's frame-block size once a signal spans more than one block."""
    return StftPlan(config, config.hop * (1 << 16)).block


def assert_plan_bytes(plan, x, data):
    """Forward (both windows) and adjoint of ``plan`` equal the references byte
    for byte, sign bits of zeros included."""
    config, n = plan.config, plan.n_samples
    for window in (config.window, config.deriv_window):
        got = plan.forward(x, window)
        assert got.tobytes() == reference_forward(x, config, window).tobytes()
    assert plan.adjoint(data).tobytes() == reference_adjoint(data, config, n).tobytes()


class TestFrameBlocks:
    """Transforms that cross frame-block boundaries; B is read from the plan."""

    # (4096, 64) frames overlap themselves (n_pad < L) at every T below
    GEOMETRIES = [(1024, 256), (4096, 1024), (4096, 64)]

    @pytest.mark.parametrize("win_len, hop", GEOMETRIES)
    @pytest.mark.parametrize("frames", ["B-1", "B", "B+1", "2B+1"])
    def test_bit_identical_to_reference(self, rng, win_len, hop, frames):
        config = StftConfig(win_len, hop)
        b = block_rows(config)
        n_frames = {"B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[frames]
        n = hop * n_frames - 3  # a short last frame
        plan = StftPlan(config, n)
        assert plan.n_frames == n_frames
        assert (plan.n_pad < win_len) == (hop == 64)
        data = rng.normal(size=(n_frames, config.n_bins)) * (1 - 2j)
        assert_plan_bytes(plan, rng.normal(size=n), data)

    def test_block_from_bin_count(self):
        # 2**15 coefficients per block, capped at the frame count
        assert block_rows(StftConfig(4096, 1024)) == 15
        assert block_rows(StftConfig(1024, 256)) == 63
        assert StftPlan(StftConfig(1024, 256), 256 * 10).block == 10

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        blocks=st.floats(min_value=0.0, max_value=3.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_reuse_across_lengths(self, geometry, blocks, seed):
        # any length up to 3.5 blocks, twice through one plan
        win_len, hop = geometry
        config = StftConfig(win_len, hop)
        n = max(1, int(blocks * block_rows(config) * hop))
        rng = np.random.default_rng(seed)
        plan = StftPlan(config, n)
        for _ in range(2):
            data = rng.normal(size=(plan.n_frames, config.n_bins)) * (1 + 1j)
            assert_plan_bytes(plan, rng.normal(size=n), data)


class TestLanes:
    """Frame lanes run in parallel and change no bit of either transform."""

    GEOMETRIES = [(4096, 1024), (1024, 256), (4096, 64)]

    @staticmethod
    def frame_counts(config):
        # one 2-lane and one 3-lane block +-1 frame, and an odd count of
        # several blocks per lane
        b = block_rows(config)
        return sorted({-(-b // 2) - 1, -(-b // 2) + 1, -(-b // 3) - 1, -(-b // 3) + 1,
                       2 * b + 3})

    @pytest.mark.parametrize("win_len, hop", GEOMETRIES)
    def test_bytes_equal_across_lane_counts(self, rng, force_lanes, short_switch, win_len, hop):
        config = StftConfig(win_len, hop)
        for n_frames in self.frame_counts(config):
            n = hop * n_frames - 3  # a short last frame
            x = rng.normal(size=n)
            data = rng.normal(size=(n_frames, config.n_bins)) * (1 - 2j)
            got = {}
            for lanes in (1, 2, 3):
                force_lanes(lanes)
                plan = StftPlan(config, n)
                assert len(plan.lanes) == min(lanes, n_frames)
                got[lanes] = [plan.forward(x, w).tobytes()
                              for w in (config.window, config.deriv_window)]
                got[lanes].append(plan.adjoint(data).tobytes())
            assert got[2] == got[1] and got[3] == got[1], n_frames

    @pytest.mark.parametrize("win_len, hop", GEOMETRIES)
    def test_blocks_arrive_with_the_frame_before(self, rng, force_lanes, short_switch,
                                                 win_len, hop):
        # a callback's read-only rows hold frames t0-1..t1-1 of the whole-array
        # transform, zeros before frame 0, however the frames split into lanes
        config = StftConfig(win_len, hop)
        for n_frames in self.frame_counts(config):
            n = hop * n_frames - 3
            x = rng.normal(size=n)
            want = StftPlan(config, n).forward(x)
            before = np.vstack((np.zeros((1, config.n_bins)), want))  # row t is frame t-1
            for lanes in (1, 2, 3):
                force_lanes(lanes)
                plan = StftPlan(config, n)
                rows = plan.block_rows()
                seen = []

                def block(lane, t0, t1, coeffs):
                    assert not coeffs.flags.writeable and np.shares_memory(coeffs, rows)
                    seen.append((t0, t1))
                    assert coeffs.tobytes() == before[t0 : t1 + 1].tobytes(), (t0, t1)

                plan.forward_blocks(x, block, rows)
                assert sorted(seen)[0][0] == 0 and sum(t1 - t0 for t0, t1 in seen) == n_frames

    def test_adjoint_lanes_read_their_halo_last(self, force_lanes):
        # at 4096/64 a halo is 63 frames: here it spans two lanes and several
        # lane blocks; each lane asks for its own blocks, then for the frames
        # before it, both last to first in blocks of at most lane_block rows
        config = StftConfig(4096, 64)
        force_lanes(3)
        plan = StftPlan(config, 64 * 90)
        parts = config.win_len // config.hop
        assert plan.lanes == [(0, 30), (30, 60), (60, 90)] and plan.lane_block == 5
        data = np.ones((plan.n_frames, config.n_bins))
        asked = {lane: [] for lane in range(3)}

        def coeffs(lane, t0, t1):
            asked[lane].append((t0, t1))
            return data[t0:t1]

        plan.adjoint_blocks(coeffs)
        for lane, (start, stop) in enumerate(plan.lanes):
            halo_start = max(0, start - parts + 1)
            n_own = len(plan._blocks(lane))
            own, halo = asked[lane][:n_own], asked[lane][n_own:]
            assert own == plan._blocks(lane)[::-1], lane
            for part, first, end in ((own, start, stop), (halo, halo_start, start)):
                assert all(0 < t1 - t0 <= plan.lane_block for t0, t1 in part)
                assert [t for t0, t1 in part[::-1] for t in range(t0, t1)] == list(
                    range(first, end)), lane
        assert asked[2][-1] == (0, 5)  # lane 2's halo reaches into lane 0

    def test_lane_count_rule(self, monkeypatch):
        # one lane per usable core, at most two, each of at least two frame
        # blocks of B = 15 rows, so a lane block never falls below ceil(B / 2)
        import os

        config = StftConfig(4096, 1024)

        def lanes(n_frames):
            plan = StftPlan(config, 1024 * n_frames)
            starts = [t0 for t0, _ in plan.lanes]
            stops = [t1 for _, t1 in plan.lanes]
            assert starts[0] == 0 and stops[-1] == n_frames and starts[1:] == stops[:-1]
            assert plan.lane_block == -(-plan.block // len(plan.lanes))
            return len(plan.lanes)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert [lanes(t) for t in (1, 29, 59, 60, 200)] == [1, 1, 1, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        assert [lanes(t) for t in (59, 60, 90, 1292)] == [1, 2, 2, 2]
        assert StftPlan(config, 1024 * 1292).lane_block == 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert lanes(200) == 1
        # without affinity masks the core count stands in
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert lanes(200) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert lanes(200) == 2

    def test_plan_holds_only_sample_domain_scratch(self, force_lanes):
        # a plan allocates its signal buffer and its real block scratch, and no
        # coefficient rows: those belong to the caller
        import tracemalloc

        config = StftConfig(4096, 1024)
        force_lanes(2)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            plan = StftPlan(config, 1024 * 216)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(plan.lanes) == 2
        buffers = plan._pad.nbytes + plan._real.nbytes
        assert peak - entry <= buffers + 8192  # and a few KB of Python objects

    def test_lane_zero_runs_on_the_calling_thread(self, monkeypatch, force_lanes, rng):
        # the caller also runs every lane no worker has started when its own is
        # done, and a single lane never touches the pool
        import threading
        from concurrent.futures import Future

        import hpss.stft

        class Stalled:
            """A pool whose workers never start a lane."""

            submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                return Future()

        config = StftConfig(1024, 256)
        n = 256 * 40
        x = rng.normal(size=n)
        data = rng.normal(size=(40, config.n_bins)) * (1 + 1j)
        plan = StftPlan(config, n)
        want = plan.forward(x).tobytes(), plan.adjoint(data).tobytes()
        caller = threading.get_ident()
        for lanes in (1, 2, 3):
            force_lanes(lanes)
            pool = Stalled()
            monkeypatch.setattr(hpss.stft, "_lane_pool", lambda: pool)
            plan = StftPlan(config, n)
            threads = {}
            plan.forward_blocks(
                x, lambda lane, t0, t1, coeffs: threads.setdefault(lane, threading.get_ident()),
                plan.block_rows())
            assert threads == dict.fromkeys(range(lanes), caller)
            assert pool.submitted == lanes - 1
            assert (plan.forward(x).tobytes(), plan.adjoint(data).tobytes()) == want

    def test_workers_run_the_other_lanes(self, force_lanes, rng):
        # lane 0 waits until lane 1 has started, which only a worker can do
        # while this thread waits
        import threading

        config = StftConfig(1024, 256)
        n = 256 * 40
        force_lanes(2)
        threads = {}
        started = threading.Event()

        def block(lane, t0, t1, coeffs):
            threads.setdefault(lane, threading.get_ident())
            if lane == 1:
                started.set()
            else:
                assert started.wait(timeout=10.0)

        plan = StftPlan(config, n)
        plan.forward_blocks(rng.normal(size=n), block, plan.block_rows())
        assert threads[0] == threading.get_ident() != threads[1]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_lane_exception_after_every_lane_stopped(self, force_lanes, rng, failing):
        # a lane's exception reaches the caller once the other lane has run all
        # its blocks (in the adjoint, those of its halo too), and the plan then
        # transforms as a fresh one does
        import time

        config = StftConfig(1024, 256)
        n = 256 * 100 - 5
        force_lanes(2)
        plan = StftPlan(config, n)
        x = rng.normal(size=n)
        data = rng.normal(size=(plan.n_frames, config.n_bins)) * (1 + 1j)
        other = 1 - failing
        want = {"forward": plan._blocks(other), "adjoint": plan._blocks(other)}
        if other == 1:  # lane 1's adjoint halo: the L/hop - 1 = 3 frames before it
            start = plan.lanes[1][0]
            want["adjoint"] = sorted(want["adjoint"] + [(start - 3, start)])

        for sweep in ("forward", "adjoint"):
            seen = []

            def visit(lane, t0, t1):
                if lane == failing:
                    raise RuntimeError(f"lane {lane}")
                time.sleep(0.01)
                seen.append((t0, t1))
                return data[t0:t1]

            with pytest.raises(RuntimeError, match=f"^lane {failing}$"):
                if sweep == "forward":
                    plan.forward_blocks(x, lambda lane, t0, t1, coeffs: visit(lane, t0, t1),
                                        plan.block_rows())
                else:
                    plan.adjoint_blocks(visit)
            assert sorted(seen) == want[sweep], sweep
            fresh = StftPlan(config, n)
            assert plan.forward(x).tobytes() == fresh.forward(x).tobytes()
            assert plan.adjoint(data).tobytes() == fresh.adjoint(data).tobytes()


class TestDump:
    def test_round_trip_keeps_every_bit(self, tmp_path, small_config):
        # signed zeros in either part, subnormals and non-finite values come
        # back bit for bit, as do real dumps
        parts = [0.0, -0.0, 1.5, -2.0, 5e-324, -np.inf, np.nan]
        z = np.array([complex(a, b) for a in parts for b in parts]).reshape(7, 7)
        for data in (z, z.real.copy(), z[:1]):
            path = tmp_path / "d.bin"
            write_dump(path, data, small_config)
            got, _ = read_dump(path)
            assert got.dtype == data.dtype and got.flags.c_contiguous and got.flags.writeable
            assert got.tobytes() == data.tobytes()

    def test_round_trip(self, tmp_path, small_config, rng):
        spec = forward(rng.normal(size=500), small_config)
        path = tmp_path / "spec.bin"
        write_dump(path, spec.data, small_config)
        data, (k, t, win_len, hop) = read_dump(path)
        assert (t, k) == spec.shape
        assert (win_len, hop) == (64, 16)
        np.testing.assert_array_equal(data, spec.data)

    def test_golden_bytes(self, tmp_path):
        # z and v are the K x T matrices on disk; the API takes and returns T x K
        cfg = StftConfig(8, 2)
        z = np.array([[1.5 - 2j, 0.25j], [-3.0, 1e-300 + 7j]])
        v = np.array([[0.0, 1.0, 2.5], [4.0, -0.5, 3.25]])
        header = struct.pack("<QQQQ", 2, 2, 8, 2)
        re_im = struct.pack("<8d", 1.5, -2.0, 0.0, 0.25, -3.0, 0.0, 1e-300, 7.0)
        write_dump(tmp_path / "z.bin", z.T, cfg)
        assert (tmp_path / "z.bin").read_bytes() == b"HPSSSPC1" + header + re_im
        write_dump(tmp_path / "v.bin", v.T, cfg)
        assert (tmp_path / "v.bin").read_bytes() == (
            b"HPSSIFM1" + struct.pack("<QQQQ", 2, 3, 8, 2) + struct.pack("<6d", *v.ravel())
        )
        data, meta = read_dump(tmp_path / "z.bin")
        assert meta == (2, 2, 8, 2) and np.iscomplexobj(data)
        np.testing.assert_array_equal(data, z.T)
        data, meta = read_dump(tmp_path / "v.bin")
        assert meta == (2, 3, 8, 2) and not np.iscomplexobj(data)
        assert data.shape == (3, 2) and data.flags.c_contiguous
        np.testing.assert_array_equal(data, v.T)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="not a valid dump"):
            read_dump(path)

    @pytest.mark.parametrize("data", [np.ones((3, 4)) * (1 + 2j), np.ones((3, 4))],
                             ids=["complex", "real"])
    def test_truncated_payload(self, tmp_path, small_config, data):
        path = tmp_path / "cut.bin"
        write_dump(path, data, small_config)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_dump(path)
