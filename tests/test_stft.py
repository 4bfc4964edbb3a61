import struct

import numpy as np
import pytest

from hpss import Signal, Spectrogram, adjoint, forward, make_config
from hpss.stft import StftConfig, StftPlan, read_dump, write_dump

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
    out = np.zeros((k, n_frames), dtype=complex)
    for tau in range(n_frames):
        for omega in range(k):
            acc = 0.0 + 0.0j
            for l in range(win_len):
                acc += (
                    y[(hop * tau - win_len // 2 + l) % n_pad]
                    * config.window[l]
                    * np.exp(-2j * np.pi * omega * l / win_len)
                )
            out[omega, tau] = acc
    return out


def reference_forward(x, config, window):
    """Roll, pad and frame the signal, then one rfft per frame (K x T)."""
    win_len, hop = config.win_len, config.hop
    n_frames = config.n_frames(x.size)
    n_pad = hop * n_frames
    y = np.zeros(n_pad)
    y[: x.size] = x
    z = np.roll(y, win_len // 2)
    idx = (hop * np.arange(n_frames)[:, None] + np.arange(win_len)[None, :]) % n_pad
    return np.fft.rfft(z[idx] * window[None, :], n=win_len, axis=1).T.copy()


def reference_adjoint(data, config, n):
    """irfft per frame, overlap-add (a scatter-add when frames self-overlap), unroll."""
    win_len, hop = config.win_len, config.hop
    n_frames = data.shape[1]
    n_pad = hop * n_frames
    u = np.fft.irfft(data.T, n=win_len, axis=1) * config.window[None, :]
    if n_pad >= win_len:
        buf = np.zeros(n_pad + win_len)
        for j in range(win_len // hop):
            buf[j * hop : j * hop + n_pad].reshape(n_frames, hop)[...] += u[
                :, j * hop : (j + 1) * hop
            ]
        out = buf[:n_pad].copy()
        out[:win_len] += buf[n_pad:]
    else:
        out = np.zeros(n_pad)
        idx = (hop * np.arange(n_frames)[:, None] + np.arange(win_len)[None, :]) % n_pad
        np.add.at(out, idx, u)
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
            make_config(63, 16)  # odd length
        with pytest.raises(ValueError):
            make_config(64, 24)  # hop does not divide
        cfg = make_config(64, 16)
        assert cfg.n_bins == 33
        assert cfg.n_frames(1000) == 63

    def test_bin_weights(self):
        cfg = make_config(8, 4)
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
        a, b = make_config(64, 16), make_config(64, 16)
        assert a == b and hash(a) == hash(b)
        assert a != make_config(64, 32)
        assert len({a, b, make_config(64, 32)}) == 2
        assert repr(a) == "StftConfig(win_len=64, hop=16)"


class TestForward:
    def test_impulse_flat_spectrum(self):
        # impulse at the center of frame 0: flat magnitude for any window
        cfg = make_config(16, 4)
        x = np.zeros(16)
        x[0] = 1.0
        spec = forward(x, cfg)
        mags = np.abs(spec.data[:, 0])
        np.testing.assert_allclose(mags, mags[0])
        assert mags[0] > 0

    def test_on_bin_sinusoid_peak_row(self, bench_config):
        s = sine_signal(100.0, 16000, bench_config.win_len)
        spec = forward(s, bench_config)
        interior = np.abs(spec.data[:, 5:-5])
        assert np.all(np.argmax(interior, axis=0) == 100)

    def test_matches_naive_dft(self, rng):
        cfg = make_config(16, 4)
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
        cfg = make_config(64, 16)
        for n in (17, 64, 777, 5000):
            x = rng.normal(size=n)
            xr = adjoint(forward(x, cfg))
            assert np.linalg.norm(xr - x) <= 1e-10 * np.linalg.norm(x)

    def test_adjoint_identity(self, rng, small_config):
        cfg = small_config
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=400)
            spec = forward(x, cfg)
            y = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
            yspec = spec.with_data(y)
            lhs = spec_inner(spec, yspec, cfg)
            rhs = float(np.dot(x, adjoint(yspec)))
            denom = np.linalg.norm(x) * spec_norm(yspec, cfg)
            worst = max(worst, abs(lhs - rhs) / denom)
        assert worst <= 1e-8

    def test_zero_spectrogram(self, small_config):
        spec = forward(np.zeros(100), small_config)
        np.testing.assert_array_equal(adjoint(spec), np.zeros(100))

    def test_parseval(self, rng, small_config):
        x = rng.normal(size=1234)
        spec = forward(x, small_config)
        energy = spec_inner(spec, spec, small_config)
        assert abs(energy - np.dot(x, x)) <= 1e-8 * np.dot(x, x)

    def test_shape_mismatch(self, small_config, rng):
        spec = forward(rng.normal(size=100), small_config)
        with pytest.raises(ValueError):
            Spectrogram(spec.data[:, :-1], small_config, 100)


class TestFrameMajorKernel:
    LENGTHS = (1, 5, 15, 16, 17, 40, 63, 64, 65, 100, 777)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bit_identical_to_reference(self, small_config, rng, n):
        x = rng.normal(size=n)
        for window in (small_config.window, small_config.deriv_window):
            np.testing.assert_array_equal(
                forward(x, small_config, window=window).data,
                reference_forward(x, small_config, window),
            )
        y = forward(x, small_config)
        data = rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape)
        np.testing.assert_array_equal(
            adjoint(y.with_data(data)), reference_adjoint(data, small_config, n)
        )

    @pytest.mark.parametrize("n", (5, 40, 777))
    def test_plan_reuse_is_stateless(self, small_config, rng, n):
        plan = StftPlan(small_config, n)
        for _ in range(3):
            x = rng.normal(size=n)
            np.testing.assert_array_equal(
                plan.forward(x).T, reference_forward(x, small_config, small_config.window)
            )
            data = rng.normal(size=(plan.n_frames, small_config.n_bins)) * (1 + 1j)
            np.testing.assert_array_equal(
                plan.adjoint(data), reference_adjoint(data.T, small_config, n)
            )


class TestDump:
    def test_round_trip(self, tmp_path, small_config, rng):
        spec = forward(rng.normal(size=500), small_config)
        path = tmp_path / "spec.bin"
        write_dump(path, spec.data, small_config)
        data, (k, t, win_len, hop) = read_dump(path)
        assert (k, t) == spec.shape
        assert (win_len, hop) == (64, 16)
        np.testing.assert_array_equal(data, spec.data)

    def test_golden_bytes(self, tmp_path):
        cfg = make_config(8, 2)
        z = np.array([[1.5 - 2j, 0.25j], [-3.0, 1e-300 + 7j]])
        v = np.array([[0.0, 1.0, 2.5], [4.0, -0.5, 3.25]])
        header = struct.pack("<QQQQ", 2, 2, 8, 2)
        re_im = struct.pack("<8d", 1.5, -2.0, 0.0, 0.25, -3.0, 0.0, 1e-300, 7.0)
        write_dump(tmp_path / "z.bin", z, cfg)
        assert (tmp_path / "z.bin").read_bytes() == b"HPSSSPC1" + header + re_im
        write_dump(tmp_path / "v.bin", v, cfg)
        assert (tmp_path / "v.bin").read_bytes() == (
            b"HPSSIFM1" + struct.pack("<QQQQ", 2, 3, 8, 2) + struct.pack("<6d", *v.ravel())
        )
        data, meta = read_dump(tmp_path / "z.bin")
        assert meta == (2, 2, 8, 2) and np.iscomplexobj(data)
        np.testing.assert_array_equal(data, z)
        data, meta = read_dump(tmp_path / "v.bin")
        assert meta == (2, 3, 8, 2) and not np.iscomplexobj(data)
        np.testing.assert_array_equal(data, v)

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
