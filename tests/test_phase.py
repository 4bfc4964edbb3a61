import numpy as np
import pytest

from hpss import IfMap, Spectrogram, adjoint, build_correction, estimate_if, forward, make_config
from hpss.phase import _IF_EPS, if_from_spectra
from hpss.stft import read_dump, write_dump

from conftest import sine_signal
from reference import (
    correction_matrix,
    ipc_adjoint,
    ipc_forward,
    spec_inner,
    spec_norm,
    time_diff,
    time_diff_adj,
)


class TestEstimateIf:
    def test_on_bin_sinusoid(self):
        cfg = make_config(4096, 1024)
        s = sine_signal(100.0, 3 * 44100, 4096, rate=44100)
        v = estimate_if(s, cfg).v
        interior = slice(8, v.shape[1] - 8)
        assert np.max(np.abs(v[100, interior] - 100.0)) <= 0.01

    def test_off_bin_sinusoid(self):
        cfg = make_config(4096, 1024)
        s = sine_signal(100.37, 3 * 44100, 4096, rate=44100)
        v = estimate_if(s, cfg).v
        interior = slice(8, v.shape[1] - 8)
        for row in (99, 100, 101):  # the three bins nearest the peak
            assert np.max(np.abs(v[row, interior] - 100.37)) <= 0.02

    def test_silent_signal_guard(self, small_config):
        v = estimate_if(np.zeros(500), small_config).v
        omega = np.arange(small_config.n_bins)
        np.testing.assert_array_equal(v, np.broadcast_to(omega[:, None], v.shape))

    def test_scale_invariance(self, bench_config, rng):
        x = rng.normal(size=8000)
        v1 = estimate_if(x, bench_config).v
        v2 = estimate_if(123.0 * x, bench_config).v
        np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_clamped_range(self, bench_config, rng):
        v = estimate_if(rng.normal(size=4000), bench_config).v
        assert v.min() >= 0.0
        assert v.max() <= bench_config.win_len / 2


def substitute_and_select_if(data, data_d, config):
    """The IF map as an unguarded division: weak bins divide by a substitute 1,
    then a select puts their own frequency back."""
    mag = np.abs(data)
    peak = mag.max()
    omega = np.arange(config.n_bins, dtype=np.float64)[:, None]
    v = np.broadcast_to(omega, mag.shape).copy()
    if peak > 0.0:
        weak = mag < _IF_EPS * peak
        safe = np.where(weak, 1.0, data)
        v = np.where(weak, v, v - np.imag(data_d / safe))
    return np.clip(v, 0.0, config.win_len / 2)


class TestIfFromSpectra:
    """The guarded division equals the substitute-and-select form, byte for byte."""

    N_FRAMES = 40

    def spectra(self, config, data, data_d):
        n = config.hop * self.N_FRAMES
        return Spectrogram(data, config, n), Spectrogram(data_d, config, n)

    def check(self, config, data, data_d):
        got = if_from_spectra(*self.spectra(config, data, data_d)).v
        want = substitute_and_select_if(data, data_d, config)
        assert got.tobytes() == want.tobytes()
        return got

    def random(self, config, rng):
        shape = (config.n_bins, self.N_FRAMES)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_random_spectra(self, small_config, rng):
        for _ in range(5):
            data = self.random(small_config, rng)
            data *= 10.0 ** rng.uniform(-9, 0, size=data.shape)  # weak bins too
            self.check(small_config, data, 5.0 * self.random(small_config, rng))

    def test_bins_at_the_threshold(self, small_config, rng):
        data = 0.5 * self.random(small_config, rng) / np.sqrt(2 * small_config.n_bins)
        data[0, 0] = 4.0  # the peak
        threshold = _IF_EPS * 4.0
        data[3] = threshold  # strong
        data[4] = np.nextafter(threshold, 0.0)  # weak
        data_d = self.random(small_config, rng)
        v = self.check(small_config, data, data_d)
        strong = np.clip(3.0 - np.imag(data_d[3] / threshold), 0.0, small_config.win_len / 2)
        np.testing.assert_array_equal(v[3], strong)
        np.testing.assert_array_equal(v[4], 4.0)

    def test_zero_bins_among_strong_ones(self, small_config, rng):
        data = self.random(small_config, rng)
        zero = rng.uniform(size=data.shape) < 0.2
        data[zero] = 0.0
        v = self.check(small_config, data, self.random(small_config, rng))
        omega = np.broadcast_to(np.arange(small_config.n_bins)[:, None], v.shape)
        np.testing.assert_array_equal(v[zero], omega[zero])

    def test_all_zero_spectrum(self, small_config, rng):
        data = np.zeros((small_config.n_bins, self.N_FRAMES), dtype=complex)
        v = self.check(small_config, data, self.random(small_config, rng))
        omega = np.broadcast_to(np.arange(small_config.n_bins)[:, None], v.shape)
        np.testing.assert_array_equal(v, omega)

    def test_subnormal_bins_keep_their_frequency(self, small_config):
        # 3e-309 clears _IF_EPS times the 1e-303 peak, but its reciprocal overflows
        data = np.zeros((small_config.n_bins, self.N_FRAMES), dtype=complex)
        data[5, ::2] = 1e-303
        data[6, ::2] = 3e-309
        v = if_from_spectra(*self.spectra(small_config, data, 2j * data)).v
        np.testing.assert_array_equal(v[5, ::2], 3.0)  # 5 - Im(2j)
        v[5, ::2] = 5.0
        omega = np.broadcast_to(np.arange(small_config.n_bins)[:, None], v.shape)
        np.testing.assert_array_equal(v, omega)


class TestBuildCorrection:
    def test_zero_frequency(self, small_config):
        shape = (small_config.n_bins, 10)
        e = correction_matrix(IfMap(np.zeros(shape), small_config))
        np.testing.assert_allclose(e, 1.0)

    def test_half_turn_per_frame(self, small_config):
        # v = L / (2a) rotates by pi per frame: E = (-1)^tau
        shape = (small_config.n_bins, 8)
        v = np.full(shape, small_config.win_len / (2 * small_config.hop))
        e = correction_matrix(IfMap(v, small_config))
        expected = np.tile(np.power(-1.0, np.arange(8.0)), (shape[0], 1))
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_unit_modulus_random(self, small_config, rng):
        shape = (small_config.n_bins, 300)
        v = rng.uniform(0, small_config.win_len / 2, size=shape)
        if_map = IfMap(v, small_config)
        assert np.max(np.abs(np.abs(build_correction(if_map)) - 1.0)) <= 1e-12
        e = correction_matrix(if_map)
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 1e-12
        np.testing.assert_allclose(e[:, 0], 1.0)

    def test_e_matches_renormalized_running_product(self, small_config, rng):
        # reference: E as a running product renormalized frame by frame
        shape = (small_config.n_bins, 3000)
        v = rng.uniform(0, small_config.win_len / 2, size=shape)
        if_map = IfMap(v, small_config)
        steps, e = build_correction(if_map), correction_matrix(if_map)
        ref = np.empty(shape, dtype=np.complex128)
        ref[:, 0] = 1.0
        step = np.exp(-2j * np.pi * (small_config.hop / small_config.win_len) * v)
        for tau in range(1, shape[1]):
            nxt = ref[:, tau - 1] * step[:, tau - 1]
            ref[:, tau] = nxt / np.abs(nxt)
        np.testing.assert_array_equal(steps, step)
        assert np.max(np.abs(e - ref)) <= 1e-12
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 1e-12

    def test_if_map_validation(self, small_config):
        with pytest.raises(ValueError):
            IfMap(np.full((small_config.n_bins, 4), -1.0), small_config)
        with pytest.raises(ValueError, match="n_bins"):
            IfMap(np.zeros((small_config.n_bins + 1, 4)), small_config)


def _random_if_map(config, n_frames, rng):
    v = rng.uniform(0, config.win_len / 2, size=(config.n_bins, n_frames))
    return IfMap(v, config)


class TestIpcOperators:
    def test_identity_correction(self, small_config, rng):
        x = rng.normal(size=400)
        spec = forward(x, small_config)
        still = IfMap(np.zeros(spec.shape), small_config)  # every step is 1
        np.testing.assert_array_equal(ipc_forward(x, still).data, spec.data)
        y = spec.with_data(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
        np.testing.assert_allclose(ipc_adjoint(y, still), adjoint(y), atol=1e-14)

    def test_round_trip_identity(self, small_config, rng):
        x = rng.normal(size=700)
        n_frames = small_config.n_frames(700)
        if_map = _random_if_map(small_config, n_frames, rng)
        xr = ipc_adjoint(ipc_forward(x, if_map), if_map)
        assert np.linalg.norm(xr - x) <= 1e-10 * np.linalg.norm(x)

    def test_adjoint_identity(self, small_config, rng):
        cfg = small_config
        n = 350
        n_frames = cfg.n_frames(n)
        if_map = _random_if_map(cfg, n_frames, rng)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=n)
            spec = ipc_forward(x, if_map)
            y = spec.with_data(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
            lhs = spec_inner(spec, y, cfg)
            rhs = float(np.dot(x, ipc_adjoint(y, if_map)))
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * spec_norm(y, cfg)))
        assert worst <= 1e-8

    def test_zero_input(self, small_config, rng):
        n_frames = small_config.n_frames(100)
        if_map = _random_if_map(small_config, n_frames, rng)
        out = ipc_forward(np.zeros(100), if_map)
        np.testing.assert_array_equal(out.data, 0)

    def test_smoothness_on_sinusoid(self):
        # with its own estimated correction, the phase-corrected transform
        # of a steady tone is time-constant at the peak bin
        cfg = make_config(4096, 1024)
        s = sine_signal(100.0, 3 * 44100, 4096, rate=44100)
        spec = ipc_forward(s, estimate_if(s, cfg))
        row = spec.data[100, 8:-8]
        resid = np.abs(np.diff(row)) / np.abs(row[:-1])
        assert resid.max() <= 1e-3


class TestTimeDiff:
    def test_constant_in_time(self, rng):
        col = rng.normal(size=6) + 1j * rng.normal(size=6)
        x = np.tile(col[:, None], (1, 9))
        np.testing.assert_array_equal(time_diff(x), np.zeros_like(x))

    def test_explicit_matrix_oracle(self, rng):
        # D on T=3 is [[0,0,0],[-1,1,0],[0,-1,1]] acting on columns
        d = np.array([[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(time_diff(x), x @ d.T)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(time_diff_adj(y), y @ d)

    def test_single_column_input(self, rng):
        x = rng.normal(size=(4, 1))
        np.testing.assert_array_equal(time_diff(x), np.zeros_like(x))
        np.testing.assert_array_equal(time_diff_adj(x), np.zeros_like(x))

    def test_adjoint_identity(self, rng):
        x = rng.normal(size=(7, 11)) + 1j * rng.normal(size=(7, 11))
        y = rng.normal(size=(7, 11)) + 1j * rng.normal(size=(7, 11))
        lhs = np.sum(np.real(time_diff(x) * np.conj(y)))
        rhs = np.sum(np.real(x * np.conj(time_diff_adj(y))))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_if_dump_round_trip(tmp_path, small_config, rng):
    v = rng.uniform(0, 8, size=(small_config.n_bins, 7))
    if_map = IfMap(v, small_config)
    path = tmp_path / "if.bin"
    write_dump(path, if_map.v, if_map.config)
    data, (k, t, win_len, hop) = read_dump(path)
    assert (k, t, win_len, hop) == (small_config.n_bins, 7, 64, 16)
    np.testing.assert_array_equal(data, v)
