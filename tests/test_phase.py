from dataclasses import replace

import numpy as np
import pytest

from hpss import StftConfig, estimate_if
from hpss.phase import _IF_EPS, if_from_spectra
from hpss.stft import StftPlan, forward, read_dump, write_dump

from conftest import sine_signal
from reference import (
    correction_matrix,
    ipc_adjoint,
    ipc_forward,
    phase_steps,
    spec_inner,
    spec_norm,
    time_diff,
    time_diff_adj,
)


class TestEstimateIf:
    def test_on_bin_sinusoid(self):
        cfg = StftConfig(4096, 1024)
        s = sine_signal(100.0, 3 * 44100, 4096, rate=44100)
        v = estimate_if(s, cfg)
        interior = slice(8, v.shape[0] - 8)
        assert np.max(np.abs(v[interior, 100] - 100.0)) <= 0.01

    def test_off_bin_sinusoid(self):
        cfg = StftConfig(4096, 1024)
        s = sine_signal(100.37, 3 * 44100, 4096, rate=44100)
        v = estimate_if(s, cfg)
        interior = slice(8, v.shape[0] - 8)
        for col in (99, 100, 101):  # the three bins nearest the peak
            assert np.max(np.abs(v[interior, col] - 100.37)) <= 0.02

    def test_silent_signal_guard(self, small_config):
        v = estimate_if(np.zeros(500), small_config)
        omega = np.arange(small_config.n_bins)
        np.testing.assert_array_equal(v, np.broadcast_to(omega, v.shape))

    def test_scale_invariance(self, bench_config, rng):
        x = rng.normal(size=8000)
        v1 = estimate_if(x, bench_config)
        v2 = estimate_if(123.0 * x, bench_config)
        np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_clamped_range(self, bench_config, rng):
        v = estimate_if(rng.normal(size=4000), bench_config)
        assert v.min() >= 0.0
        assert v.max() <= bench_config.win_len / 2


def substitute_and_select_if(data, data_d, config):
    """The IF map as an unguarded division: weak bins divide by a substitute 1,
    then a select puts their own frequency back."""
    mag = np.abs(data)
    peak = mag.max()
    omega = np.arange(config.n_bins, dtype=np.float64)
    v = np.broadcast_to(omega, mag.shape).copy()
    if peak > 0.0:
        weak = mag < _IF_EPS * peak
        safe = np.where(weak, 1.0, data)
        v = np.where(weak, v, v - np.imag(data_d / safe))
    return np.clip(v, 0.0, config.win_len / 2)


class TestIfFromSpectra:
    """The guarded division equals the substitute-and-select form, byte for byte."""

    N_FRAMES = 40

    def check(self, config, data, data_d):
        got = if_from_spectra(np.abs(data), data, data_d)
        want = substitute_and_select_if(data, data_d, config)
        assert got.tobytes() == want.tobytes()
        return got

    def random(self, config, rng):
        shape = (self.N_FRAMES, config.n_bins)
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
        data[:, 3] = threshold  # strong
        data[:, 4] = np.nextafter(threshold, 0.0)  # weak
        data_d = self.random(small_config, rng)
        v = self.check(small_config, data, data_d)
        strong = np.clip(3.0 - np.imag(data_d[:, 3] / threshold), 0.0, small_config.win_len / 2)
        np.testing.assert_array_equal(v[:, 3], strong)
        np.testing.assert_array_equal(v[:, 4], 4.0)

    def test_zero_bins_among_strong_ones(self, small_config, rng):
        data = self.random(small_config, rng)
        zero = rng.uniform(size=data.shape) < 0.2
        data[zero] = 0.0
        v = self.check(small_config, data, self.random(small_config, rng))
        omega = np.broadcast_to(np.arange(small_config.n_bins), v.shape)
        np.testing.assert_array_equal(v[zero], omega[zero])

    def test_all_zero_spectrum(self, small_config, rng):
        data = np.zeros((self.N_FRAMES, small_config.n_bins), dtype=complex)
        v = self.check(small_config, data, self.random(small_config, rng))
        omega = np.broadcast_to(np.arange(small_config.n_bins), v.shape)
        np.testing.assert_array_equal(v, omega)

    @pytest.mark.parametrize("kind", ["silence", "length-1", "criterion-8"])
    def test_signals_through_the_magnitude_argument(self, kind):
        # separate hands in the |X| it keeps for the median filter; the IF is
        # estimate_if's and the substitute-and-select form's, byte for byte
        from hpss.synth import criterion_mixture

        config = StftConfig(4096, 1024) if kind == "criterion-8" else StftConfig(64, 16)
        x = {
            "silence": lambda: np.zeros(500),
            "length-1": lambda: np.array([0.3]),
            "criterion-8": lambda: criterion_mixture().mixture.samples,
        }[kind]()
        plan = StftPlan(config, x.size)
        data, data_d = plan.forward(x), plan.forward(x, config.deriv_window)
        got = self.check(config, data, data_d)
        assert got.tobytes() == estimate_if(x, config).tobytes()

    def test_subnormal_bins_keep_their_frequency(self, small_config):
        # 3e-309 clears _IF_EPS times the 1e-303 peak, but its reciprocal overflows
        data = np.zeros((self.N_FRAMES, small_config.n_bins), dtype=complex)
        data[::2, 5] = 1e-303
        data[::2, 6] = 3e-309
        v = if_from_spectra(np.abs(data), data, 2j * data)
        np.testing.assert_array_equal(v[::2, 5], 3.0)  # 5 - Im(2j)
        v[::2, 5] = 5.0
        omega = np.broadcast_to(np.arange(small_config.n_bins), v.shape)
        np.testing.assert_array_equal(v, omega)


class TestBuildCorrection:
    """The reference's phase steps s and correction matrix E (K x T, the
    model's layout) of T x K IF maps."""

    def test_zero_frequency(self, small_config):
        shape = (10, small_config.n_bins)
        e = correction_matrix(np.zeros(shape), small_config)
        np.testing.assert_allclose(e, 1.0)

    def test_half_turn_per_frame(self, small_config):
        # v = L / (2a) rotates by pi per frame: E = (-1)^tau
        shape = (8, small_config.n_bins)
        v = np.full(shape, small_config.win_len / (2 * small_config.hop))
        e = correction_matrix(v, small_config)
        expected = np.tile(np.power(-1.0, np.arange(8.0)), (small_config.n_bins, 1))
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_unit_modulus_random(self, small_config, rng):
        shape = (300, small_config.n_bins)
        v = rng.uniform(0, small_config.win_len / 2, size=shape)
        assert np.max(np.abs(np.abs(phase_steps(v, small_config)) - 1.0)) <= 1e-12
        e = correction_matrix(v, small_config)
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 1e-12
        np.testing.assert_allclose(e[:, 0], 1.0)

    def test_e_matches_renormalized_running_product(self, small_config, rng):
        # reference: E as a running product renormalized frame by frame
        shape = (small_config.n_bins, 3000)
        v = rng.uniform(0, small_config.win_len / 2, size=shape)
        steps, e = phase_steps(v.T, small_config), correction_matrix(v.T, small_config)
        ref = np.empty(shape, dtype=np.complex128)
        ref[:, 0] = 1.0
        step = np.exp(-2j * np.pi * (small_config.hop / small_config.win_len) * v)
        for tau in range(1, shape[1]):
            nxt = ref[:, tau - 1] * step[:, tau - 1]
            ref[:, tau] = nxt / np.abs(nxt)
        np.testing.assert_allclose(steps, step, rtol=0, atol=1e-15)
        assert np.max(np.abs(e - ref)) <= 1e-12
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 1e-12


def _random_if_map(config, n_frames, rng):
    return rng.uniform(0, config.win_len / 2, size=(n_frames, config.n_bins))


class TestIpcOperators:
    def test_identity_correction(self, small_config, rng):
        x = rng.normal(size=400)
        spec = forward(x, small_config)
        still = np.zeros(spec.shape)  # every step is 1
        np.testing.assert_array_equal(ipc_forward(x, still, small_config).data, spec.data)
        y = replace(spec, data=rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
        adjoint = StftPlan(small_config, x.size).adjoint
        np.testing.assert_allclose(ipc_adjoint(y, still, small_config), adjoint(y.data), atol=1e-14)

    def test_round_trip_identity(self, small_config, rng):
        x = rng.normal(size=700)
        n_frames = small_config.n_frames(700)
        v = _random_if_map(small_config, n_frames, rng)
        xr = ipc_adjoint(ipc_forward(x, v, small_config), v, small_config)
        assert np.linalg.norm(xr - x) <= 1e-10 * np.linalg.norm(x)

    def test_adjoint_identity(self, small_config, rng):
        cfg = small_config
        n = 350
        n_frames = cfg.n_frames(n)
        v = _random_if_map(cfg, n_frames, rng)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=n)
            spec = ipc_forward(x, v, cfg)
            data = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
            y = replace(spec, data=data)
            lhs = spec_inner(spec, y, cfg)
            rhs = float(np.dot(x, ipc_adjoint(y, v, cfg)))
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * spec_norm(y, cfg)))
        assert worst <= 1e-8

    def test_zero_input(self, small_config, rng):
        n_frames = small_config.n_frames(100)
        v = _random_if_map(small_config, n_frames, rng)
        out = ipc_forward(np.zeros(100), v, small_config)
        np.testing.assert_array_equal(out.data, 0)

    def test_smoothness_on_sinusoid(self):
        # with its own estimated correction, the phase-corrected transform
        # of a steady tone is time-constant at the peak bin
        cfg = StftConfig(4096, 1024)
        s = sine_signal(100.0, 3 * 44100, 4096, rate=44100)
        spec = ipc_forward(s, estimate_if(s, cfg), cfg)
        peak = spec.data[8:-8, 100]
        resid = np.abs(np.diff(peak)) / np.abs(peak[:-1])
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
    v = rng.uniform(0, 8, size=(7, small_config.n_bins))
    path = tmp_path / "if.bin"
    write_dump(path, v, small_config)
    data, (k, t, win_len, hop) = read_dump(path)
    assert (k, t, win_len, hop) == (small_config.n_bins, 7, 64, 16)
    np.testing.assert_array_equal(data, v)
