import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from hpss import (
    HpssConfig,
    MedianConfig,
    Signal,
    Spectrogram,
    compute_weight,
    forward,
    make_config,
    median_filter_hpss,
    mf_separate,
)
from hpss.baseline import _median_network, _median_shrink
from hpss.synth import bench_corpus, criterion_mixture

from conftest import sine_signal


def spec_from(data, config, n):
    return Spectrogram(data=data, config=config, n_samples=n)


def shrink_median_oracle(mag, kernel, axis):
    """Direct per-element median over the in-bounds window."""
    out = np.empty_like(mag)
    half = kernel // 2
    for i in range(mag.shape[0]):
        for j in range(mag.shape[1]):
            if axis == 1:
                lo, hi = max(0, j - half), min(mag.shape[1], j + half + 1)
                out[i, j] = np.median(mag[i, lo:hi])
            else:
                lo, hi = max(0, i - half), min(mag.shape[0], i + half + 1)
                out[i, j] = np.median(mag[lo:hi, j])
    return out


def scipy_median_shrink(mag, kernel, axis):
    """The scipy.ndimage implementation that the selection network replaced."""
    size = (1, kernel) if axis == 1 else (kernel, 1)
    out = median_filter(mag, size=size, mode="nearest")
    half = kernel // 2
    n = mag.shape[axis]
    for i in range(min(half, n)):
        lo = np.median(mag.take(range(0, min(i + half + 1, n)), axis=axis), axis=axis)
        hi = np.median(mag.take(range(max(n - 1 - i - half, 0), n), axis=axis), axis=axis)
        if axis == 1:
            out[:, i] = lo
            out[:, n - 1 - i] = hi
        else:
            out[i, :] = lo
            out[n - 1 - i, :] = hi
    return out


def wiener_mask_formula(h_mag, p_mag, peak, power):
    """(h/s)^p / ((h/s)^p + (p/s)^p) for s = peak (1 for silence), 0.5 where 0/0."""
    s = peak if peak > 0.0 else 1.0
    num = (h_mag / s) ** power
    den = num + (p_mag / s) ** power
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.5)


@st.composite
def magnitudes(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    kind = draw(st.sampled_from(["ties", "uniform", "zeros", "wide"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(0, 3, size=shape).astype(float)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, size=shape)
    if kind == "zeros":
        return np.zeros(shape)
    return 10.0 ** rng.uniform(-300.0, 300.0, size=shape)


class TestMedianFilter:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MedianConfig(harm_kernel=4)
        with pytest.raises(ValueError):
            MedianConfig(mask_power=0.5)

    def test_shrink_window_matches_oracle(self, rng):
        for shape, kernel in (((12, 15), 5), ((3, 2), 17)):
            mag = rng.uniform(0, 1, size=shape)
            for axis in (0, 1):
                ours = _median_shrink(mag, kernel, axis)
                np.testing.assert_array_equal(ours, shrink_median_oracle(mag, kernel, axis))

    @settings(deadline=None, max_examples=200)
    @given(
        mag=magnitudes(),
        kernel=st.one_of(st.integers(1, 16).map(lambda h: 2 * h + 1), st.just(101)),
        axis=st.sampled_from([0, 1]),
    )
    def test_shrink_equals_scipy_exactly(self, mag, kernel, axis):
        assert np.array_equal(_median_shrink(mag, kernel, axis),
                              scipy_median_shrink(mag, kernel, axis))

    @pytest.mark.parametrize("kernel", range(3, 18, 2))
    def test_network_selects_median_of_every_01_input(self, kernel):
        # by the 0-1 principle, a comparator network that selects the median
        # of every 0/1 input selects it for every input
        bits = (np.arange(1 << kernel)[:, None] >> np.arange(kernel)) & 1
        lanes = list(bits.T.astype(np.uint8))
        for i, j, use_min, use_max in _median_network(kernel):
            a, b = lanes[i], lanes[j]
            lanes[i] = np.minimum(a, b) if use_min else None
            lanes[j] = np.maximum(a, b) if use_max else None
        np.testing.assert_array_equal(lanes[kernel // 2], bits.sum(axis=1) > kernel // 2)

    def test_network_size_at_kernel_17(self):
        # merge exchange on 17 lanes has 74 comparators; 61 reach the middle
        net = _median_network(17)
        assert len(net) == 61
        assert sum(not (use_min and use_max) for _, _, use_min, use_max in net) == 16

    def test_constant_magnitude_gives_half_mask(self, small_config):
        n = 320
        data = np.full((small_config.n_bins, small_config.n_frames(n)), 2.0 + 0j)
        h, p, mask = median_filter_hpss(spec_from(data, small_config, n))
        np.testing.assert_allclose(h, 2.0)
        np.testing.assert_allclose(p, 2.0)
        np.testing.assert_allclose(mask, 0.5)

    def test_horizontal_line_marked_harmonic(self, small_config):
        # single active bin across all frames on a 9x9-ish grid
        n = 144
        shape = (small_config.n_bins, small_config.n_frames(n))
        data = np.zeros(shape, dtype=complex)
        data[12, :] = 1.0
        mc = MedianConfig(harm_kernel=9, perc_kernel=9)
        h_mag, p_mag, mask = median_filter_hpss(spec_from(data, small_config, n), mc)
        np.testing.assert_allclose(h_mag, shrink_median_oracle(np.abs(data), 9, 1))
        assert np.all(mask[12, :] >= 0.99)

    def test_vertical_line_marked_percussive(self, small_config):
        n = 144
        shape = (small_config.n_bins, small_config.n_frames(n))
        data = np.zeros(shape, dtype=complex)
        data[:, 4] = 1.0
        mc = MedianConfig(harm_kernel=9, perc_kernel=9)
        _, p_mag, mask = median_filter_hpss(spec_from(data, small_config, n), mc)
        np.testing.assert_allclose(p_mag, shrink_median_oracle(np.abs(data), 9, 0))
        assert np.all(mask[:, 4] <= 0.01)

    def test_transposition_symmetry(self, rng):
        # time-median of the transpose equals the transposed frequency-median
        mag = rng.uniform(0, 1, size=(10, 14))
        np.testing.assert_array_equal(
            _median_shrink(mag.T, 7, axis=1), _median_shrink(mag, 7, axis=0).T
        )

    @pytest.mark.parametrize("case", ["criterion-8", "corpus-track-0"])
    def test_masks_equal_scipy_reference(self, case, bench_config):
        if case == "criterion-8":
            x, config = criterion_mixture().mixture, HpssConfig().stft()
        else:
            x, config = bench_corpus(0, n_tracks=1)[0].mixture, bench_config
        spec = forward(x.samples, config)
        mc = MedianConfig()
        h_mag, p_mag, mask = median_filter_hpss(spec, mc)
        mag = np.abs(spec.data)
        h_ref = scipy_median_shrink(mag, mc.harm_kernel, axis=1)
        p_ref = scipy_median_shrink(mag, mc.perc_kernel, axis=0)
        mask_ref = wiener_mask_formula(h_ref, p_ref, mag.max(), mc.mask_power)
        np.testing.assert_array_equal(h_mag, h_ref)
        np.testing.assert_array_equal(p_mag, p_ref)
        assert mask.tobytes() == mask_ref.tobytes()

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
    def test_mask_formula_with_zero_denominators(self, small_config, rng, density):
        # sparse spectra leave both medians 0 in many bins: those get 0.5
        n = 640
        shape = (small_config.n_bins, small_config.n_frames(n))
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data[rng.uniform(size=shape) >= density] = 0.0
        mc = MedianConfig(harm_kernel=5, perc_kernel=7, mask_power=1.5)
        h_mag, p_mag, mask = median_filter_hpss(spec_from(data, small_config, n), mc)
        mask_ref = wiener_mask_formula(h_mag, p_mag, np.abs(data).max(), mc.mask_power)
        assert mask.tobytes() == mask_ref.tobytes()
        assert np.any(mask == 0.5)

    def test_mask_bounds_and_complement(self, small_config, rng):
        n = 400
        shape = (small_config.n_bins, small_config.n_frames(n))
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h_mag, p_mag, mask = median_filter_hpss(spec_from(data, small_config, n))
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)
        num = h_mag**2
        den = num + p_mag**2
        mask_p = np.where(den > 0, p_mag**2 / den, 0.5)
        np.testing.assert_allclose(mask + mask_p, 1.0)


class TestMfSeparate:
    def test_sinusoid_mostly_harmonic(self, bench_config):
        s = sine_signal(41.0, 24000, bench_config.win_len)
        pair = mf_separate(s, bench_config)
        ratio = np.sum(pair.percussive.samples**2) / np.sum(s.samples**2)
        assert ratio <= 0.1

    def test_impulse_train_mostly_percussive(self, bench_config, rng):
        n = 24000
        x = np.zeros(n)
        pos = 600
        while pos < n - 40:
            x[pos : pos + 20] += rng.normal(size=20)
            pos += int(rng.uniform(1800, 3200))
        pair = mf_separate(Signal(x, 16000), bench_config)
        ratio = np.sum(pair.harmonic.samples**2) / np.sum(x**2)
        assert ratio <= 0.2

    def test_zero_input(self, small_config):
        pair = mf_separate(np.zeros(200), small_config)
        assert np.max(np.abs(pair.harmonic.samples)) == 0.0
        assert np.max(np.abs(pair.percussive.samples)) == 0.0

    def test_sum_exact(self, bench_config, rng):
        x = rng.normal(size=5000)
        pair = mf_separate(x, bench_config)
        assert np.max(np.abs(x - pair.harmonic.samples - pair.percussive.samples)) == 0.0


@pytest.fixture(scope="module")
def corpus_mf_reference():
    x = bench_corpus(0, n_tracks=1)[0].mixture.samples
    config = make_config(1024, 256)
    return x, config, mf_separate(x, config).harmonic.samples


@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(min_value=-300.0, max_value=300.0))
def test_mf_gain_equivariance_extreme_gains(corpus_mf_reference, exponent):
    # the mask sees magnitudes over their peak, so no gain overflows or flattens it
    x, config, ref_h = corpus_mf_reference
    gain = 10.0**exponent
    scaled = gain * x
    pair = mf_separate(scaled, config)
    h, p = pair.harmonic.samples, pair.percussive.samples
    assert np.max(np.abs(scaled - h - p)) == 0.0
    assert np.max(np.abs(h - gain * ref_h)) <= 1e-12 * gain * np.max(np.abs(x))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_non_finite_parameters_rejected_by_name(value):
    with pytest.raises(ValueError, match="^mask_power must be finite"):
        MedianConfig(mask_power=value)
    with pytest.raises(ValueError, match="^kappa must be positive and finite"):
        compute_weight(np.ones((2, 2)), kappa=value)


class TestComputeWeight:
    def test_peak_bin_gets_kappa(self, rng):
        mag = rng.uniform(0.1, 0.9, size=(6, 6))
        mag[2, 3] = 7.0  # normalized amplitude 1 at the peak
        weight = compute_weight(mag, kappa=0.001)
        assert weight[2, 3] == pytest.approx(0.001)

    def test_below_kappa_clamps_to_one(self):
        mag = np.array([[1.0, 1e-9]])
        weight = compute_weight(mag, kappa=0.001)
        assert weight[0, 1] == 1.0

    def test_monotone_in_amplitude(self, rng):
        mag = rng.uniform(0, 1, size=(8, 8))
        weight = compute_weight(mag, kappa=0.01)
        flat_m = mag.ravel()
        flat_w = weight.ravel()
        order = np.argsort(flat_m)
        assert np.all(np.diff(flat_w[order]) <= 1e-12)

    def test_scale_invariance(self, rng):
        mag = rng.uniform(0, 1, size=(5, 9))
        np.testing.assert_allclose(
            compute_weight(mag, 0.001), compute_weight(31.4 * mag, 0.001)
        )

    def test_degenerate_all_zero(self):
        weight = compute_weight(np.zeros((4, 4)))
        np.testing.assert_array_equal(weight, 1.0)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            compute_weight(np.ones((2, 2)), kappa=0.0)
