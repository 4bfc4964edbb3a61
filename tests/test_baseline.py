import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from hpss import (
    HpssConfig,
    MedianConfig,
    Signal,
    StftConfig,
    compute_weight,
    median_filter_hpss,
    mf_separate,
)
from hpss import baseline
from hpss.baseline import (
    _core_network,
    _group_medians,
    _group_size,
    _median_shrink,
    _merge_exchange,
    _network,
    _pruned_passes,
    _sort_network,
)
from hpss.stft import forward
from hpss.synth import bench_corpus, criterion_mixture

from conftest import sine_signal
from reference import reference_median_shrink, reference_selection_network


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


def medians(mag, mc):
    """The harmonic (time) and percussive (frequency) medians of ``mag``."""
    return _median_shrink(mag, mc.harm_kernel, axis=0), _median_shrink(mag, mc.perc_kernel, axis=1)


def _passes(net):
    """np.minimum/np.maximum calls that a built network makes per output lane."""
    return sum(use_min + use_max for _, _, use_min, use_max in net)


def passes_per_output(kernel, g):
    """Min/max passes per median in groups of g: one core per group, then per
    window a sort of its g - 1 other samples and a 2(g - 1)-pass merge."""
    extras = _passes(_sort_network(g - 1)) + 2 * (g - 1)
    return (_passes(_core_network(kernel, g)) + g * extras) / g


def wiener_mask_formula(h_mag, p_mag, peak):
    """(h/s)^2 / ((h/s)^2 + (p/s)^2) for s = peak (1 for silence), 0.5 where 0/0."""
    s = peak if peak > 0.0 else 1.0
    num = (h_mag / s) ** 2.0
    den = num + (p_mag / s) ** 2.0
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
            MedianConfig(perc_kernel=1)

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
        # by the 0-1 principle, min/max circuits that select the median of
        # every 0/1 input select it for every input: here every window of a
        # group of g, for each g up to the one the kernel takes (g = 1 is the
        # network of the m mod g windows left over)
        for g in range(1, _group_size(kernel) + 1):
            n = kernel + g - 1
            samples = [(np.arange(1 << n) >> i & 1).astype(np.uint8) for i in range(n)]
            for j, median in enumerate(_group_medians(samples.__getitem__, kernel, g)):
                ones = sum(samples[j:j + kernel])
                np.testing.assert_array_equal(median, ones > kernel // 2, err_msg=f"g={g} j={j}")

    def test_network_size_at_kernel_17(self):
        # four windows share 14 samples, sorted down to their 4 middle ranks;
        # each window sorts its own 3 samples and merges them with those ranks
        # in 6 passes: 33 min/max passes per median, against 106 for one
        # window alone
        assert _group_size(17) == 4
        core = _core_network(17, 4)
        assert (len(core), _passes(core)) == (47, 84)
        extras = _sort_network(3)
        assert (len(extras), _passes(extras)) == (3, 6)
        assert passes_per_output(17, 4) == (84 + 4 * (6 + 6)) / 4 == 33
        # merge exchange on 17 lanes has 74 comparators; 61 reach the middle
        single = _core_network(17, 1)
        assert (len(single), _passes(single)) == (61, 106)

    def test_group_sizes(self):
        assert {k: _group_size(k) for k in (3, 17, 101, 111, 121, 139, 141, 201, 501, 1001)} == {
            3: 2, 17: 4, 101: 11, 111: 13, 121: 13, 139: 13, 141: 14, 201: 17, 501: 29, 1001: 37}

    def test_merge_exchange_rounds_touch_disjoint_lanes(self):
        # which lets _pruned_rounds settle a whole round at once
        for n in (*range(2, 300), 511, 512, 513, 999, 1000):
            for i, d in _merge_exchange(n):
                lanes = np.concatenate((i, i + d))
                assert np.unique(lanes).size == lanes.size, (n, d)

    @pytest.mark.parametrize("n", [*range(0, 40), 64, 65, 100, 257])
    def test_pruned_passes_count_the_built_network(self, n):
        # pruned round by round, the network equals the one pruned comparator
        # by comparator, and the passes counted equal those it makes: sorting,
        # the middle ranks, and one lane
        half = n // 2
        for lanes in (range(n), range(max(half - 3, 0), min(half + 1, n)), [half] if n else []):
            net = _network(n, lanes)
            assert net == reference_selection_network(n, lanes)
            assert _pruned_passes(n, lanes) == _passes(net)

    @pytest.mark.parametrize("kernel", [3, 5, 17, 101])
    def test_shrink_equals_per_window_reference(self, kernel, rng):
        # m full windows from none to two groups and every remainder
        g = _group_size(kernel)
        for m in range(2 * g + 2):
            n = m + 2 * (kernel // 2)
            for mag in (rng.uniform(size=(n, 6)), rng.integers(0, 3, size=(n, 6)).astype(float)):
                for axis, a in ((0, mag), (1, np.ascontiguousarray(mag.T))):
                    assert np.array_equal(_median_shrink(a, kernel, axis),
                                          reference_median_shrink(a, kernel, axis)), (m, axis)

    @pytest.mark.parametrize("kernel", [3, 5, 17, 31, 131])
    def test_edge_windows_equal_np_median_reference(self, kernel, rng):
        # every length from 1 to 2k + 1: inputs shorter than half a kernel,
        # edge windows that overlap, and the first full windows; magnitudes
        # with ties, zeros and +inf. The long kernel's lengths are sampled,
        # keeping those where the edges start to overlap or to leave a gap
        half = kernel // 2
        lengths = range(1, 2 * kernel + 2)
        if kernel > 31:
            lengths = sorted({*lengths[::13], half, half + 1, half + 2, kernel - 1,
                              kernel, kernel + 1, 2 * kernel + 1})
        for n in lengths:
            ties = rng.integers(0, 3, size=(n, 3)).astype(float)
            ties[ties == 2.0] = np.inf
            for mag in (rng.uniform(size=(n, 3)), ties, np.zeros((n, 3))):
                for axis, a in ((0, mag), (1, np.ascontiguousarray(mag.T))):
                    assert (_median_shrink(a, kernel, axis).tobytes()
                            == reference_median_shrink(a, kernel, axis).tobytes()), (n, axis)

    def test_mf_separation_calls_no_np_median(self, bench_config, monkeypatch):
        # at the default kernel 17 every edge window goes through the networks,
        # also on fewer frames than half a kernel (T = 5) and where the two
        # edges meet with no full window between them (T = 16)
        x = bench_corpus(0, n_tracks=1)[0].mixture.samples

        def no_median(*args, **kwargs):
            raise AssertionError("np.median called")

        monkeypatch.setattr(np, "median", no_median)
        for n in (1280, 4096, x.size):
            mf_separate(x[:n], bench_config)

    def test_large_kernel_group_is_bounded(self, rng, monkeypatch):
        # the group size grows with the kernel past 13, each at fewer passes
        # per output than g = 13 takes; a 501-sample kernel with one group,
        # two and a remainder still equals the per-window reference on both axes
        for kernel, g in ((201, 17), (501, 29), (1001, 37)):
            assert _group_size(kernel) == g
            assert passes_per_output(kernel, g) < passes_per_output(kernel, 13)
        g = _group_size(501)
        for m in (2, g, g + 1, 2 * g + 1):
            mag = rng.uniform(size=(500 + m, 3))
            for axis, a in ((0, mag), (1, np.ascontiguousarray(mag.T))):
                assert np.array_equal(_median_shrink(a, 501, axis),
                                      reference_median_shrink(a, 501, axis)), (m, axis)
        # fewer than two full windows, a kernel longer than the input
        # among them, take no group and so search for none
        monkeypatch.setattr(baseline, "_group_size", None)
        for n in (10, 500, 501):
            mag = rng.uniform(size=(n, 3))
            for axis, a in ((0, mag), (1, np.ascontiguousarray(mag.T))):
                assert np.array_equal(_median_shrink(a, 501, axis),
                                      reference_median_shrink(a, 501, axis)), (n, axis)

    def test_mask_bytes_equal_per_window_reference(self, monkeypatch):
        spec = forward(criterion_mixture().mixture.samples, HpssConfig().stft()).data
        mag = np.abs(spec)
        mask = median_filter_hpss(mag)
        monkeypatch.setattr(baseline, "_median_shrink", reference_median_shrink)
        assert median_filter_hpss(mag).tobytes() == mask.tobytes()

    def test_returns_the_mask_alone(self, small_config, rng):
        shape = (small_config.n_frames(400), small_config.n_bins)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mask = median_filter_hpss(np.abs(data))
        assert isinstance(mask, np.ndarray)
        assert mask.shape == shape and mask.dtype == np.float64
        assert mask.flags.c_contiguous

    def test_constant_magnitude_gives_half_mask(self, small_config):
        n = 320
        data = np.full((small_config.n_frames(n), small_config.n_bins), 2.0 + 0j)
        mc = MedianConfig()
        for median in medians(np.abs(data), mc):
            np.testing.assert_allclose(median, 2.0)
        np.testing.assert_allclose(median_filter_hpss(np.abs(data), mc), 0.5)

    def test_horizontal_line_marked_harmonic(self, small_config):
        # single active bin across all frames on a 9x9-ish grid
        n = 144
        shape = (small_config.n_frames(n), small_config.n_bins)
        data = np.zeros(shape, dtype=complex)
        data[:, 12] = 1.0
        mc = MedianConfig(harm_kernel=9, perc_kernel=9)
        mag = np.abs(data)
        np.testing.assert_allclose(_median_shrink(mag, 9, axis=0), shrink_median_oracle(mag, 9, 0))
        mask = median_filter_hpss(mag, mc)
        assert np.all(mask[:, 12] >= 0.99)

    def test_vertical_line_marked_percussive(self, small_config):
        n = 144
        shape = (small_config.n_frames(n), small_config.n_bins)
        data = np.zeros(shape, dtype=complex)
        data[4, :] = 1.0
        mc = MedianConfig(harm_kernel=9, perc_kernel=9)
        mag = np.abs(data)
        np.testing.assert_allclose(_median_shrink(mag, 9, axis=1), shrink_median_oracle(mag, 9, 1))
        mask = median_filter_hpss(mag, mc)
        assert np.all(mask[4, :] <= 0.01)

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
        mag = np.abs(spec.data)
        h_ref = scipy_median_shrink(mag, mc.harm_kernel, axis=0)
        p_ref = scipy_median_shrink(mag, mc.perc_kernel, axis=1)
        h_mag, p_mag = medians(mag, mc)
        np.testing.assert_array_equal(h_mag, h_ref)
        np.testing.assert_array_equal(p_mag, p_ref)
        mask_ref = wiener_mask_formula(h_ref, p_ref, mag.max())
        assert median_filter_hpss(mag, mc).tobytes() == mask_ref.tobytes()

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
    def test_mask_formula_with_zero_denominators(self, small_config, rng, density):
        # sparse spectra leave both medians 0 in many bins: those get 0.5
        n = 640
        shape = (small_config.n_frames(n), small_config.n_bins)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data[rng.uniform(size=shape) >= density] = 0.0
        mc = MedianConfig(harm_kernel=5, perc_kernel=7)
        mag = np.abs(data)
        mask = median_filter_hpss(mag, mc)
        mask_ref = wiener_mask_formula(*medians(mag, mc), mag.max())
        assert mask.tobytes() == mask_ref.tobytes()
        assert np.any(mask == 0.5)

    def test_mask_bounds_and_complement(self, small_config, rng):
        n = 400
        shape = (small_config.n_frames(n), small_config.n_bins)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mc = MedianConfig()
        mag = np.abs(data)
        h_mag, p_mag = medians(mag, mc)
        mask = median_filter_hpss(mag, mc)
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

    def test_peak_memory_budget(self):
        # traced peak of mf_separate above its entry, in T x K complex128 arrays,
        # on 10 s at 4096/1024: the median filter sets it with the two medians
        # that hold the mask, beside the transform and the one plan's buffers
        import tracemalloc

        from hpss.synth import bench_track

        x = bench_track(np.random.default_rng(0), 44100, 10.0).mixture
        config = StftConfig(4096, 1024)
        unit = config.n_bins * config.n_frames(x.samples.size) * 16
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            mf_separate(x, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / unit <= 2.97  # measured 2.95 (2 lanes)


@pytest.fixture(scope="module")
def corpus_mf_reference():
    x = bench_corpus(0, n_tracks=1)[0].mixture.samples
    config = StftConfig(1024, 256)
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
    with pytest.raises(ValueError, match="^kappa must be positive and finite"):
        compute_weight(np.ones((2, 2)), kappa=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0], ids=str)
@pytest.mark.parametrize("func, what", [(median_filter_hpss, "magnitudes |X|"),
                                        (compute_weight, "pre-estimate magnitudes")],
                         ids=["median_filter_hpss", "compute_weight"])
def test_bad_magnitudes_rejected(func, what, value):
    # a NaN or inf would reach every output through the peak, and a negative
    # entry is no magnitude (compute_weight would give it full smoothing);
    # nested lists are checked as the array they make
    mag = np.ones((20, 20))
    mag[7, 11] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (mag, mag.tolist()):
            with pytest.raises(ValueError,
                               match=rf"^{re.escape(what)} must be finite and non-negative"):
                func(arg)


def test_complex_input_rejected():
    # both take magnitudes: numpy would order complex entries lexicographically
    spec = np.ones((4, 5), dtype=complex)
    with pytest.raises(ValueError, match="not complex coefficients$"):
        median_filter_hpss(spec)
    with pytest.raises(ValueError, match="not complex coefficients$"):
        compute_weight(spec)


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
        # silence, of positive or negative zeros, and an empty array all
        # divide by 1 and come out kappa / kappa = 1
        for mag in (np.zeros((4, 4)), -np.zeros((3, 4)), np.zeros((0, 4))):
            weight = compute_weight(mag)
            assert weight.shape == mag.shape and weight.dtype == np.float64
            np.testing.assert_array_equal(weight, 1.0)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            compute_weight(np.ones((2, 2)), kappa=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(float("inf"), 0)],
                             ids=str)
    def test_non_finite_pre_estimate_rejected(self, value):
        # one NaN would make every weight NaN, and an inf warns on inf / inf
        pre_h = np.ones((4, 5), dtype=type(value))
        pre_h[2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pre-estimate magnitudes must be finite"):
                compute_weight(np.abs(pre_h))
