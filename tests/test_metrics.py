import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import hpss.metrics
from hpss import EvalResult, bss_eval, bss_eval_sources


def orthogonal_stems(rng, n=8000):
    # disjoint supports make the stems exactly orthogonal
    a = np.zeros(n)
    b = np.zeros(n)
    a[: n // 2] = rng.normal(size=n // 2)
    b[n // 2 :] = rng.normal(size=n // 2)
    return a, b


class TestBssEval:
    def test_perfect_estimate_scores_high(self, rng):
        ref_h, ref_p = orthogonal_stems(rng)
        res = bss_eval(ref_h, ref_p, ref_h, ref_p, filter_len=8)
        for val in (res.sdr_h, res.sir_h, res.sar_h, res.sdr_p, res.sir_p, res.sar_p):
            assert val >= 100.0

    def test_snr_construction(self, rng):
        # est = ref + noise at exactly 20 dB energy ratio, one reference,
        # single-tap projection: SDR must read back the construction
        n = 20000
        ref = rng.normal(size=n)
        noise = rng.normal(size=n)
        noise -= (noise @ ref) / (ref @ ref) * ref  # orthogonal to the target
        noise *= np.sqrt((ref @ ref) / (noise @ noise) * 10 ** (-20 / 10))
        est = ref + noise
        (sdr, _, sar) = bss_eval_sources([ref], [est], filter_len=1)[0]
        assert sdr == pytest.approx(20.0, abs=0.2)
        assert sar == pytest.approx(20.0, abs=0.2)

    def test_swapped_estimates_negative_sir(self, rng):
        ref_h, ref_p = orthogonal_stems(rng)
        res = bss_eval(ref_h, ref_p, ref_p, ref_h, filter_len=4)
        assert res.sir_h <= -20.0
        assert res.sir_p <= -20.0

    def test_gain_invariance(self, rng):
        ref_h, ref_p = orthogonal_stems(rng)
        est_h = ref_h + 0.1 * rng.normal(size=ref_h.size)
        est_p = ref_p + 0.1 * rng.normal(size=ref_p.size)
        res1 = bss_eval(ref_h, ref_p, est_h, est_p, filter_len=4)
        res2 = bss_eval(ref_h, ref_p, 5.0 * est_h, 5.0 * est_p, filter_len=4)
        assert res1.sdr_h == pytest.approx(res2.sdr_h, abs=1e-6)
        assert res1.sdr_p == pytest.approx(res2.sdr_p, abs=1e-6)

    def test_matches_closed_form_projection(self, rng):
        # filter_len=1 with orthogonal references: the projections reduce to
        # scalar least squares that can be written out directly
        ref_h, ref_p = orthogonal_stems(rng, n=4000)
        est = ref_h + 0.3 * ref_p + 0.05 * rng.normal(size=4000)
        (sdr, sir, sar) = bss_eval_sources([ref_h, ref_p], [est, est], filter_len=1)[0]

        target = (est @ ref_h) / (ref_h @ ref_h) * ref_h
        both = target + (est @ ref_p) / (ref_p @ ref_p) * ref_p
        interf = both - target
        artif = est - both
        sdr_ref = 10 * np.log10((target @ target) / np.sum((interf + artif) ** 2))
        sir_ref = 10 * np.log10((target @ target) / (interf @ interf))
        sar_ref = 10 * np.log10(np.sum((target + interf) ** 2) / (artif @ artif))
        assert sdr == pytest.approx(sdr_ref, abs=0.01)
        assert sir == pytest.approx(sir_ref, abs=0.01)
        assert sar == pytest.approx(sar_ref, abs=0.01)

    def test_averages(self, rng):
        ref_h, ref_p = orthogonal_stems(rng)
        res = bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_p, filter_len=2)
        assert res.sdr_avg == pytest.approx(0.5 * (res.sdr_h + res.sdr_p))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bss_eval_sources([np.ones(10)], [np.ones(11)], 4)
        with pytest.raises(ValueError):
            bss_eval_sources([np.ones(10)], [np.ones(10)], 0)
        with pytest.raises(ValueError):
            bss_eval_sources([], [], 4)

    def test_filter_longer_than_signals_rejected(self, rng):
        # the Gram matrix grows with the filter alone, so a filter longer
        # than the signals is refused before anything is allocated
        refs = [rng.normal(size=100), rng.normal(size=100)]
        with pytest.raises(ValueError, match="filter_len 101 exceeds the signal length"):
            bss_eval_sources(refs, refs, 101)
        assert len(bss_eval_sources(refs, refs, 100)) == 2


# The per-subset projection that bss_eval_sources replaced: each call
# transforms its references again and builds the Gram of just that subset.
def _reference_project(refs, est, flen):
    n_src = len(refs)
    n_out = est.size + flen - 1
    n_fft = int(2 ** np.ceil(np.log2(n_out)))
    ref_f = [np.fft.rfft(r, n=n_fft) for r in refs]
    est_f = np.fft.rfft(est, n=n_fft)

    def corr(a_f, b_f):
        return np.real(np.fft.irfft(a_f * np.conj(b_f), n=n_fft))

    gram = np.zeros((n_src * flen, n_src * flen))
    for i in range(n_src):
        for j in range(i + 1):
            cc = corr(ref_f[i], ref_f[j])
            block = toeplitz(np.concatenate(([cc[0]], cc[-1:-flen:-1])), r=cc[:flen])
            gram[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
            gram[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T
    rhs = np.zeros(n_src * flen)
    for i in range(n_src):
        cc = corr(ref_f[i], est_f)
        rhs[i * flen:(i + 1) * flen] = np.concatenate(([cc[0]], cc[-1:-flen:-1]))
    coeffs = np.linalg.solve(gram, rhs)
    proj = np.zeros(n_out)
    for i in range(n_src):
        filt_f = np.fft.rfft(coeffs[i * flen:(i + 1) * flen], n=n_fft)
        proj += np.real(np.fft.irfft(filt_f * ref_f[i], n=n_fft))[:n_out]
    return proj


def _scores(s_target, e_interf, e_artif):
    """SDR, SIR and SAR from the decomposition's arrays: the reference for
    the energies that the scorer reads off quadratic forms."""
    _safe_db = hpss.metrics._safe_db
    sdr = _safe_db(s_target @ s_target, (e_interf + e_artif) @ (e_interf + e_artif))
    sir = _safe_db(s_target @ s_target, e_interf @ e_interf)
    st_i = s_target + e_interf
    sar = _safe_db(st_i @ st_i, e_artif @ e_artif)
    return sdr, sir, sar


def _reference_scores(refs, ests, flen):
    out = []
    for j, est in enumerate(ests):
        s_target = _reference_project([refs[j]], est, flen)
        p_all = _reference_project(refs, est, flen) if len(refs) > 1 else s_target
        e_artif = -p_all
        e_artif[:est.size] += est
        out.append(_scores(s_target, p_all - s_target, e_artif))
    return out


class TestSingleGram:
    @pytest.mark.parametrize("n_src", [1, 2])
    @pytest.mark.parametrize("flen", [1, 8, 512])
    def test_equals_per_subset_projection(self, rng, n_src, flen):
        n = 3000
        refs = [rng.normal(size=n) for _ in range(n_src)]
        ests = [r + 0.2 * refs[0] + 0.3 * rng.normal(size=n) for r in refs]
        # the reference transforms at a power of two and projects through
        # full-length products, so the scores agree to rounding, not bit for bit
        np.testing.assert_allclose(
            bss_eval_sources(refs, ests, flen), _reference_scores(refs, ests, flen),
            rtol=0, atol=1e-9,
        )

    def test_one_toeplitz_per_reference_pair(self, rng, monkeypatch):
        calls = []
        toeplitz_view = hpss.metrics._toeplitz

        def counting(lags, flen):
            calls.append(1)
            return toeplitz_view(lags, flen)

        monkeypatch.setattr(hpss.metrics, "_toeplitz", counting)
        ref_h, ref_p = orthogonal_stems(rng, n=2000)
        bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_p, filter_len=8)
        assert len(calls) == 3  # n_src (n_src + 1) / 2

    @pytest.mark.parametrize("flen", [1, 2, 8, 512])
    def test_gram_blocks_equal_scipy_toeplitz(self, rng, monkeypatch, flen):
        # the joint Gram that bss_eval solves equals, byte for byte, the one
        # assembled from scipy's Toeplitz blocks of the same lags
        seen = []

        def spy(fn):
            def wrapper(*args):
                seen.append((args, fn(*args)))
                return seen[-1][1]
            return wrapper

        for name in ("_block_correlations", "_solve"):
            monkeypatch.setattr(hpss.metrics, name, spy(getattr(hpss.metrics, name)))
        ref_h, ref_p = orthogonal_stems(rng, n=2000)
        ref_p += 0.3 * ref_h  # correlated references, so no block is zero
        bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_p, filter_len=flen)
        cc = seen[0][1]  # the lags
        gram = seen[1][0][0]  # the first solve is the joint system
        want = np.empty((2 * flen, 2 * flen))
        for i in range(2):
            for j in range(i + 1):
                block = toeplitz(cc[i, j, flen - 1:], cc[i, j, flen - 1::-1])
                want[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
                want[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T
        assert gram.tobytes() == want.tobytes()

    def test_transform_budget(self, rng, monkeypatch):
        # 4000 samples at 32 taps: blocks of 962 samples in 1024-sample
        # frames, so no forward transform is longer than 1024, and one
        # batched inverse turns the summed products of every reference with
        # every signal into all the Gram blocks and right-hand sides
        calls = {"rfft": [], "irfft": []}

        def counted(name, fn):
            def wrapper(a, n=None, **kwargs):
                calls[name].append((np.shape(a), n))
                return fn(a, n=n, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        n, flen = 4000, 32
        ref_h, ref_p = orthogonal_stems(rng, n=n)
        bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_p, filter_len=flen)
        m = hpss.metrics._block_len(flen, n)
        assert m == 1024
        assert calls["rfft"] and {n_fft for _, n_fft in calls["rfft"]} == {m}
        assert calls["irfft"] == [((2, 4, m // 2 + 1), m)]

    @pytest.mark.parametrize("flen, n, m", [
        (1, 10**6, 1024), (8, 10**6, 1024), (64, 10**6, 1024), (65, 10**6, 2048),
        (512, 10**6, 8192), (512, 3000, 4096), (8, 20, 64), (1, 1, 1),
    ])
    def test_block_len(self, flen, n, m):
        # a power of two of 16 samples per tap and at least 1024, unless a
        # shorter one covers the whole signal and its 2 (flen - 1) neighbours
        assert hpss.metrics._block_len(flen, n) == m

    def test_scratch_memory_does_not_grow_with_length(self, rng):
        # the blocks go through the transforms a chunk at a time, so four
        # times the samples keep the traced peak within a tenth
        peaks = []
        for n in (150_000, 600_000):
            refs = [rng.normal(size=n) for _ in range(2)]
            ests = [r + 0.5 * rng.normal(size=n) for r in refs]
            tracemalloc.start()
            bss_eval_sources(refs, ests, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_singular_system_warns_per_solve(self):
        # a zero reference makes every Gram containing it singular: the
        # target-only solve of estimate 1 warns, the joint solve warns once
        # per estimate, and the ridge still scores estimate 0 against its
        # nonzero reference
        ref = np.sin(np.arange(512) * 0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = bss_eval_sources([ref, np.zeros(512)], [ref, ref], 4)
        assert sum("singular projection" in str(w.message) for w in caught) == 3
        assert all(np.isfinite(v) for v in scores[0])

    def test_ridge_warning_names_the_calling_line(self):
        ref = np.sin(np.arange(512) * 0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bss_eval(np.zeros(512), ref, ref, ref, filter_len=4)
            bss_eval_sources([ref, np.zeros(512)], [ref, ref], 4)
        assert len(caught) == 6
        assert {w.filename for w in caught} == {__file__}


def _lstsq_scores(refs, ests, flen):
    """SDR/SIR/SAR by explicit least squares on a matrix of delayed copies."""
    n = refs[0].size

    def delayed(ref):
        cols = np.zeros((n + flen - 1, flen))
        for k in range(flen):
            cols[k:k + n, k] = ref
        return cols

    def project(mat, est):
        return mat @ np.linalg.lstsq(mat, est, rcond=None)[0]

    def db(num, den):
        # one source leaves no interference: SIR is the +300 dB cap
        num, den = np.sum(num ** 2), np.sum(den ** 2)
        return 300.0 if den == 0 else 10 * np.log10(num / den)

    every = np.hstack([delayed(r) for r in refs])
    out = []
    for ref, est in zip(refs, ests):
        est = np.concatenate((est, np.zeros(flen - 1)))
        target = project(delayed(ref), est)
        interf = project(every, est) - target
        artif = est - target - interf
        out.append((db(target, interf + artif), db(target, interf),
                    db(target + interf, artif)))
    return out


def edge_burst_pair(rng, n, n_src, gain=1.0):
    """References and estimates with loud bursts at both ends: a transform
    shorter than n + flen - 1 would wrap the last samples' lags onto the first
    ones, and a block that dropped its neighbours would miss the lags across
    its edges."""
    edges = np.ones(n)
    edges[:40] = edges[-40:] = 20.0
    refs = [edges * rng.normal(size=n) for _ in range(n_src)]
    mix = sum(refs)
    ests = [gain * (r + 0.3 * mix + 0.5 * edges * rng.normal(size=n)) for r in refs]
    return refs, ests


class TestLstsqReference:
    @pytest.mark.parametrize("n_src", [1, 2])
    @pytest.mark.parametrize("flen", [1, 8, 32])
    @pytest.mark.parametrize("n", [301, 480, 600])
    def test_scores_match(self, rng, n_src, flen, n):
        refs, ests = edge_burst_pair(rng, n, n_src)
        np.testing.assert_allclose(
            bss_eval_sources(refs, ests, flen), _lstsq_scores(refs, ests, flen),
            rtol=0, atol=1e-8,
        )

    @pytest.mark.parametrize("n_src", [1, 2])
    @pytest.mark.parametrize("n", [500, 1010, 1011, 2020, 2021, 3500])
    @pytest.mark.parametrize("chunk", [None, 3 * 1024])
    def test_scores_match_across_blocks(self, rng, monkeypatch, n_src, n, chunk):
        # at 8 taps each 1024-sample frame holds a block of 1010 samples:
        # shorter than one block, one block and one sample past it, two
        # blocks and one past, and four blocks; a chunk of 3 blocks splits
        # the four into chunks of 3 and 1
        flen = 8
        assert hpss.metrics._block_len(flen, n) - 2 * (flen - 1) == 1010
        if chunk is not None:
            monkeypatch.setattr(hpss.metrics, "_CHUNK_SAMPLES", chunk)
        refs, ests = edge_burst_pair(rng, n, n_src)
        np.testing.assert_allclose(
            bss_eval_sources(refs, ests, flen), _lstsq_scores(refs, ests, flen),
            rtol=0, atol=1e-8,
        )

    @settings(deadline=None, max_examples=40)
    @given(
        flen=st.integers(1, 40),
        n_src=st.sampled_from([1, 2]),
        extra=st.integers(0, 3000),
        log_gain=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_match_sweep(self, flen, n_src, extra, log_gain, seed):
        # lengths from a few filters' worth to three blocks, where the
        # projection system stays well posed, and estimate gains over 12
        # decades, which no score may notice
        n = 4 * n_src * flen + extra
        refs, ests = edge_burst_pair(np.random.default_rng(seed), n, n_src, 10.0 ** log_gain)
        np.testing.assert_allclose(
            bss_eval_sources(refs, ests, flen), _lstsq_scores(refs, ests, flen),
            rtol=0, atol=1e-8,
        )


class TestDbRange:
    def test_silent_estimate_scores_floor_without_warning(self, rng):
        ref_h, ref_p = rng.normal(size=(2, 2000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bss_eval(ref_h, ref_p, np.zeros(2000), ref_h + ref_p, 8)
        assert (res.sdr_h, res.sir_h, res.sar_h) == (-300.0, -300.0, -300.0)
        assert res.sar_p == 300.0  # the existing cap, at the other end

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, flen", [(2000, 8), (20000, 64), (44100, 512)])
    def test_estimates_in_the_span_score_the_sar_cap(self, seed, n, flen):
        # an estimate that the references' delayed copies reproduce leaves an
        # artifact energy of a difference of its terms' rounding, about 1e-16
        # of them (150 dB), which reads as no artifact at all
        ref_h, ref_p = np.random.default_rng(seed).normal(size=(2, n))
        res = bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_h + ref_p, flen)
        assert (res.sar_h, res.sar_p) == (300.0, 300.0)

    @pytest.mark.parametrize("num, den, expected", [
        (0.0, 0.0, -300.0), (0.0, 1.0, -300.0), (1.0, 0.0, 300.0),
        (1e-300, 1e300, -300.0), (1e300, 1e-300, 300.0), (1e200, 1e-200, 300.0),
        (5e-324, 5e-324, 0.0), (1e-294, 5e-324, None),
    ])
    def test_safe_db_range(self, num, den, expected):
        db = hpss.metrics._safe_db(num, den)
        assert -300.0 <= db <= 300.0
        if expected is not None:
            assert db == expected


class TestEvalTable:
    def test_row_has_header_fields(self):
        res = EvalResult(1.0, 2.0, 3.0, 4.0, 5.0, 6.123456)
        assert len(EvalResult.HEADER) == 11
        assert res.row("t", "mf") == [
            "t", "mf", "1.0000", "2.0000", "3.0000", "4.0000", "5.0000",
            "6.1235", "2.5000", "3.5000", "4.5617",
        ]

    def test_mean_is_per_channel_then_averaged(self, rng):
        results = [EvalResult(*rng.normal(size=6)) for _ in range(7)]
        mean = EvalResult.mean(results)
        assert mean.sdr_h == sum(r.sdr_h for r in results) / 7
        assert mean.sar_p == sum(r.sar_p for r in results) / 7
        assert mean.sdr_avg == 0.5 * (mean.sdr_h + mean.sdr_p)
