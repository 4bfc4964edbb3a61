import warnings

import numpy as np
import pytest
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


def _reference_scores(refs, ests, flen):
    out = []
    for j, est in enumerate(ests):
        s_target = _reference_project([refs[j]], est, flen)
        p_all = _reference_project(refs, est, flen) if len(refs) > 1 else s_target
        e_artif = -p_all
        e_artif[:est.size] += est
        out.append(hpss.metrics._scores(s_target, p_all - s_target, e_artif))
    return out


class TestSingleGram:
    @pytest.mark.parametrize("n_src", [1, 2])
    @pytest.mark.parametrize("flen", [1, 8, 512])
    def test_equals_per_subset_projection(self, rng, n_src, flen):
        n = 3000
        refs = [rng.normal(size=n) for _ in range(n_src)]
        ests = [r + 0.2 * refs[0] + 0.3 * rng.normal(size=n) for r in refs]
        assert bss_eval_sources(refs, ests, flen) == _reference_scores(refs, ests, flen)

    def test_one_toeplitz_per_reference_pair(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return toeplitz(*args, **kwargs)

        monkeypatch.setattr(hpss.metrics, "toeplitz", counting)
        ref_h, ref_p = orthogonal_stems(rng, n=2000)
        bss_eval(ref_h, ref_p, ref_h + 0.1 * ref_p, ref_p, filter_len=8)
        assert len(calls) == 3  # n_src (n_src + 1) / 2

    def test_singular_system_warns_per_solve(self):
        # a zero reference makes every Gram containing it singular: the
        # target-only solve of estimate 1 and both joint solves warn, and
        # the ridge still scores estimate 0 against its nonzero reference
        ref = np.sin(np.arange(512) * 0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = bss_eval_sources([ref, np.zeros(512)], [ref, ref], 4)
        assert sum("singular projection" in str(w.message) for w in caught) == 3
        assert all(np.isfinite(v) for v in scores[0])


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
