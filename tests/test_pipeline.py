import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpss import HpssConfig, Signal, SolverParams, mf_separate, separate
from hpss.pipeline import CONFIG_KEYS, IF_SOURCE_ORACLE, parse_config_text, with_values
from hpss.stft import StftPlan
from hpss.synth import bench_track

SMALL = HpssConfig(win_len=256, hop=64, solver=SolverParams(n_iters=25))


def small_mixture(seed=0, n=6000, rate=8000):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    harm = np.cos(2 * np.pi * 20.0 * t / 256 + 0.3)
    perc = np.zeros(n)
    pos = 300
    while pos < n - 30:
        perc[pos : pos + 12] += rng.normal(size=12)
        pos += int(rng.uniform(700, 1400))
    harm *= np.sqrt(np.sum(perc**2) / np.sum(harm**2))
    x = harm + perc
    peak = np.max(np.abs(x))
    return Signal(x / peak, rate), harm / peak, perc / peak


class TestSeparate:
    def test_sum_bit_exact(self):
        mixture, _, _ = small_mixture()
        pair, _ = separate(mixture, SMALL)
        gap = mixture.samples - pair.harmonic.samples - pair.percussive.samples
        assert np.max(np.abs(gap)) == 0.0
        assert pair.harmonic.sample_rate == mixture.sample_rate

    def test_gain_equivariance(self):
        mixture, _, _ = small_mixture()
        scaled = Signal(3.7 * mixture.samples, mixture.sample_rate)
        pair1, _ = separate(mixture, SMALL)
        pair2, _ = separate(scaled, SMALL)
        np.testing.assert_allclose(
            pair2.harmonic.samples,
            3.7 * pair1.harmonic.samples,
            rtol=1e-6,
            atol=1e-9,
        )

    def test_deterministic(self):
        mixture, _, _ = small_mixture()
        pair1, trace1 = separate(mixture, SMALL)
        pair2, trace2 = separate(mixture, SMALL)
        np.testing.assert_array_equal(pair1.harmonic.samples, pair2.harmonic.samples)
        np.testing.assert_array_equal(trace1.total, trace2.total)

    def test_separation_beats_trivial_split(self):
        # harmonic SDR of the estimate should easily beat the mixture itself
        mixture, harm, _ = small_mixture()
        pair, _ = separate(mixture, SMALL)

        def sdr(ref, est):
            t = (ref @ est) / (ref @ ref) * ref
            return 10 * np.log10((t @ t) / np.sum((est - t) ** 2))

        assert sdr(harm, pair.harmonic.samples) > sdr(harm, mixture.samples) + 3.0

    def test_tone_plus_impulses_separates_cleanly(self):
        # on-bin tone against a sparse impulse train at 0 dB: both channels
        # should come out at 15 dB SDR or better with the standard settings
        rng = np.random.default_rng(0)
        n, rate = 24000, 16000
        t = np.arange(n)
        harm = np.cos(2 * np.pi * 41.0 * t / 1024 + 0.3)
        perc = np.zeros(n)
        pos = 600
        while pos < n - 40:
            perc[pos : pos + 20] += rng.standard_normal(20)
            pos += int(rng.uniform(1800, 3200))
        harm *= np.sqrt(np.sum(perc**2) / np.sum(harm**2))
        x = harm + perc
        peak = np.max(np.abs(x))
        pair, _ = separate(Signal(x / peak, rate), HpssConfig(win_len=1024, hop=256))

        def sdr(ref, est):
            proj = (ref @ est) / (ref @ ref) * ref
            return 10 * np.log10((proj @ proj) / np.sum((est - proj) ** 2))

        assert sdr(harm / peak, pair.harmonic.samples) >= 15.0
        assert sdr(perc / peak, pair.percussive.samples) >= 15.0

    def test_trace_recorded(self):
        mixture, _, _ = small_mixture()
        _, trace = separate(mixture, SMALL)
        assert len(trace) == 25
        assert np.all(np.isfinite(trace.total))

    def test_oracle_if_source(self):
        track = bench_track(np.random.default_rng(3), sample_rate=8000, duration=1.0)
        cfg = HpssConfig(
            win_len=256, hop=64, solver=SolverParams(n_iters=10), if_source=IF_SOURCE_ORACLE
        )
        pair, _ = separate(track.mixture, cfg, oracle_h=track.harmonic)
        gap = track.mixture.samples - pair.harmonic.samples - pair.percussive.samples
        assert np.max(np.abs(gap)) == 0.0

    def test_setup_transforms(self, monkeypatch):
        # the mixture's plain transform serves both the IF estimate and the
        # median filter; an oracle adds its own plain transform
        calls = []
        original = StftPlan.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StftPlan, "forward", counting)
        mixture, harm, _ = small_mixture()
        cfg = replace(SMALL, solver=SolverParams(n_iters=0))
        separate(mixture, cfg)
        assert len(calls) == 2
        calls.clear()
        separate(mixture, replace(cfg, if_source=IF_SOURCE_ORACLE), oracle_h=harm)
        assert len(calls) == 3

    def test_oracle_missing_errors(self):
        mixture, _, _ = small_mixture()
        cfg = HpssConfig(win_len=256, hop=64, if_source=IF_SOURCE_ORACLE)
        with pytest.raises(ValueError, match="oracle"):
            separate(mixture, cfg)

    def test_oracle_with_mixture_source_errors(self):
        mixture, harm, _ = small_mixture()
        cfg = HpssConfig(win_len=256, hop=64)
        with pytest.raises(ValueError, match="if_source"):
            separate(mixture, cfg, oracle_h=harm)

    def test_oracle_length_mismatch_errors(self):
        mixture, _, _ = small_mixture()
        cfg = HpssConfig(win_len=256, hop=64, if_source=IF_SOURCE_ORACLE)
        with pytest.raises(ValueError, match="length"):
            separate(mixture, cfg, oracle_h=Signal(np.ones(10), 8000))

    def test_oracle_rate_mismatch_errors(self):
        mixture, harm, _ = small_mixture()
        cfg = HpssConfig(win_len=256, hop=64, if_source=IF_SOURCE_ORACLE)
        with pytest.raises(ValueError, match="sample rate"):
            separate(mixture, cfg, oracle_h=Signal(harm, 2 * mixture.sample_rate))


TINY = HpssConfig(win_len=64, hop=16, solver=SolverParams(n_iters=10))


@pytest.fixture(scope="module")
def tiny_reference():
    mixture, _, _ = small_mixture(n=700)
    pair, _ = separate(mixture, TINY)
    return mixture, pair.harmonic.samples


@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(min_value=-300.0, max_value=300.0))
def test_gain_equivariance_extreme_gains(tiny_reference, exponent):
    mixture, ref_h = tiny_reference
    gain = 10.0**exponent
    scaled = Signal(gain * mixture.samples, mixture.sample_rate)
    pair, _ = separate(scaled, TINY)
    h, p = pair.harmonic.samples, pair.percussive.samples
    assert np.max(np.abs(scaled.samples - h - p)) == 0.0
    np.testing.assert_allclose(
        h, gain * ref_h, rtol=1e-6, atol=1e-9 * gain * np.max(np.abs(mixture.samples))
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3 * 64),
    kind=st.sampled_from(["noise", "silence", "constant"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_sum_every_length(n, kind, seed):
    # lengths from 1 sample to three windows at 64/16, shorter than a hop included
    x = {
        "noise": np.random.default_rng(seed).normal(size=n),
        "silence": np.zeros(n),
        "constant": np.full(n, 0.5),
    }[kind]
    mixture = Signal(x, 8000)
    cfg = HpssConfig(win_len=64, hop=16, solver=SolverParams(n_iters=3))
    for pair in (separate(mixture, cfg)[0], mf_separate(mixture, cfg.stft())):
        h, p = pair.harmonic.samples, pair.percussive.samples
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(p))
        assert np.max(np.abs(x - h - p)) == 0.0


class TestConfigParsing:
    def test_defaults(self):
        cfg = HpssConfig()
        assert cfg.win_len == 4096
        assert cfg.hop == 1024
        assert cfg.kappa == 0.001
        assert cfg.solver.lam == 0.5
        assert cfg.solver.n_iters == 100

    def test_parse_overrides(self):
        text = """
        # comment line
        win_len = 512
        hop = 128
        lambda = 0.25     # inline comment
        iters = 7
        harm_kernel = 9
        """
        cfg = parse_config_text(text)
        assert cfg.win_len == 512
        assert cfg.hop == 128
        assert cfg.solver.lam == 0.25
        assert cfg.solver.n_iters == 7
        assert cfg.median.harm_kernel == 9
        # untouched keys keep defaults
        assert cfg.solver.mu2 == 0.25
        assert cfg.kappa == 0.001

    def test_parse_rejects_unknown_key(self):
        for text in ("bogus = 3", "if_eps = 1e-6"):  # the IF floor is a constant
            with pytest.raises(ValueError, match="unknown key"):
                parse_config_text(text)

    @pytest.mark.parametrize("line", ["if_source = oracle-file", "record_trace = false"])
    def test_parse_rejects_run_mode_keys(self, line):
        # the IF source and trace recording follow the call, not the file
        with pytest.raises(ValueError, match="config line 1: unknown key"):
            parse_config_text(line)

    def test_every_key_sets_its_field(self):
        base = HpssConfig()
        for key, (section, name, parse) in CONFIG_KEYS.items():
            value = parse("3") if parse is int else 1.5
            cfg = parse_config_text(f"{key} = {value}")
            before, after = ((getattr(c, section) if section else c) for c in (base, cfg))
            assert getattr(after, name) == value != getattr(before, name), key
            assert cfg == with_values(base, {key: value})

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"keys are\s+`([^`]*)`", readme).group(1)
        assert [k.strip() for k in listed.split(",")] == list(CONFIG_KEYS)

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("iters = banana")

    def test_parse_rejects_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words")

    def test_validation(self):
        with pytest.raises(ValueError):
            HpssConfig(if_source="nope")
        with pytest.raises(ValueError):
            HpssConfig(kappa=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_non_finite_kappa_rejected(self, value):
        with pytest.raises(ValueError, match="^kappa must be positive and finite"):
            HpssConfig(kappa=value)


def test_public_names():
    # what separate, mf_separate, the CLI and the benchmark use; the
    # operator-level reference model lives in tests/reference.py
    import hpss

    assert sorted(hpss.__all__) == [
        "EvalResult", "HpssConfig", "HpssProblem", "IfMap", "MedianConfig", "Signal",
        "SignalPair", "SolverDivergenceError", "SolverParams", "SolverTrace",
        "Spectrogram", "StftConfig", "adjoint", "bss_eval", "bss_eval_sources",
        "build_correction", "compute_weight", "estimate_if", "forward", "load_config",
        "make_config", "median_filter_hpss", "mf_separate", "parse_config_text",
        "read_wav", "run", "separate", "write_wav",
    ]
    assert all(hasattr(hpss, name) for name in hpss.__all__)
