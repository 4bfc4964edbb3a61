import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpss.pipeline
from hpss import (
    HpssConfig,
    MedianConfig,
    Signal,
    SolverParams,
    StftConfig,
    compute_weight,
    estimate_if,
    median_filter_hpss,
    mf_separate,
    run,
    separate,
)
from hpss.pipeline import CONFIG_KEYS, IF_SOURCE_ORACLE, parse_config_text, with_values
from hpss.stft import Spectrogram, StftPlan, forward
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

    def test_peak_memory_per_audio_second(self):
        # tracemalloc peak of separate above its entry, trace on (the default), on
        # criterion 8 at 3 iterations: at most half the seed's 23.04 MB/audio-s
        import tracemalloc

        from hpss.synth import criterion_mixture

        mixture = criterion_mixture().mixture
        cfg = HpssConfig(solver=SolverParams(n_iters=3))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, trace = separate(mixture, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 3
        assert (peak - entry) / 1e6 / mixture.duration <= 8.22  # measured 8.216 (2 lanes), 8.161 (1)

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
        # median filter; an oracle adds its own plain transform. Counted in
        # frames through the forward FFT, so every frame block of a sweep counts
        frames = []
        rfft = np.fft.rfft

        def counting(a, *args, **kwargs):
            frames.append(len(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        mixture, harm, _ = small_mixture()
        cfg = replace(SMALL, solver=SolverParams(n_iters=0))
        n_frames = cfg.stft().n_frames(mixture.samples.size)
        separate(mixture, cfg)
        assert sum(frames) == 2 * n_frames
        frames.clear()
        separate(mixture, replace(cfg, if_source=IF_SOURCE_ORACLE), oracle_h=harm)
        assert sum(frames) == 3 * n_frames

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


@pytest.mark.parametrize("peak", [1e-308, 1e-310, 1e-320, 5e-324], ids=str)
def test_subnormal_levels_separate_like_normal_ones(peak):
    # the mixture's RMS (at 5e-324 even its square mean) underflows, so separate
    # prescales by the power of two that brings the peak into [0.5, 1): the
    # harmonic stem equals that of the mixture at a normal level, scaled back.
    # The percussive stem is the mixture minus it, exactly, which can differ
    # from the scaled-back one by the one rounding to the subnormal grid
    track = bench_track(np.random.default_rng(0), 8000, 0.5)
    cfg = HpssConfig(win_len=256, hop=64, solver=SolverParams(n_iters=3))
    x = track.mixture.samples * (peak / np.max(np.abs(track.mixture.samples)))
    k = 3 - int(np.frexp(np.max(np.abs(x)))[1])
    pair, _ = separate(x, cfg)
    ref, _ = separate(np.ldexp(x, k), cfg)
    h, p = pair.harmonic.samples, pair.percussive.samples
    assert h.tobytes() == np.ldexp(ref.harmonic.samples, -k).tobytes()
    assert p.tobytes() == (x - h).tobytes() and np.array_equal(h + p, x)
    assert np.max(np.abs(p - np.ldexp(ref.percussive.samples, -k))) <= 5e-324
    # a stem at 1/8 of the peak is below the grid only at the smallest level
    assert np.any(h != 0.0) == (peak > 5e-324)


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
        # the IF floor is a constant, and the mask is always the squared one
        for text in ("bogus = 3", "if_eps = 1e-6", "mask_power = 2.0"):
            with pytest.raises(ValueError, match="unknown key"):
                parse_config_text(text)

    @pytest.mark.parametrize("line", ["if_source = oracle-file", "record_trace = false"])
    def test_parse_rejects_run_mode_keys(self, line):
        # the IF source and trace recording follow the call, not the file
        with pytest.raises(ValueError, match="config line 1: unknown key"):
            parse_config_text(line)

    def test_every_key_sets_its_field(self):
        # 3 for an integer key and 1.5 for a real one, except for a geometry
        # that a config must be able to build a plan from
        base = HpssConfig()
        geometry = {"win_len": 2048, "hop": 512}
        for key, (section, name, parse) in CONFIG_KEYS.items():
            value = geometry.get(key, parse("3") if parse is int else 1.5)
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

    def test_parse_rejects_duplicate_key(self):
        # a repeated key is an error, not a silent override of the first value
        with pytest.raises(ValueError, match="^config line 3: duplicate key 'iters'$"):
            parse_config_text("iters = 3\n# comment\niters = 5\n")

    def test_parse_rejects_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words")

    def test_validation(self):
        with pytest.raises(ValueError):
            HpssConfig(if_source="nope")
        with pytest.raises(ValueError):
            HpssConfig(kappa=-1.0)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: StftConfig(v, 64), "win_len"),
            (lambda v: StftConfig(256, v), "hop"),
            (lambda v: SolverParams(n_iters=v), "n_iters"),
            (lambda v: MedianConfig(v, 17), "harm_kernel"),
            (lambda v: MedianConfig(17, v), "perc_kernel"),
        ],
        ids=["win_len", "hop", "n_iters", "harm_kernel", "perc_kernel"],
    )
    def test_integer_fields_take_only_integers(self, make, name):
        # an integral float, a fraction, a bool, a string: each fails at
        # construction and names its field; numpy integers pass
        for value in (17.0, 2.5, True, np.bool_(True), "17"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                make(value)
        make(np.int64(256) if name == "win_len" else np.int32(17 if "kernel" in name else 64))

    @pytest.mark.parametrize(
        "make, name, kind",
        [
            (lambda v: SolverParams(lam=v), "lam", "a real number"),
            (lambda v: SolverParams(mu1=v), "mu1", "a real number"),
            (lambda v: SolverParams(mu2=v), "mu2", "a real number"),
            (lambda v: SolverParams(alpha=v), "alpha", "a real number"),
            (lambda v: HpssConfig(kappa=v), "kappa", "a real number"),
            (lambda v: SolverParams(record_trace=v), "record_trace", "a bool"),
        ],
        ids=["lam", "mu1", "mu2", "alpha", "kappa", "record_trace"],
    )
    def test_real_and_flag_fields_take_only_their_type(self, make, name, kind):
        # a bool is no number, and a number or a string no flag: each fails at
        # construction and names its field; ints and numpy scalars pass
        flag = name == "record_trace"
        bad = (1, 1.0, "no", None) if flag else (True, np.bool_(True), "0.5", None)
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be {kind}, got "):
                make(value)
        for value in (False, np.bool_(False)) if flag else (1, np.float32(0.25)):
            make(value)

    @pytest.mark.parametrize(
        "make",
        [lambda: HpssConfig(win_len=3), lambda: HpssConfig(hop=0),
         lambda: parse_config_text("win_len = 3")],
        ids=["win_len", "hop", "config-text"],
    )
    def test_bad_geometry_rejected_at_construction(self, make):
        # a config holds only a geometry a plan can be built from
        with pytest.raises(ValueError, match="^(win_len|hop) must"):
            make()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_non_finite_kappa_rejected(self, value):
        with pytest.raises(ValueError, match="^kappa must be positive and finite"):
            HpssConfig(kappa=value)


def count_constructions(monkeypatch):
    """A dict that counts the StftPlans and Spectrograms built from now on."""
    counts = {"plans": 0, "spectrograms": 0}
    plan_init = StftPlan.__init__
    spec_post_init = Spectrogram.__post_init__

    def counted_plan(self, *args):
        counts["plans"] += 1
        plan_init(self, *args)

    def counted_spec(self):
        counts["spectrograms"] += 1
        spec_post_init(self)

    monkeypatch.setattr(StftPlan, "__init__", counted_plan)
    monkeypatch.setattr(Spectrogram, "__post_init__", counted_spec)
    return counts


class TestSetUpStructure:
    """Set-up runs on one StftPlan's frame-major transforms and builds no
    Spectrogram; an oracle's IF comes from ``estimate_if``, on a plan of its
    own, and an iterating run builds one plan of its own. The solver reads the
    spectrum that set-up computed, so it transforms the mixture no more."""

    def test_separate_plans(self, monkeypatch):
        mixture, harm, _ = small_mixture()
        counts = count_constructions(monkeypatch)
        forwards = []
        plan_forward = StftPlan.forward

        def counted_forward(self, *args):
            forwards.append(self)
            return plan_forward(self, *args)

        monkeypatch.setattr(StftPlan, "forward", counted_forward)
        separate(mixture, SMALL)
        assert counts == {"plans": 2, "spectrograms": 0}
        assert len(forwards) == 2  # the spectrum and the IF's derivative spectrum
        counts.update(plans=0)
        forwards.clear()
        separate(mixture, replace(SMALL, if_source=IF_SOURCE_ORACLE), oracle_h=harm)
        assert counts == {"plans": 3, "spectrograms": 0}
        assert len(forwards) == 3  # the oracle's two and the mixture's spectrum

    def test_zero_iterations_run_nothing(self, monkeypatch):
        # at 0 iterations separate builds no problem and calls no run: the
        # harmonic part is the initialization, and the trace is empty
        calls = []
        monkeypatch.setattr(hpss.pipeline, "run", lambda *args: calls.append(args))
        mixture, _, _ = small_mixture()
        pair, trace = separate(mixture, replace(SMALL, solver=SolverParams(n_iters=0)))
        assert calls == [] and len(trace) == 0
        assert trace.total.shape == trace.primal_increment.shape == (0,)
        assert pair.harmonic.samples.size == mixture.samples.size

    def test_mf_separate_plans(self, monkeypatch):
        mixture, _, _ = small_mixture()
        counts = count_constructions(monkeypatch)
        mf_separate(mixture, SMALL.stft())
        assert counts == {"plans": 1, "spectrograms": 0}

    def test_setup_plan_released_before_run(self, monkeypatch):
        # at run entry set-up holds no plan and, beside x_h0, only the problem:
        # F(x) and the steps, a T x K complex128 unit each, and the weight, half
        # a unit; no copy of the mixture and no IF map
        import gc
        import tracemalloc

        from hpss.synth import criterion_mixture

        live, held, units = [], [], []

        def probe(problem, x_h0):
            held.append(tracemalloc.get_traced_memory()[0])
            live.append(sum(isinstance(o, StftPlan) for o in gc.get_objects()))
            units.append(problem.spectrum.nbytes + problem.steps.nbytes
                         + problem.weight.nbytes + x_h0.nbytes)
            return run(problem, x_h0)

        monkeypatch.setattr(hpss.pipeline, "run", probe)
        separate(small_mixture()[0], SMALL)
        assert live == [0]
        mixture = criterion_mixture().mixture  # at the default 4096/1024
        cfg = HpssConfig(solver=SolverParams(n_iters=1))
        config = cfg.stft()
        unit = config.n_bins * config.n_frames(mixture.samples.size) * 16
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            separate(mixture, cfg)
        finally:
            tracemalloc.stop()
        assert live == [0, 0]
        assert units[1] / unit == pytest.approx(2.75, abs=0.01)  # x_h0 is 0.25
        assert (held[1] - entry) / unit <= 2.8


def test_spectrogram_sized_arrays_are_frame_major(monkeypatch):
    # every T x K array the package makes and hands out is C-contiguous
    problems = []

    def capture(problem, x_h0):
        problems.append(problem)
        return run(problem, x_h0)

    monkeypatch.setattr(hpss.pipeline, "run", capture)
    mixture, _, _ = small_mixture()
    separate(mixture, SMALL)
    config = SMALL.stft()
    spec = forward(mixture, config).data
    mask = median_filter_hpss(np.abs(spec))
    arrays = {
        "forward": spec,
        "estimate_if": estimate_if(mixture, config),
        "mask": mask,
        "compute_weight": compute_weight(mask * np.abs(spec)),
        "problem spectrum": problems[0].spectrum,
        "problem steps": problems[0].steps,
        "problem weight": problems[0].weight,
    }
    shape = (config.n_frames(mixture.samples.size), config.n_bins)
    for name, array in arrays.items():
        assert array.shape == shape and array.flags.c_contiguous, name


def test_public_names():
    # what separate, mf_separate, the CLI and the benchmark use; the
    # operator-level reference model lives in tests/reference.py
    import hpss

    assert sorted(hpss.__all__) == [
        "EvalResult", "HpssConfig", "HpssProblem", "MedianConfig", "Signal",
        "SignalPair", "SolverDivergenceError", "SolverParams", "SolverTrace",
        "StftConfig", "bss_eval", "bss_eval_sources", "compute_weight",
        "estimate_if", "load_config", "median_filter_hpss", "mf_separate",
        "parse_config_text", "read_wav", "run", "separate", "write_wav",
    ]
    assert not hasattr(hpss, "build_correction")  # hpss.solver builds the steps
    # transforms go through StftConfig and StftPlan; the older wrappers stay in
    # hpss.stft for callers outside the package
    for name in ("Spectrogram", "forward", "make_config"):
        assert not hasattr(hpss, name) and hasattr(hpss.stft, name), name
    assert hpss.stft.make_config is hpss.StftConfig
    assert all(hasattr(hpss, name) for name in hpss.__all__)
