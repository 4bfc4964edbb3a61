import numpy as np
import pytest

from hpss import (
    HpssProblem,
    IfMap,
    PhaseCorrection,
    SolverDivergenceError,
    SolverParams,
    adjoint,
    apply_Lh,
    apply_Lh_adj,
    build_correction,
    estimate_if,
    forward,
    l21_norm,
    make_config,
    objective,
    prox_l21,
    prox_sq_fro,
    run,
    spec_inner,
    spec_norm,
    time_diff,
    time_diff_adj,
)
from hpss.prox import split_sum_arrays
from hpss.solver import _corrected_diff

from conftest import sine_signal

RHO0 = 2.0**-0.5


def make_problem(x, config, rng=None, weight=None, params=None, if_source=None):
    n_frames = config.n_frames(len(x))
    shape = (config.n_bins, n_frames)
    corr = build_correction(estimate_if(x if if_source is None else if_source, config), config)
    if weight is None:
        if rng is None:
            weight = np.ones(shape)
        else:
            weight = rng.uniform(0.001, 1.0, size=shape)
    return HpssProblem(
        mixture=np.asarray(x, dtype=float),
        config=config,
        correction=corr,
        weight=weight,
        params=params or SolverParams(),
    )


def desk_mixture(seed=0, n=1000):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    harm = np.cos(2 * np.pi * 8.0 * t / 64 + 0.3)
    perc = np.zeros(n)
    for q in np.linspace(60, n - 80, 6).astype(int):
        perc[q : q + 5] += rng.normal(size=5)
    x = harm + perc
    return x * RHO0 / np.sqrt(np.mean(x**2))


class TestParams:
    def test_defaults(self):
        p = SolverParams()
        assert (p.lam, p.mu1, p.mu2, p.alpha, p.n_iters) == (0.5, 1.0, 0.25, 0.5, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(lam=-1)
        with pytest.raises(ValueError):
            SolverParams(alpha=2.0)
        with pytest.raises(ValueError):
            SolverParams(n_iters=-1)


class TestApplyLh:
    def test_zero_input(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        out = apply_Lh(np.zeros(1000), prob)
        np.testing.assert_array_equal(out.data, 0)

    def test_dc_annihilated_interior(self, small_config):
        # constant signal, unit weight, unit correction: time-difference of a
        # time-constant spectrogram vanishes away from the edge frames
        n = 1000
        x = np.ones(n)
        shape = (small_config.n_bins, small_config.n_frames(n))
        prob = HpssProblem(
            mixture=x,
            config=small_config,
            correction=build_correction(
                IfMap(np.zeros(shape), small_config), small_config
            ),
            weight=np.ones(shape),
        )
        out = np.abs(apply_Lh(x, prob).data)
        ref = np.abs(forward(x, small_config).data).max()
        assert out[:, 5:-5].max() <= 1e-10 * ref

    def test_weight_annihilates_adjoint(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        tiny = HpssProblem(
            mixture=prob.mixture,
            config=prob.config,
            correction=prob.correction,
            weight=np.full_like(prob.weight, 1e-300),
        )
        y = forward(rng.normal(size=1000), small_config)
        assert np.max(np.abs(apply_Lh_adj(y, tiny))) <= 1e-250

    def test_adjoint_identity(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        worst = 0.0
        for _ in range(50):
            u = rng.normal(size=1000)
            spec = apply_Lh(u, prob)
            y = spec.with_data(
                rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
            )
            lhs = spec_inner(spec, y, small_config)
            rhs = float(np.dot(u, apply_Lh_adj(y, prob)))
            worst = max(
                worst, abs(lhs - rhs) / (np.linalg.norm(u) * spec_norm(y, small_config))
            )
        assert worst <= 1e-8


class TestOpnorm:
    """The step-size check certifies mu1 mu2 |L|^2 <= 1 by |L|^2 <= max(1, 4 max(W)^2)."""

    def test_dense_oracle(self, rng):
        # both branch norms from dense normal matrices on a 16/4 instance, for
        # random weights and corrections: the certificate dominates each
        config = make_config(16, 4)
        n = 96
        shape = (config.n_bins, config.n_frames(n))
        eye = np.eye(n)
        normal_p = np.column_stack([adjoint(forward(e, config)) for e in eye])
        assert np.linalg.eigvalsh(normal_p)[-1] <= 1.0 + 1e-12  # F is a tight frame
        for w_max in (1.0, 0.8, 0.3, 0.05):
            prob = make_problem(rng.normal(size=n), config,
                                weight=rng.uniform(0.01, w_max, size=shape))
            normal_h = np.column_stack(
                [apply_Lh_adj(apply_Lh(e, prob), prob) for e in eye]
            )
            top_h = np.linalg.eigvalsh(normal_h)[-1]
            assert np.sqrt(top_h) <= 2.0 * prob.weight.max()

    @pytest.mark.parametrize(
        "weight, product, warns",
        [
            pytest.param(1.0, 0.25, False, id="unit-W-at-bound"),
            pytest.param(1.0, 0.25 * (1 + 1e-9), True, id="unit-W-above"),
            pytest.param(1e-12, 1.0, False, id="tiny-W-at-bound"),
            pytest.param(1e-12, 1.0 + 1e-9, True, id="tiny-W-above"),
        ],
    )
    def test_certificate_edges(self, small_config, weight, product, warns):
        # B = max(1, 4 max(W)^2) is 4 for W = 1 and 1 (the tight branch) for W ~ 0
        import warnings as warnings_mod

        x = desk_mixture(n=800)
        shape = (small_config.n_bins, small_config.n_frames(x.size))
        prob = HpssProblem(
            mixture=x,
            config=small_config,
            correction=build_correction(IfMap(np.zeros(shape), small_config), small_config),
            weight=np.full(shape, weight),
            params=SolverParams(mu1=1.0, mu2=product, n_iters=1, record_trace=False),
        )
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            run(prob, (np.zeros(x.size), x.copy()))
        assert any("step-size product" in str(w.message) for w in caught) == warns

    def test_criterion_mixture_above_bound_warns(self):
        # mu1 mu2 = 0.3625 on the paper's problem, where |L_h| is about 1.69:
        # the true product mu1 mu2 |L|^2 is about 1.04, past the convergence bound
        from hpss import HpssConfig, separate
        from hpss.synth import criterion_mixture

        cfg = HpssConfig(solver=SolverParams(mu1=1.45, n_iters=1, record_trace=False))
        with pytest.warns(UserWarning, match="step-size product"):
            separate(criterion_mixture().mixture, cfg)


class TestCorrectedDiff:
    """The loop's step-form difference against the E-form reference operators."""

    @pytest.mark.parametrize("n_frames", [1, 2, 7, 300])
    def test_matches_e_form(self, rng, n_frames):
        shape = (9, n_frames)  # K x T
        corr = PhaseCorrection(np.exp(2j * np.pi * rng.uniform(size=shape)))
        e = corr.e
        w = rng.uniform(0.001, 1.0, size=shape)
        c = 0.4
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # frame-major, g[t] = conj(s[t-1]), as the loop holds them
        g = np.empty(shape[::-1], dtype=complex)
        g[1:] = np.conj(corr.step[:, :-1].T)
        scratch = np.empty_like(g)

        got = _corrected_diff(x.T.copy(), g, c * w.T, np.empty_like(g), scratch)
        ref = c * w * np.conj(e) * time_diff(e * x)
        np.testing.assert_allclose(got.T, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

        got = _corrected_diff(y.T.copy(), g, w.T, np.empty_like(g), scratch, adjoint=True)
        ref = np.conj(e) * time_diff_adj(e * w * y)
        np.testing.assert_allclose(got.T, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


class TestRun:
    def test_zero_mixture_fixed_point(self, small_config):
        n = 500
        shape = (small_config.n_bins, small_config.n_frames(n))
        prob = HpssProblem(
            mixture=np.zeros(n),
            config=small_config,
            correction=build_correction(
                IfMap(np.zeros(shape), small_config), small_config
            ),
            weight=np.ones(shape),
            params=SolverParams(n_iters=20),
        )
        pair, trace = run(prob, (np.zeros(n), np.zeros(n)))
        assert np.max(np.abs(pair.harmonic.samples)) == 0.0
        assert np.max(np.abs(pair.percussive.samples)) == 0.0
        np.testing.assert_array_equal(trace.total, 0.0)

    def test_constraint_after_every_iteration(self, small_config, rng):
        # endpoints of k-iteration runs visit every iterate of the longest run
        for seed in range(5):
            x = desk_mixture(seed=seed)
            prob_base = make_problem(x, small_config, rng)
            init = (rng.normal(size=x.size), rng.normal(size=x.size))
            for k in range(1, 26, 4):
                prob = HpssProblem(
                    mixture=prob_base.mixture,
                    config=prob_base.config,
                    correction=prob_base.correction,
                    weight=prob_base.weight,
                    params=SolverParams(n_iters=k, record_trace=False),
                )
                pair, _ = run(prob, init)
                gap = np.max(
                    np.abs(x - pair.harmonic.samples - pair.percussive.samples)
                )
                assert gap <= 1e-12 * np.max(np.abs(x))

    def test_deterministic(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=30))
        init = (np.zeros(x.size), x.copy())
        pair1, trace1 = run(prob, init)
        pair2, trace2 = run(prob, init)
        np.testing.assert_array_equal(pair1.harmonic.samples, pair2.harmonic.samples)
        np.testing.assert_array_equal(trace1.total, trace2.total)

    def test_zero_iterations_passthrough(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(
            x, small_config, rng, params=SolverParams(n_iters=0)
        )
        x_h0 = rng.normal(size=x.size)
        pair, trace = run(prob, (x_h0, x - x_h0))
        np.testing.assert_allclose(pair.harmonic.samples, x_h0, atol=1e-12)
        assert len(trace) == 0

    def test_extreme_sparsity_collapses_percussive(self):
        # the percussive branch vanishes as the sparsity weight grows
        config = make_config(64, 16)
        n = 512
        x = sine_signal(8.0, n, 64).samples
        x *= RHO0 / np.sqrt(np.mean(x**2))
        spec = forward(x, config)
        mag = np.abs(spec.data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        prob = HpssProblem(
            mixture=x,
            config=config,
            correction=build_correction(estimate_if(x, config), config),
            weight=weight,
            params=SolverParams(lam=1e6, n_iters=300, record_trace=False),
        )
        pair, _ = run(prob, (np.zeros(n), x.copy()))
        ratio = np.sum(pair.percussive.samples**2) / np.sum(x**2)
        assert ratio <= 1e-6

    def test_on_bin_sinusoid_keeps_percussive_small(self):
        # steady tone with its own correction, solved from the median-filter
        # initialization: nearly everything is assigned to the harmonic
        # channel at the default iteration budget
        from hpss import mf_separate

        config = make_config(4096, 1024)
        n = 2 * 44100
        x = sine_signal(100.0, n, 4096, rate=44100).samples
        x *= RHO0 / np.sqrt(np.mean(x**2))
        spec = forward(x, config)
        mag = np.abs(spec.data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        prob = HpssProblem(
            mixture=x,
            config=config,
            correction=build_correction(estimate_if(x, config), config),
            weight=weight,
            params=SolverParams(record_trace=False),
        )
        init = mf_separate(x, config)
        pair, _ = run(prob, (init.harmonic.samples, init.percussive.samples))
        assert np.sum(pair.percussive.samples**2) <= 0.01 * np.sum(x**2)

    def test_step_size_warning_without_divergence(self, small_config, rng):
        x = desk_mixture()
        n = x.size
        shape = (small_config.n_bins, small_config.n_frames(n))
        prob = HpssProblem(
            mixture=x,
            config=small_config,
            correction=build_correction(estimate_if(x, small_config), small_config),
            weight=np.ones(shape),
            params=SolverParams(mu1=40.0, n_iters=3, record_trace=False),
        )
        with pytest.warns(UserWarning, match="step-size"):
            pair, _ = run(prob, (np.zeros(n), x.copy()))
        assert np.all(np.isfinite(pair.harmonic.samples))

    def test_no_warning_at_defaults(self, small_config, rng):
        import warnings as warnings_mod

        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=2))
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run(prob, (np.zeros(x.size), x.copy()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detection(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(
            x,
            small_config,
            rng,
            params=SolverParams(mu1=1e160, mu2=1e160, n_iters=50, record_trace=False),
        )
        with pytest.warns(UserWarning, match="step-size"):
            with pytest.raises(SolverDivergenceError) as err:
                run(prob, (np.zeros(x.size), x.copy()))
        assert err.value.iteration >= 1

    def test_fixed_point_invariance(self):
        # an exact stationary construction: steady on-bin tone, correction
        # built from a constant frequency map, duals at their closed-form
        # stationary values; one iteration must not move it
        config = make_config(64, 16)
        n = 512
        x = sine_signal(8.0, n, 64).samples
        shape = (config.n_bins, config.n_frames(n))
        corr = build_correction(IfMap(np.full(shape, 8.0), config), config)
        mag = np.abs(forward(x, config).data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        params = SolverParams(n_iters=1, record_trace=False)
        prob = HpssProblem(
            mixture=x, config=config, correction=corr, weight=weight, params=params
        )
        pair, _ = run(prob, (x.copy(), np.zeros(n)))
        inc = np.linalg.norm(pair.harmonic.samples - x)
        assert inc <= 1e-9 * np.linalg.norm(x)


class TestObjective:
    def test_zero_harmonic_has_zero_smooth(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng)
        total, smooth, sparse = objective((np.zeros(x.size), x), prob)
        assert smooth == 0.0
        assert total == sparse

    def test_zero_percussive_has_zero_sparse(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng)
        total, smooth, sparse = objective((x, np.zeros(x.size)), prob)
        assert sparse == 0.0
        assert total == smooth

    def test_additivity(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng)
        x_h = rng.normal(size=x.size)
        total, smooth, sparse = objective((x_h, x - x_h), prob)
        assert total == smooth + sparse

    def test_constraint_violation_rejected(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng)
        with pytest.raises(ValueError, match="constraint"):
            objective((x, x), prob)


class TestTrace:
    def test_csv_export(self, tmp_path, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=5))
        _, trace = run(prob, (np.zeros(x.size), x.copy()))
        assert len(trace) == 5
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,total,smooth_term,sparse_term,primal_increment"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(trace.total[0])


def two_variable_reference(problem, init):
    """The paper's iteration over the pair (x_h, x_p), step by step.

    Each iteration projects the primal gradient step onto the exact-sum
    constraint, takes both dual ascent steps with Moreau-form proximal
    updates, and relaxes primal and dual; the trace evaluates the
    objective of every iterate directly.
    """
    p = problem.params
    x = problem.mixture
    x_h, x_p = split_sum_arrays(x, *init)
    y_h = apply_Lh(np.zeros(x.size), problem)
    y_p = forward(np.zeros(x.size), problem.config)
    lam_mu2 = p.lam * p.mu2
    rows = []
    for _ in range(p.n_iters):
        g_h = x_h - p.mu1 * apply_Lh_adj(y_h, problem)
        g_p = x_p - p.mu1 * adjoint(y_p)
        t_h, t_p = split_sum_arrays(x, g_h, g_p)
        z_h = y_h.data + apply_Lh(2.0 * t_h - x_h, problem).data
        z_p = y_p.data + forward(2.0 * t_p - x_p, problem.config).data
        yt_h = z_h - p.mu2 * prox_sq_fro(z_h / p.mu2, 1.0 / p.mu2)
        yt_p = z_p - lam_mu2 * prox_l21(z_p / lam_mu2, 1.0 / p.mu2)
        new_h = p.alpha * t_h + (1.0 - p.alpha) * x_h
        new_p = p.alpha * t_p + (1.0 - p.alpha) * x_p
        inc = np.sqrt(np.sum((new_h - x_h) ** 2) + np.sum((new_p - x_p) ** 2))
        x_h, x_p = new_h, new_p
        y_h = y_h.with_data(p.alpha * yt_h + (1.0 - p.alpha) * y_h.data)
        y_p = y_p.with_data(p.alpha * yt_p + (1.0 - p.alpha) * y_p.data)
        smooth = 0.5 * np.sum(np.abs(apply_Lh(x_h, problem).data) ** 2)
        sparse = p.lam * l21_norm(forward(x_p, problem.config).data)
        rows.append((smooth + sparse, smooth, sparse, inc))
    return x_h, np.array(rows)


class TestEquivalence:
    def test_matches_two_variable_iteration(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=50))
        init = (rng.normal(size=x.size), rng.normal(size=x.size))  # infeasible
        ref_h, ref_rows = two_variable_reference(prob, init)
        pair, trace = run(prob, init)
        got_h = pair.harmonic.samples
        assert np.max(np.abs(got_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))
        columns = (trace.total, trace.smooth, trace.sparse, trace.primal_increment)
        for col, ref in zip(columns, ref_rows.T):
            np.testing.assert_allclose(col, ref, rtol=1e-10, atol=0)
        total, _, _ = objective((got_h, pair.percussive.samples), prob)
        assert trace.total[-1] == pytest.approx(total, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "n_iters, mu1",
        [
            pytest.param(0, 1.0, id="0"),
            pytest.param(7, 1.0, id="7"),
            pytest.param(7, 2.0, id="7-mu1=2"),  # above the certificate: same count
        ],
    )
    @pytest.mark.filterwarnings("ignore:step-size product")
    def test_two_transforms_per_iteration(
        self, small_config, rng, monkeypatch, n_iters, mu1
    ):
        import hpss.stft

        x = desk_mixture()
        params = SolverParams(mu1=mu1, n_iters=n_iters)
        prob = make_problem(x, small_config, rng, params=params)
        calls = {"forward": 0, "adjoint": 0, "spectrogram": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        plan = hpss.stft.StftPlan
        monkeypatch.setattr(plan, "forward", counted("forward", plan.forward))
        monkeypatch.setattr(plan, "adjoint", counted("adjoint", plan.adjoint))
        post_init = hpss.stft.Spectrogram.__post_init__
        monkeypatch.setattr(
            hpss.stft.Spectrogram, "__post_init__", counted("spectrogram", post_init)
        )
        run(prob, (np.zeros(x.size), x.copy()))
        # with the trace on, F(x) and F(x_h0) are the only transforms outside the loop
        extra = 2 if n_iters else 0
        expected = {"forward": n_iters + extra, "adjoint": n_iters, "spectrogram": 0}
        assert calls == expected

    def test_peak_memory_budget(self, monkeypatch):
        # the loop's working set, counted in K x T complex128 arrays: the traced
        # peak of run above its entry, trace off, on the criterion-8 problem
        import tracemalloc
        from dataclasses import replace

        import hpss.pipeline
        from hpss import HpssConfig, separate
        from hpss.synth import criterion_mixture

        captured = []

        def capture(problem, init):
            captured.append((problem, init))
            return run(problem, init)

        monkeypatch.setattr(hpss.pipeline, "run", capture)
        cfg = HpssConfig(solver=SolverParams(n_iters=0))
        separate(criterion_mixture().mixture, cfg)
        problem, init = captured[0]
        problem = replace(problem, params=SolverParams(n_iters=3, record_trace=False))
        unit = problem.weight.size * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run(problem, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / unit <= 9.75  # measured 9.50
