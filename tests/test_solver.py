import numpy as np
import pytest

from hpss import (
    HpssProblem,
    IfMap,
    SolverDivergenceError,
    SolverParams,
    adjoint,
    build_correction,
    estimate_if,
    forward,
    make_config,
    run,
)
from hpss.solver import _corrected_diff

from conftest import sine_signal
from reference import (
    apply_Lh,
    apply_Lh_adj,
    correction_matrix,
    objective,
    spec_inner,
    spec_norm,
    split_sum_arrays,
    time_diff,
    time_diff_adj,
    two_variable_reference,
)

RHO0 = 2.0**-0.5
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def make_problem(x, config, rng=None, weight=None, params=None, if_source=None):
    n_frames = config.n_frames(len(x))
    shape = (config.n_bins, n_frames)
    if_map = estimate_if(x if if_source is None else if_source, config)
    if weight is None:
        if rng is None:
            weight = np.ones(shape)
        else:
            weight = rng.uniform(0.001, 1.0, size=shape)
    return HpssProblem(
        mixture=np.asarray(x, dtype=float),
        if_map=if_map,
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

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("name", ["lam", "mu1", "mu2", "alpha"])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            SolverParams(**{name: value})


class TestProblem:
    def test_rejects_if_map_of_other_frame_count(self, small_config):
        x = desk_mixture()
        shape = (small_config.n_bins, small_config.n_frames(x.size))
        short = IfMap(np.zeros((shape[0], shape[1] - 1)), small_config)
        with pytest.raises(ValueError, match="IF map shape"):
            HpssProblem(mixture=x, if_map=short, weight=np.ones(shape))


class TestApplyLh:
    def test_zero_input(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        out = apply_Lh(np.zeros(1000), prob)
        np.testing.assert_array_equal(out.data, 0)

    def test_dc_annihilated_interior(self, small_config):
        # constant signal, unit weight, zero IF (unit steps): time-difference of a
        # time-constant spectrogram vanishes away from the edge frames
        n = 1000
        x = np.ones(n)
        shape = (small_config.n_bins, small_config.n_frames(n))
        prob = HpssProblem(
            mixture=x,
            if_map=IfMap(np.zeros(shape), small_config),
            weight=np.ones(shape),
        )
        out = np.abs(apply_Lh(x, prob).data)
        ref = np.abs(forward(x, small_config).data).max()
        assert out[:, 5:-5].max() <= 1e-10 * ref

    def test_weight_annihilates_adjoint(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        tiny = HpssProblem(
            mixture=prob.mixture,
            if_map=prob.if_map,
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
            if_map=IfMap(np.zeros(shape), small_config),
            weight=np.full(shape, weight),
            params=SolverParams(mu1=1.0, mu2=product, n_iters=1, record_trace=False),
        )
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            run(prob, np.zeros(x.size))
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
        config = make_config(16, 4)  # K = 9; v up to L/2 turns a step twice round
        shape = (config.n_bins, n_frames)
        if_map = IfMap(rng.uniform(0, 8, size=shape), config)
        steps, e = build_correction(if_map), correction_matrix(if_map)
        w = rng.uniform(0.001, 1.0, size=shape)
        c = 0.4
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # frame-major, g[t] = conj(s[t-1]), as the loop holds them
        g = np.empty(shape[::-1], dtype=complex)
        g[1:] = np.conj(steps[:, :-1].T)
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
            if_map=IfMap(np.zeros(shape), small_config),
            weight=np.ones(shape),
            params=SolverParams(n_iters=20),
        )
        x_h, trace = run(prob, np.zeros(n))
        assert np.max(np.abs(x_h)) == 0.0
        assert np.max(np.abs(prob.mixture - x_h)) == 0.0
        np.testing.assert_array_equal(trace.total, 0.0)

    def test_constraint_after_every_iteration(self, small_config, rng):
        # the two-variable iteration keeps x_h + x_p = x to rounding, and run's
        # x_h (its x_p is x - x_h) stays on that iteration's path; endpoints of
        # k-iteration runs visit every fourth iterate of the longest run
        for seed in range(5):
            x = desk_mixture(seed=seed)
            prob_base = make_problem(x, small_config, rng)
            pair = (rng.normal(size=x.size), rng.normal(size=x.size))  # infeasible
            init, _ = split_sum_arrays(x, *pair)
            for k in range(1, 26, 4):
                prob = HpssProblem(
                    mixture=prob_base.mixture,
                    if_map=prob_base.if_map,
                    weight=prob_base.weight,
                    params=SolverParams(n_iters=k, record_trace=False),
                )
                ref_h, ref_p, _ = two_variable_reference(prob, pair)
                x_h, _ = run(prob, init)
                assert np.max(np.abs(x - ref_h - ref_p)) <= 1e-12 * np.max(np.abs(x))
                assert np.max(np.abs(x_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))

    def test_deterministic(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=30))
        x_h1, trace1 = run(prob, np.zeros(x.size))
        x_h2, trace2 = run(prob, np.zeros(x.size))
        np.testing.assert_array_equal(x_h1, x_h2)
        np.testing.assert_array_equal(trace1.total, trace2.total)

    @pytest.mark.parametrize("n_iters", [0, 2])
    def test_rejects_initial_x_h_of_other_length(self, small_config, rng, n_iters):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=n_iters))
        with pytest.raises(ValueError, match="initial x_h length"):
            run(prob, np.zeros(x.size - 1))

    def test_zero_iterations_passthrough(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(
            x, small_config, rng, params=SolverParams(n_iters=0)
        )
        x_h0 = rng.normal(size=x.size)
        x_h, trace = run(prob, x_h0)
        np.testing.assert_array_equal(x_h, x_h0)
        assert len(trace) == 0

    @pytest.mark.parametrize("n_iters, builds", [(0, 0), (2, 1)])
    def test_steps_built_once_per_iterating_run(
        self, small_config, rng, monkeypatch, n_iters, builds
    ):
        import hpss.solver

        calls = []

        def counted(if_map):
            calls.append(if_map)
            return build_correction(if_map)

        monkeypatch.setattr(hpss.solver, "build_correction", counted)
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=n_iters))
        run(prob, np.zeros(x.size))
        assert len(calls) == builds and all(m is prob.if_map for m in calls)

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
            if_map=estimate_if(x, config),
            weight=weight,
            params=SolverParams(lam=1e6, n_iters=300, record_trace=False),
        )
        x_h, _ = run(prob, np.zeros(n))
        ratio = np.sum((x - x_h) ** 2) / np.sum(x**2)
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
            if_map=estimate_if(x, config),
            weight=weight,
            params=SolverParams(record_trace=False),
        )
        init = mf_separate(x, config)
        x_h, _ = run(prob, init.harmonic.samples)
        assert np.sum((x - x_h) ** 2) <= 0.01 * np.sum(x**2)

    def test_step_size_warning_without_divergence(self, small_config, rng):
        x = desk_mixture()
        n = x.size
        shape = (small_config.n_bins, small_config.n_frames(n))
        prob = HpssProblem(
            mixture=x,
            if_map=estimate_if(x, small_config),
            weight=np.ones(shape),
            params=SolverParams(mu1=40.0, n_iters=3, record_trace=False),
        )
        with pytest.warns(UserWarning, match="step-size"):
            x_h, _ = run(prob, np.zeros(n))
        assert np.all(np.isfinite(x_h))

    def test_no_warning_at_defaults(self, small_config, rng):
        import warnings as warnings_mod

        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=2))
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run(prob, np.zeros(x.size))

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
                run(prob, np.zeros(x.size))
        assert err.value.iteration >= 1

    def test_fixed_point_invariance(self):
        # an exact stationary construction: steady on-bin tone, constant
        # frequency map, duals at their closed-form stationary values; one
        # iteration must not move it
        config = make_config(64, 16)
        n = 512
        x = sine_signal(8.0, n, 64).samples
        shape = (config.n_bins, config.n_frames(n))
        mag = np.abs(forward(x, config).data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        params = SolverParams(n_iters=1, record_trace=False)
        if_map = IfMap(np.full(shape, 8.0), config)
        prob = HpssProblem(mixture=x, if_map=if_map, weight=weight, params=params)
        x_h, _ = run(prob, x.copy())
        inc = np.linalg.norm(x_h - x)
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
        _, trace = run(prob, np.zeros(x.size))
        assert len(trace) == 5
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,total,smooth_term,sparse_term,primal_increment"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(trace.total[0])


class TestEquivalence:
    def test_matches_two_variable_iteration(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=50))
        init = (rng.normal(size=x.size), rng.normal(size=x.size))  # infeasible
        ref_h, _, ref_rows = two_variable_reference(prob, init)
        got_h, trace = run(prob, split_sum_arrays(x, *init)[0])
        assert np.max(np.abs(got_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))
        columns = (trace.total, trace.smooth, trace.sparse, trace.primal_increment)
        for col, ref in zip(columns, ref_rows.T):
            np.testing.assert_allclose(col, ref, rtol=1e-10, atol=0)
        total, _, _ = objective((got_h, x - got_h), prob)
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
        run(prob, np.zeros(x.size))
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

        def capture(problem, x_h0):
            captured.append((problem, x_h0))
            return run(problem, x_h0)

        monkeypatch.setattr(hpss.pipeline, "run", capture)
        cfg = HpssConfig(solver=SolverParams(n_iters=0))
        separate(criterion_mixture().mixture, cfg)
        problem, x_h0 = captured[0]
        problem = replace(problem, params=SolverParams(n_iters=3, record_trace=False))
        unit = problem.weight.size * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run(problem, x_h0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / unit <= 9.75  # measured 9.50
