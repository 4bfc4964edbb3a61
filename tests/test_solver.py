from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpss import (
    HpssProblem,
    SolverDivergenceError,
    SolverParams,
    StftConfig,
    estimate_if,
    run,
)
from hpss.solver import _corrected_diff, _corrected_diff_adjoint, _energy_overflows
from hpss.stft import StftPlan, forward

from conftest import sine_signal
from reference import (
    Problem,
    apply_Lh,
    apply_Lh_adj,
    correction_matrix,
    objective,
    phase_steps,
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
    shape = (n_frames, config.n_bins)
    v = estimate_if(x if if_source is None else if_source, config)
    if weight is None:
        if rng is None:
            weight = np.ones(shape)
        else:
            weight = rng.uniform(0.001, 1.0, size=shape)
    return Problem(
        mixture=np.asarray(x, dtype=float),
        config=config,
        v=v,
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
    """``HpssProblem.from_if`` checks its two T x K inputs alike: shape against
    the mixture, then one comparison pair on the range that a NaN fails."""

    def test_fields_are_what_the_loop_reads(self, small_config):
        # no mixture and no IF map: the loop reads F(x) and the steps built from it
        import dataclasses

        assert [f.name for f in dataclasses.fields(HpssProblem)] == [
            "spectrum", "steps", "weight", "config", "n_samples", "params"]
        x = desk_mixture()
        problem = make_problem(x, small_config).package()
        assert problem.n_samples == x.size
        assert problem.spectrum.tobytes() == StftPlan(small_config, x.size).forward(x).tobytes()

    def test_rejects_if_map_of_other_frame_count(self, small_config):
        x = desk_mixture()
        shape = (small_config.n_frames(x.size), small_config.n_bins)
        with pytest.raises(ValueError, match=r"v \(the IF map\) shape"):
            HpssProblem.from_if(x, small_config, np.zeros((shape[0] - 1, shape[1])),
                                np.ones(shape))

    def test_if_map_validation(self, small_config):
        x = desk_mixture()
        shape = (small_config.n_frames(x.size), small_config.n_bins)
        with pytest.raises(ValueError, match=r"v \(the IF map\) shape"):
            HpssProblem.from_if(x, small_config, np.zeros((shape[0], shape[1] + 1)),
                                np.ones(shape))
        v = np.zeros(shape)  # both ends of [0, L/2] are in range
        v[0, -1] = small_config.win_len / 2
        assert HpssProblem.from_if(x, small_config, v, np.ones(shape)).steps.shape == shape

    @pytest.mark.parametrize("value", [*NON_FINITE, -1.0, "L/2 + 1"], ids=str)
    def test_rejects_if_map_outside_zero_to_half_window(self, small_config, value):
        x = desk_mixture()
        shape = (small_config.n_frames(x.size), small_config.n_bins)
        v = np.zeros(shape)
        v[3, 5] = small_config.win_len / 2 + 1 if value == "L/2 + 1" else value
        with pytest.raises(ValueError, match=r"v \(the IF map\) entries must lie in \[0, L/2\]"):
            HpssProblem.from_if(x, small_config, v, np.ones(shape))

    @pytest.mark.parametrize("value", [*NON_FINITE, 0.0, -1.0, 1.5], ids=str)
    def test_rejects_weight_outside_the_unit_interval(self, small_config, value):
        # a NaN fails both range comparisons, so it is named here rather than
        # surfacing as divergence at iteration 1
        x = desk_mixture()
        shape = (small_config.n_frames(x.size), small_config.n_bins)
        weight = np.ones(shape)
        weight[3, 5] = value
        with pytest.raises(ValueError, match=r"weight entries must lie in \(0, 1\]"):
            HpssProblem.from_if(x, small_config, np.zeros(shape), weight)


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
        shape = (small_config.n_frames(n), small_config.n_bins)
        prob = Problem(
            mixture=x,
            config=small_config,
            v=np.zeros(shape),
            weight=np.ones(shape),
        )
        out = np.abs(apply_Lh(x, prob).data)
        ref = np.abs(forward(x, small_config).data).max()
        assert out[5:-5].max() <= 1e-10 * ref

    def test_weight_annihilates_adjoint(self, small_config, rng):
        prob = make_problem(desk_mixture(), small_config, rng)
        tiny = Problem(
            mixture=prob.mixture,
            config=prob.config,
            v=prob.v,
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
            y = replace(
                spec, data=rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
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
        config = StftConfig(16, 4)
        n = 96
        shape = (config.n_frames(n), config.n_bins)
        eye = np.eye(n)
        plan = StftPlan(config, n)
        normal_p = np.column_stack([plan.adjoint(plan.forward(e)) for e in eye])
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
        shape = (small_config.n_frames(x.size), small_config.n_bins)
        prob = HpssProblem.from_if(
            x, small_config, np.zeros(shape), np.full(shape, weight),
            SolverParams(mu1=1.0, mu2=product, n_iters=1, record_trace=False),
        )
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            run(prob, np.zeros(x.size))
        assert any("step-size product" in str(w.message) for w in caught) == warns

    @pytest.mark.parametrize("entry", ["run", "separate"])
    def test_warning_names_the_caller(self, small_config, entry):
        # the warning points at the first frame outside the package, here this file
        import warnings as warnings_mod

        from hpss import HpssConfig, separate

        params = SolverParams(mu1=2.0, n_iters=1, record_trace=False)
        x = desk_mixture(n=800)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            if entry == "run":
                run(make_problem(x, small_config, params=params).package(), np.zeros(x.size))
            else:
                separate(x, HpssConfig(win_len=64, hop=16, solver=params))
        found = [w for w in caught if "step-size product" in str(w.message)]
        assert [w.filename for w in found] == [__file__]

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
        config = StftConfig(16, 4)  # K = 9; v up to L/2 turns a step twice round
        shape = (n_frames, config.n_bins)
        v = rng.uniform(0, 8, size=shape)
        steps, e = phase_steps(v, config), correction_matrix(v, config)  # K x T, the model's
        w = rng.uniform(0.001, 1.0, size=shape)
        c = 0.4
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # g[t] = conj(s[t-1]), as the loop holds them
        g = np.empty(shape, dtype=complex)
        g[1:] = np.conj(steps[:, :-1].T)
        ref_fwd = (c * w.T * np.conj(e) * time_diff(e * x.T)).T
        ref_adj = (np.conj(e) * time_diff_adj(e * w.T * y.T)).T

        whole = None
        for block in (n_frames, 1, 3):  # chained the way the loop's sweeps run them
            starts = range(0, n_frames, block)
            scratch = np.empty((block + 1, shape[1]), dtype=complex)
            fwd, adj = np.empty_like(g), np.empty_like(g)
            for t0 in starts:  # each block with the frame before it, zeros before frame 0
                t1 = min(t0 + block, n_frames)
                frames = np.zeros((t1 - t0 + 1, shape[1]), dtype=complex)
                frames[t0 == 0 :] = x[max(t0 - 1, 0) : t1]
                _corrected_diff(frames, g[t0:t1], c * w[t0:t1], fwd[t0:t1])
                if t0 == 0:
                    fwd[0] = 0.0
            out = np.empty_like(scratch)
            for t0 in reversed(starts):  # reading one frame ahead of each block
                t1 = min(t0 + block, n_frames)
                adj[t0:t1] = _corrected_diff_adjoint(y, g, w, t0, t1, out, scratch)
            np.testing.assert_allclose(fwd, ref_fwd, rtol=0,
                                       atol=1e-13 * np.abs(ref_fwd).max())
            np.testing.assert_allclose(adj, ref_adj, rtol=0,
                                       atol=1e-13 * np.abs(ref_adj).max())
            whole = whole or (fwd.tobytes(), adj.tobytes())
            assert (fwd.tobytes(), adj.tobytes()) == whole  # blocks change no bit


class TestRun:
    def test_zero_mixture_fixed_point(self, small_config):
        n = 500
        shape = (small_config.n_frames(n), small_config.n_bins)
        prob = HpssProblem.from_if(
            np.zeros(n), small_config, np.zeros(shape), np.ones(shape),
            SolverParams(n_iters=20),
        )
        x_h, trace = run(prob, np.zeros(n))
        assert np.max(np.abs(x_h)) == 0.0
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
                prob = Problem(
                    mixture=prob_base.mixture,
                    config=prob_base.config,
                    v=prob_base.v,
                    weight=prob_base.weight,
                    params=SolverParams(n_iters=k, record_trace=False),
                )
                ref_h, ref_p, _ = two_variable_reference(prob, pair)
                x_h, _ = run(prob.package(), init)
                assert np.max(np.abs(x - ref_h - ref_p)) <= 1e-12 * np.max(np.abs(x))
                assert np.max(np.abs(x_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))

    def test_deterministic(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=30)).package()
        x_h1, trace1 = run(prob, np.zeros(x.size))
        x_h2, trace2 = run(prob, np.zeros(x.size))
        np.testing.assert_array_equal(x_h1, x_h2)
        np.testing.assert_array_equal(trace1.total, trace2.total)

    @pytest.mark.parametrize("n_iters", [0, 2])
    def test_rejects_initial_x_h_of_other_length(self, small_config, rng, n_iters):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=n_iters)).package()
        with pytest.raises(ValueError, match="initial x_h length"):
            run(prob, np.zeros(x.size - 1))

    def test_zero_iterations_passthrough(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=0)).package()
        x_h0 = rng.normal(size=x.size)
        x_h, trace = run(prob, x_h0)
        np.testing.assert_array_equal(x_h, x_h0)
        assert len(trace) == 0

    @pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("n_iters", [0, 1, 3])
    def test_inputs_untouched(self, small_config, rng, n_iters, record_trace):
        # the loop reads the problem's arrays in place and writes signal-length
        # terms into the plan's buffer: not a byte of what it is handed may change
        x = desk_mixture()
        params = SolverParams(n_iters=n_iters, record_trace=record_trace)
        prob = make_problem(x, small_config, rng, params=params).package()
        x_h0 = rng.normal(size=x.size)
        inputs = (prob.spectrum, prob.steps, prob.weight, x_h0)
        before = [a.tobytes() for a in inputs]
        run(prob, x_h0)
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("n_iters, builds", [(0, 0), (2, 1)])
    def test_steps_built_once_per_iterating_run(
        self, small_config, rng, monkeypatch, n_iters, builds
    ):
        # the steps are the solver module's only exponential: count its np.exp
        # calls. separate builds them once, and only when it iterates; run
        # builds none, and from_if builds them from the IF map, frame-major
        import hpss.solver
        from hpss import HpssConfig, separate

        built = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, *args, **kwargs):
                result = np.exp(*args, **kwargs)
                built.append(result.copy())
                return result

        monkeypatch.setattr(hpss.solver, "np", CountingNumpy())
        x = desk_mixture()
        params = SolverParams(n_iters=n_iters)
        separate(x, HpssConfig(win_len=64, hop=16, solver=params))
        assert len(built) == builds
        prob = make_problem(x, small_config, rng, params=params)
        problem = prob.package()
        run(problem, np.zeros(x.size))
        assert len(built) == builds + 1
        g = built[-1]  # g[t] = conj(s[t-1])
        assert g.tobytes() == problem.steps.tobytes() and g.shape == prob.v.shape
        np.testing.assert_allclose(g[1:], np.conj(phase_steps(prob.v, small_config)[:, :-1].T),
                                   rtol=0, atol=1e-15)

    def test_extreme_sparsity_collapses_percussive(self):
        # the percussive branch vanishes as the sparsity weight grows
        config = StftConfig(64, 16)
        n = 512
        x = sine_signal(8.0, n, 64).samples
        x *= RHO0 / np.sqrt(np.mean(x**2))
        spec = forward(x, config)
        mag = np.abs(spec.data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        prob = HpssProblem.from_if(
            x, config, estimate_if(x, config), weight,
            SolverParams(lam=1e6, n_iters=300, record_trace=False),
        )
        x_h, _ = run(prob, np.zeros(n))
        ratio = np.sum((x - x_h) ** 2) / np.sum(x**2)
        assert ratio <= 1e-6

    def test_on_bin_sinusoid_keeps_percussive_small(self):
        # steady tone with its own correction, solved from the median-filter
        # initialization: nearly everything is assigned to the harmonic
        # channel at the default iteration budget
        from hpss import mf_separate

        config = StftConfig(4096, 1024)
        n = 2 * 44100
        x = sine_signal(100.0, n, 4096, rate=44100).samples
        x *= RHO0 / np.sqrt(np.mean(x**2))
        spec = forward(x, config)
        mag = np.abs(spec.data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        prob = HpssProblem.from_if(
            x, config, estimate_if(x, config), weight, SolverParams(record_trace=False)
        )
        init = mf_separate(x, config)
        x_h, _ = run(prob, init.harmonic.samples)
        assert np.sum((x - x_h) ** 2) <= 0.01 * np.sum(x**2)

    def test_step_size_warning_without_divergence(self, small_config, rng):
        x = desk_mixture()
        n = x.size
        shape = (small_config.n_frames(n), small_config.n_bins)
        prob = HpssProblem.from_if(
            x, small_config, estimate_if(x, small_config), np.ones(shape),
            SolverParams(mu1=40.0, n_iters=3, record_trace=False),
        )
        with pytest.warns(UserWarning, match="step-size"):
            x_h, _ = run(prob, np.zeros(n))
        assert np.all(np.isfinite(x_h))

    def test_no_warning_at_defaults(self, small_config, rng):
        import warnings as warnings_mod

        x = desk_mixture()
        prob = make_problem(x, small_config, rng, params=SolverParams(n_iters=2)).package()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run(prob, np.zeros(x.size))

    def test_divergence_detection(self, small_config, rng):
        x = desk_mixture()
        prob = make_problem(
            x,
            small_config,
            rng,
            params=SolverParams(mu1=1e160, mu2=1e160, n_iters=50, record_trace=False),
        ).package()
        with pytest.warns(UserWarning, match="step-size"):
            with pytest.raises(SolverDivergenceError) as err:
                run(prob, np.zeros(x.size))
        assert err.value.iteration >= 1

    @pytest.mark.parametrize(
        "scale, bad, diverged",
        [
            pytest.param(1e150, None, False, id="energy-1e303"),
            pytest.param(1e154, None, True, id="energy-1e311"),
            pytest.param(1.0, float("nan"), True, id="nan-sample"),
            pytest.param(1.0, float("-inf"), True, id="inf-sample"),
            pytest.param(1.0, 1e153, False, id="one-sample-1e153"),  # energy 1e306
            pytest.param(0.0, None, False, id="silence"),
        ],
    )
    def test_divergence_threshold(self, rng, scale, bad, diverged):
        # diverged iff a sample is non-finite or x @ x leaves the float64 range;
        # the decision itself raises no numpy warning
        x = rng.uniform(0.5, 1.0, size=1000) * scale
        if bad is not None:
            x[17] = bad
        assert _energy_overflows(x) == diverged

    def test_fixed_point_invariance(self):
        # an exact stationary construction: steady on-bin tone, constant
        # frequency map, duals at their closed-form stationary values; one
        # iteration must not move it
        config = StftConfig(64, 16)
        n = 512
        x = sine_signal(8.0, n, 64).samples
        shape = (config.n_frames(n), config.n_bins)
        mag = np.abs(forward(x, config).data)
        weight = 0.001 / np.maximum(0.001, mag / mag.max())
        params = SolverParams(n_iters=1, record_trace=False)
        prob = HpssProblem.from_if(x, config, np.full(shape, 8.0), weight, params)
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
        _, trace = run(prob.package(), np.zeros(x.size))
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
        got_h, trace = run(prob.package(), split_sum_arrays(x, *init)[0])
        assert np.max(np.abs(got_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))
        columns = (trace.total, trace.smooth, trace.sparse, trace.primal_increment)
        for col, ref in zip(columns, ref_rows.T):
            np.testing.assert_allclose(col, ref, rtol=1e-10, atol=0)
        # the last row scores the last transformed point u: invert the final
        # relaxation new_h = alpha (u + x_h) / 2 + (1 - alpha) x_h for it
        params = SolverParams(n_iters=prob.params.n_iters - 1, record_trace=False)
        prev_h, _ = run(replace(prob, params=params).package(), split_sum_arrays(x, *init)[0])
        a = prob.params.alpha
        u = (2.0 * got_h - (2.0 - a) * prev_h) / a
        total, _, _ = objective((u, x - u), prob)
        assert trace.total[-1] == pytest.approx(total, rel=1e-10, abs=0)

    def test_matches_two_variable_iteration_across_frame_blocks(self, rng):
        # T = 37 frames in blocks of B = 15 (T >= 2B + 1, T mod B != 0): the
        # carried frame of P and the look-ahead of P^* cross two block boundaries
        config = StftConfig(4096, 512)
        n = 512 * 37 - 100
        x = rng.normal(size=n)
        base = make_problem(x, config, rng)
        plan = StftPlan(config, n)
        assert plan.n_frames >= 2 * plan.block + 1 and plan.n_frames % plan.block
        init = (rng.normal(size=n), rng.normal(size=n))  # infeasible
        x_h0 = split_sum_arrays(x, *init)[0]
        for k in range(1, 13):
            params = SolverParams(n_iters=k, record_trace=k % 2 == 0)
            prob = Problem(x, base.config, base.v, base.weight, params)
            ref_h, _, ref_rows = two_variable_reference(prob, init)
            got_h, trace = run(prob.package(), x_h0)
            assert np.max(np.abs(got_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))
        columns = (trace.total, trace.smooth, trace.sparse, trace.primal_increment)
        for col, ref in zip(columns, ref_rows.T):
            np.testing.assert_allclose(col, ref, rtol=1e-10, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        # alpha well inside (0, 2): near 0 the increments shrink to a few ulps of
        # x_h, where two orders of the same arithmetic differ in relative terms
        alpha=st.floats(min_value=0.01, max_value=1.99),
        mu2=st.floats(min_value=0.01, max_value=100.0),
        lam=st.floats(min_value=0.01, max_value=10.0),
        share=st.floats(min_value=0.01, max_value=0.99),  # of the certified mu1
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_two_variable_iteration_across_parameters(
        self, alpha, mu2, lam, share, seed
    ):
        # c = alpha / (1 + mu2) scales each block of W P(F u) in the loop, so the
        # equivalence must hold away from the default alpha and mu2 too
        rng = np.random.default_rng(seed)
        config = StftConfig(64, 16)
        x = rng.normal(size=300)
        weight = rng.uniform(0.001, 1.0, size=(config.n_frames(x.size), config.n_bins))
        bound = max(1.0, 4.0 * weight.max() ** 2)
        params = SolverParams(lam=lam, mu1=share / (mu2 * bound), mu2=mu2, alpha=alpha,
                              n_iters=8)
        prob = make_problem(x, config, weight=weight, params=params)
        init = (rng.normal(size=x.size), rng.normal(size=x.size))  # infeasible
        x_h0 = split_sum_arrays(x, *init)[0]
        ref_h, _, ref_rows = two_variable_reference(prob, init)
        got_h, trace = run(prob.package(), x_h0)
        assert np.max(np.abs(got_h - ref_h)) <= 1e-12 * np.max(np.abs(ref_h))
        columns = (trace.total, trace.smooth, trace.sparse, trace.primal_increment)
        # an increment is a difference of two signals near x_h, so its error has an
        # absolute floor of a few ulps of |x_h|; the first (both duals zero, u = x_h)
        # is that rounding alone
        floors = (0.0, 0.0, 0.0, 1e-13 * np.linalg.norm(x_h0))
        for col, ref, floor in zip(columns, ref_rows.T, floors):
            np.testing.assert_allclose(col, ref, rtol=1e-10, atol=floor)

    @pytest.mark.parametrize(
        "n_iters, mu1, lanes",
        [
            pytest.param(0, 1.0, 1, id="0"),
            pytest.param(7, 1.0, 1, id="7"),
            pytest.param(7, 2.0, 1, id="7-mu1=2"),  # above the certificate: same count
            pytest.param(7, 1.0, 2, id="7-2-lanes"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:step-size product")
    def test_two_transforms_per_iteration(
        self, small_config, rng, monkeypatch, force_lanes, n_iters, mu1, lanes
    ):
        import hpss.stft

        force_lanes(lanes)
        x = desk_mixture()
        params = SolverParams(mu1=mu1, n_iters=n_iters)
        prob = make_problem(x, small_config, rng, params=params).package()
        # frames through each FFT direction, so every frame block of a sweep
        # counts; lanes call from several threads, so each call appends
        calls = {"forward": [], "adjoint": [], "spectrogram": []}

        def counted(name, fn, frames):
            def wrapper(*args, **kwargs):
                calls[name].append(len(args[0]) if frames else 1)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted("forward", np.fft.rfft, True))
        monkeypatch.setattr(np.fft, "irfft", counted("adjoint", np.fft.irfft, True))
        post_init = hpss.stft.Spectrogram.__post_init__
        monkeypatch.setattr(
            hpss.stft.Spectrogram, "__post_init__",
            counted("spectrogram", post_init, False),
        )
        run(prob, np.zeros(x.size))
        # with the trace on too, run transforms nothing outside the loop (F(x)
        # comes with the problem); each lane after the first also transforms the
        # frame before its first block, and in the adjoint its halo, the L/hop - 1
        # frames before it
        n_frames = small_config.n_frames(x.size)
        halo = small_config.win_len // small_config.hop - 1
        expected = {
            "forward": n_iters * (n_frames + lanes - 1),
            "adjoint": n_iters * (n_frames + (lanes - 1) * halo),
            "spectrogram": 0,
        }
        assert {name: sum(n) for name, n in calls.items()} == expected

    @pytest.mark.parametrize("win_len, hop", [(4096, 1024), (1024, 256), (4096, 64)])
    def test_lanes_change_no_bit_of_x_h(self, force_lanes, short_switch, win_len, hop):
        # x_h is byte-identical for 1, 2 and 3 lanes, at a 2- and a 3-lane block
        # +-1 frame and at an odd count of several blocks per lane; the trace
        # sums its lanes' parts in another order, so it agrees to rounding
        config = StftConfig(win_len, hop)
        b = StftPlan(config, hop * (1 << 16)).block
        counts = {-(-b // 2) - 1, -(-b // 2) + 1, -(-b // 3) - 1, -(-b // 3) + 1, 2 * b + 3}
        for n_frames in sorted(counts):
            n = hop * n_frames - 3
            rng = np.random.default_rng(n_frames)
            x = rng.normal(size=n)
            prob = make_problem(x, config, rng, params=SolverParams(n_iters=4)).package()
            x_h0 = rng.normal(size=n)
            got = {}
            for lanes in (1, 2, 3):
                force_lanes(lanes)
                got[lanes] = run(prob, x_h0)
            for lanes in (2, 3):
                assert got[lanes][0].tobytes() == got[1][0].tobytes(), (n_frames, lanes)
                for name in ("smooth", "sparse", "primal_increment"):
                    np.testing.assert_allclose(getattr(got[lanes][1], name),
                                               getattr(got[1][1], name), rtol=1e-12, atol=0)

    def test_peak_memory_budget(self, monkeypatch):
        # the loop's working set, counted in T x K complex128 arrays: the traced
        # peak of building the problem and running it, trace off, on the
        # criterion-8 problem; F(x) and the steps count, as the loop holds them
        prob, x_h0 = criterion_problem(monkeypatch)
        assert run_peak_units(prob, x_h0, record_trace=False) <= 5.06  # measured 5.00 (2 lanes), 4.98 (1)

    def test_peak_memory_budget_with_trace(self, monkeypatch):
        # the trace is summed from the sweep's own blocks: it adds no T x K array
        prob, x_h0 = criterion_problem(monkeypatch)
        off = run_peak_units(prob, x_h0, record_trace=False)
        assert run_peak_units(prob, x_h0, record_trace=True) <= off + 0.05


def criterion_problem(monkeypatch):
    """A model problem of the criterion-8 separation and the initial x_h that
    ``separate`` hands ``run``: the mixture is the inverse of the problem's
    spectrum, its IF map ``estimate_if``'s, its weight the problem's."""
    import hpss.pipeline
    from hpss import HpssConfig, separate
    from hpss.synth import criterion_mixture

    captured = []

    def capture(problem, x_h0):
        captured.append((problem, x_h0))
        return run(problem, x_h0)

    monkeypatch.setattr(hpss.pipeline, "run", capture)
    separate(criterion_mixture().mixture, HpssConfig(solver=SolverParams(n_iters=1)))
    problem, x_h0 = captured[0]
    config = problem.config
    x = StftPlan(config, problem.n_samples).adjoint(problem.spectrum)
    return Problem(x, config, estimate_if(x, config), problem.weight), x_h0


def run_peak_units(prob, x_h0, record_trace):
    """Traced peak of building the package's problem of ``prob`` and running it
    for 3 iterations, above the entry, in T x K complex128 units."""
    import tracemalloc

    prob = replace(prob, params=SolverParams(n_iters=3, record_trace=record_trace))
    unit = prob.weight.size * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run(prob.package(), x_h0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / unit


def test_loop_calls_no_blas():
    # a BLAS call (np.dot, np.vdot, np.inner, @, np.linalg) in the loop leaves an
    # OpenBLAS thread spinning on the core another frame lane needs
    import ast
    import inspect

    import hpss.solver

    for fn_name in ("_iterate", "_energy_overflows", "_energy"):
        tree = ast.parse(inspect.getsource(getattr(hpss.solver, fn_name)).strip())
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.BinOp, ast.AugAssign)) or not isinstance(
                node.op, ast.MatMult), (fn_name, ast.unparse(node))
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("dot", "vdot", "inner", "linalg"), (fn_name, name)
