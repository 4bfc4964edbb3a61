"""Acceptance gate: every criterion printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import time
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from hpss import (
    HpssConfig,
    HpssProblem,
    SolverParams,
    bss_eval,
    bss_eval_sources,
    StftConfig,
    estimate_if,
    run,
    separate,
)
from hpss.bench import run_bench
from hpss.stft import StftPlan, forward
from hpss.synth import criterion_mixture, sine_tone

from reference import (
    Problem,
    apply_Lh,
    apply_Lh_adj,
    ipc_adjoint,
    ipc_forward,
    prox_l21,
    prox_sq_fro,
    spec_inner,
    spec_norm,
    split_sum_arrays,
    two_variable_reference,
)

RHO0 = 2.0**-0.5


def report(criterion: str, ok: bool, details: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {details}")
    assert ok, f"{criterion}: {details}"


def test_criterion_01_tight_frame_identity():
    config = StftConfig(4096, 1024)
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1000, 100001))
        x = rng.standard_normal(n)
        plan = StftPlan(config, n)
        err = np.linalg.norm(plan.adjoint(plan.forward(x)) - x) / np.linalg.norm(x)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (tight-frame identity)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst rel err {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)",
    )


def test_criterion_02_adjoint_identities():
    config = StftConfig(64, 16)
    rng = np.random.default_rng(2)
    n = 900
    n_frames = config.n_frames(n)
    shape = (n_frames, config.n_bins)

    mix = rng.standard_normal(n)
    v = estimate_if(mix, config)
    problem = Problem(
        mixture=mix,
        config=config,
        v=v,
        weight=rng.uniform(0.001, 1.0, size=shape),
    )

    def rel_gap(apply_fn, adj_fn):
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(n)
            spec = apply_fn(x)
            y = replace(
                spec, data=rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            lhs = spec_inner(spec, y, config)
            rhs = float(np.dot(x, adj_fn(y)))
            worst = max(
                worst, abs(lhs - rhs) / (np.linalg.norm(x) * spec_norm(y, config))
            )
        return worst

    gaps = {
        "stft": rel_gap(lambda x: forward(x, config),
                        lambda y: StftPlan(config, y.n_samples).adjoint(y.data)),
        "ipc": rel_gap(
            lambda x: ipc_forward(x, v, config),
            lambda y: ipc_adjoint(y, v, config),
        ),
        "smooth-op": rel_gap(
            lambda x: apply_Lh(x, problem), lambda y: apply_Lh_adj(y, problem)
        ),
    }
    worst = max(gaps.values())
    report(
        "criterion 2 (adjoint identities)",
        worst <= 1e-8,
        "; ".join(f"{k} {v:.2e}" for k, v in gaps.items()) + " (<=1e-8)",
    )


def test_criterion_03_prox_oracles():
    rng = np.random.default_rng(3)
    worst_proj = worst_fro = worst_l21 = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        x = rng.standard_normal(n)
        x_h = rng.standard_normal(n)
        x_p = rng.standard_normal(n)
        design = np.vstack([np.eye(n), -np.eye(n)])
        target = np.concatenate([x_h, x_p - x])
        h_star = np.linalg.lstsq(design, target, rcond=None)[0]
        h_ours, _ = split_sum_arrays(x, x_h, x_p)
        worst_proj = max(
            worst_proj,
            np.linalg.norm(h_ours - h_star) / max(np.linalg.norm(h_star), 1.0),
        )

        rho = float(rng.uniform(0.1, 3.0))
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        flat = np.concatenate([z.real.ravel(), z.imag.ravel()])
        y_star = np.linalg.solve(
            (1.0 + 1.0 / rho) * np.eye(flat.size), flat / rho
        )
        ours = prox_sq_fro(z, rho)
        ours_flat = np.concatenate([ours.real.ravel(), ours.imag.ravel()])
        worst_fro = max(
            worst_fro,
            np.linalg.norm(ours_flat - y_star) / np.linalg.norm(y_star),
        )

        z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        ours = prox_l21(z, rho)
        for tau in range(5):
            col = z[:, tau]
            norm = np.linalg.norm(col)

            def slope(t, norm=norm, rho=rho):
                return 1.0 - (norm - t) / rho

            # 1-D search on the per-column objective t + (norm-t)^2 / (2 rho)
            # over t in [0, norm]: locate the stationary point numerically,
            # fall back to the lower boundary when the slope never changes sign
            t_star = 0.0 if slope(0.0) >= 0.0 else brentq(slope, 0.0, norm, xtol=1e-14)
            expected = t_star / norm * col
            worst_l21 = max(
                worst_l21,
                np.linalg.norm(ours[:, tau] - expected) / max(norm, 1.0),
            )
    ok = worst_proj <= 1e-8 and worst_fro <= 1e-8 and worst_l21 <= 1e-8
    report(
        "criterion 3 (prox oracles)",
        ok,
        f"split_sum_arrays {worst_proj:.2e}, prox_sq_fro {worst_fro:.2e}, "
        f"prox_l21 {worst_l21:.2e} (<=1e-8)",
    )


def test_criterion_04_if_estimator():
    config = StftConfig(4096, 1024)
    n = 3 * 44100
    on = sine_tone(100.0 * 44100 / 4096, n, 44100, 0.4)
    v_on = estimate_if(on, config)
    interior = slice(8, v_on.shape[0] - 8)
    err_on = float(np.max(np.abs(v_on[interior, 100] - 100.0)))

    off = sine_tone(100.37 * 44100 / 4096, n, 44100, 1.1)
    v_off = estimate_if(off, config)
    err_off = max(
        float(np.max(np.abs(v_off[interior, col] - 100.37))) for col in (99, 100, 101)
    )
    report(
        "criterion 4 (IF estimator)",
        err_on <= 0.01 and err_off <= 0.02,
        f"on-bin {err_on:.2e} (<=0.01), off-bin {err_off:.2e} (<=0.02)",
    )


def test_criterion_05_ipc_smoothness():
    config = StftConfig(4096, 1024)
    n = 3 * 44100
    s = sine_tone(100.0 * 44100 / 4096, n, 44100, 0.3)
    spec = ipc_forward(s, estimate_if(s, config), config)
    peak = spec.data[8:-8, 100]
    resid = float(np.max(np.abs(np.diff(peak)) / np.abs(peak[:-1])))
    report(
        "criterion 5 (phase-corrected smoothness)",
        resid <= 1e-3,
        f"max relative time-difference {resid:.2e} (<=1e-3)",
    )


def test_criterion_06_constraint_invariant():
    # the reference iterates both parts, so its sum is not structural; run
    # iterates x_h alone (x_p = x - x_h) and must follow the reference's x_h
    config = StftConfig(64, 16)
    gap = drift = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = 800
        t = np.arange(n)
        x = np.cos(2 * np.pi * rng.uniform(4, 12) * t / 64) + 0.5 * rng.standard_normal(n) * (
            rng.uniform(size=n) < 0.01
        )
        x *= RHO0 / np.sqrt(np.mean(x**2))
        shape = (config.n_frames(n), config.n_bins)
        v = estimate_if(x, config)
        weight = rng.uniform(0.001, 1.0, size=shape)
        pair = (rng.standard_normal(n), rng.standard_normal(n))  # infeasible
        init, _ = split_sum_arrays(x, *pair)
        # endpoints of k-iteration runs visit every iterate of the longest run
        for k in range(1, 13):
            problem = Problem(
                mixture=x,
                config=config,
                v=v,
                weight=weight,
                params=SolverParams(n_iters=k, record_trace=False),
            )
            ref_h, ref_p, _ = two_variable_reference(problem, pair)
            x_h, _ = run(problem.package(), init)
            gap = max(gap, np.max(np.abs(x - ref_h - ref_p)) / np.max(np.abs(x)))
            drift = max(drift, np.max(np.abs(x_h - ref_h)) / np.max(np.abs(ref_h)))
    report(
        "criterion 6 (constraint invariant)",
        gap <= 1e-12 and drift <= 1e-12,
        f"worst relative sum gap of the two-variable iteration {gap:.2e}, "
        f"worst relative distance of run's x_h from it {drift:.2e} (both <=1e-12)",
    )


def _desk_problem():
    config = StftConfig(64, 16)
    rng = np.random.default_rng(0)
    n = 1000
    t = np.arange(n)
    harm = np.cos(2 * np.pi * 8.0 * t / 64 + 0.3)
    perc = np.zeros(n)
    for q in np.linspace(60, n - 80, 6).astype(int):
        perc[q : q + 5] += rng.standard_normal(5)
    x = harm + perc
    x *= RHO0 / np.sqrt(np.mean(x**2))

    from hpss import compute_weight, median_filter_hpss, mf_separate

    mag = np.abs(forward(x, config).data)
    mask = median_filter_hpss(mag)
    weight = compute_weight(mask * mag)
    init = mf_separate(x, config)
    return x, config, estimate_if(x, config), weight, init.harmonic.samples


def test_criterion_07_convergence():
    x, config, v, weight, init = _desk_problem()
    problem = HpssProblem.from_if(x, config, v, weight, SolverParams(n_iters=2000))
    _, trace = run(problem, init)
    ratio = abs(trace.total[99] / trace.total[1999] - 1.0)
    osc = (np.max(trace.total[80:100]) - np.min(trace.total[80:100])) / trace.total[99]
    report(
        "criterion 7 (convergence on the desk instance)",
        ratio <= 0.01 and osc <= 0.01,
        f"obj(100)/obj(2000) gap {ratio:.4f} (<=0.01), "
        f"trailing-20 oscillation {osc:.4f} (<=0.01)",
    )


def test_criterion_08_synthetic_separation():
    track = criterion_mixture()
    start = time.perf_counter()
    pair, _ = separate(track.mixture, HpssConfig())
    elapsed = time.perf_counter() - start
    res = bss_eval(track.harmonic, track.percussive, pair.harmonic, pair.percussive)
    ok = res.sdr_h >= 15.0 and res.sdr_p >= 10.0 and elapsed < 60.0
    report(
        "criterion 8 (full-scale separation)",
        ok,
        f"harmonic SDR {res.sdr_h:.1f} dB (>=15), percussive SDR {res.sdr_p:.1f} dB "
        f"(>=10), separation {elapsed:.1f}s (<60s)",
    )


def test_criterion_09_method_orderings():
    _, means = run_bench(seed=0, n_tracks=10)
    mf = means["mf"].sdr_h
    mix = means["prop-mix"].sdr_h
    ora = means["prop-ora"].sdr_h
    ok = (ora - mix >= 0.3) and (mix - mf >= 0.3)
    report(
        "criterion 9 (method orderings)",
        ok,
        f"mean harmonic SDR ora {ora:.2f} >= mix {mix:.2f} > mf {mf:.2f}; "
        f"margins {ora - mix:+.2f} / {mix - mf:+.2f} dB (>=0.3)",
    )


def test_criterion_10_metrics_sanity():
    rng = np.random.default_rng(10)
    n = 20000
    ref_h = np.zeros(n)
    ref_p = np.zeros(n)
    ref_h[: n // 2] = rng.standard_normal(n // 2)
    ref_p[n // 2 :] = rng.standard_normal(n // 2)
    res = bss_eval(ref_h, ref_p, ref_h, ref_p, filter_len=8)
    self_ok = min(res.sdr_h, res.sir_h, res.sar_h, res.sdr_p, res.sir_p, res.sar_p)

    ref = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    noise -= (noise @ ref) / (ref @ ref) * ref
    noise *= np.sqrt((ref @ ref) / (noise @ noise) * 10 ** (-2.0))
    sdr = bss_eval_sources([ref], [ref + noise], filter_len=1)[0][0]
    ok = self_ok >= 100.0 and abs(sdr - 20.0) <= 0.2
    report(
        "criterion 10 (metrics sanity)",
        ok,
        f"self-eval min {self_ok:.0f} dB (>=100), 20 dB construction reads "
        f"{sdr:.2f} dB (+/-0.2)",
    )
