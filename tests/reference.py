"""Operator-level reference model of the separation problem, for tests.

The package builds the solver only in its fused, frame-major form. This
module keeps the textbook form beside it as an oracle: the weighted
spectrogram inner product, the correction matrix E and the phase-corrected
transform, the time difference, the smoothness operator L_h, the proximity
operators, the sum projection, the objective, and the paper's iteration over
the pair (x_h, x_p). Tests import it as ``from reference import ...``.
"""

import numpy as np

from hpss import (
    HpssProblem,
    IfMap,
    Spectrogram,
    StftConfig,
    adjoint,
    build_correction,
    forward,
)
from hpss.audio_io import as_samples


def bin_weights(config: StftConfig) -> np.ndarray:
    """One-sided bin weights [1, 2, ..., 2, 1] / L of the inner product."""
    w = np.full(config.n_bins, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w / config.win_len


def spec_inner(a, b, config: StftConfig) -> float:
    """Real inner product on spectrograms with one-sided bin weighting."""
    da = a.data if isinstance(a, Spectrogram) else np.asarray(a)
    db = b.data if isinstance(b, Spectrogram) else np.asarray(b)
    w = bin_weights(config)
    return float(np.sum(w[:, None] * np.real(da * np.conj(db))))


def spec_norm(a, config: StftConfig) -> float:
    return float(np.sqrt(max(spec_inner(a, a, config), 0.0)))


def correction_matrix(if_map: IfMap) -> np.ndarray:
    """E[:, 0] = 1, E[:, t] = E[:, t-1] s[:, t-1] for the map's steps s,
    renormalized to unit modulus."""
    e = np.cumprod(np.insert(build_correction(if_map)[:, :-1], 0, 1.0, axis=1), axis=1)
    return np.divide(e, np.abs(e), out=e)


def ipc_forward(x, if_map: IfMap) -> Spectrogram:
    """Phase-corrected STFT: E applied elementwise to the plain transform."""
    spec = forward(x, if_map.config)
    if if_map.v.shape != spec.shape:
        raise ValueError("IF map shape does not match the spectrogram")
    return spec.with_data(correction_matrix(if_map) * spec.data)


def ipc_adjoint(spec: Spectrogram, if_map: IfMap) -> np.ndarray:
    """Adjoint of ``ipc_forward``: conjugate correction, then the STFT adjoint."""
    if if_map.v.shape != spec.shape:
        raise ValueError("IF map shape does not match the spectrogram")
    return adjoint(spec.with_data(np.conj(correction_matrix(if_map)) * spec.data))


def time_diff(data: np.ndarray) -> np.ndarray:
    """Forward difference along time with a zero first column."""
    data = np.asarray(data)
    out = np.zeros_like(data)
    np.subtract(data[:, 1:], data[:, :-1], out=out[:, 1:])
    return out


def time_diff_adj(data: np.ndarray) -> np.ndarray:
    """Adjoint of ``time_diff``: negated backward difference, matching boundary."""
    data = np.asarray(data)
    out = np.zeros_like(data)
    out[:, :-1] -= data[:, 1:]
    out[:, 1:] += data[:, 1:]
    return out


def split_sum_arrays(x: np.ndarray, x_h: np.ndarray, x_p: np.ndarray):
    """Euclidean projection of (x_h, x_p) onto the exact-sum constraint h + p = x.

    Returns the projected pair with the percussive part recomputed as
    x - h so the constraint holds bit-exactly.
    """
    if not (x.shape == x_h.shape == x_p.shape):
        raise ValueError("length mismatch in sum projection")
    r = (x - x_h - x_p) / 2.0
    h = x_h + r
    return h, x - h


def prox_sq_fro(data: np.ndarray, rho: float) -> np.ndarray:
    """Prox of rho * (1/2)||.||_Fro^2: uniform scaling by 1/(1 + rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return np.asarray(data) / (1.0 + rho)


def prox_l21(data: np.ndarray, rho: float) -> np.ndarray:
    """Column-wise shrinkage (1 - rho/||X_tau||_2)_+ X_tau.

    Column norms are the plain complex 2-norm over all K one-sided bins;
    columns at or below the threshold are set exactly to zero.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    data = np.asarray(data)
    norms = np.linalg.norm(data, axis=0)
    scale = np.maximum(0.0, 1.0 - rho / np.where(norms > 0.0, norms, 1.0))
    return data * scale[None, :]


def l21_norm(data: np.ndarray) -> float:
    """Sum over time frames of the per-frame l2 norm over bins."""
    return float(np.sum(np.linalg.norm(np.asarray(data), axis=0)))


def apply_Lh(x_h, problem: HpssProblem) -> Spectrogram:
    """Smoothness operator: W o D_t(F_ipc(x_h))."""
    spec = ipc_forward(as_samples(x_h), problem.if_map)
    return spec.with_data(problem.weight * time_diff(spec.data))


def apply_Lh_adj(spec: Spectrogram, problem: HpssProblem) -> np.ndarray:
    """Adjoint of ``apply_Lh``: F_ipc^* ( D_t^* (W o Y) )."""
    data = time_diff_adj(problem.weight * spec.data)
    return ipc_adjoint(spec.with_data(data), problem.if_map)


def objective(pair, problem: HpssProblem):
    """Evaluate (total, smooth_term, sparse_term) at the arrays (x_h, x_p)."""
    x_h, x_p = (as_samples(p) for p in pair)
    x = problem.mixture
    gap = np.linalg.norm(x - x_h - x_p)
    if gap > 1e-9 * max(np.linalg.norm(x), 1.0):
        raise ValueError("pair violates the exact-sum constraint")
    smooth = 0.5 * float(np.sum(np.abs(apply_Lh(x_h, problem).data) ** 2))
    sparse = problem.params.lam * l21_norm(forward(x_p, problem.if_map.config).data)
    return smooth + sparse, smooth, sparse


def two_variable_reference(problem, init):
    """The paper's iteration over the pair (x_h, x_p), step by step.

    Each iteration projects the primal gradient step onto the exact-sum
    constraint, takes both dual ascent steps with Moreau-form proximal
    updates, and relaxes primal and dual; the trace evaluates the
    objective of every iterate directly. Returns (x_h, x_p, rows): both
    parts are iterated, so x_h + x_p = x holds only up to rounding.
    """
    p = problem.params
    x = problem.mixture
    x_h, x_p = split_sum_arrays(x, *init)
    y_h = apply_Lh(np.zeros(x.size), problem)
    y_p = forward(np.zeros(x.size), problem.if_map.config)
    lam_mu2 = p.lam * p.mu2
    rows = []
    for _ in range(p.n_iters):
        g_h = x_h - p.mu1 * apply_Lh_adj(y_h, problem)
        g_p = x_p - p.mu1 * adjoint(y_p)
        t_h, t_p = split_sum_arrays(x, g_h, g_p)
        z_h = y_h.data + apply_Lh(2.0 * t_h - x_h, problem).data
        z_p = y_p.data + forward(2.0 * t_p - x_p, problem.if_map.config).data
        yt_h = z_h - p.mu2 * prox_sq_fro(z_h / p.mu2, 1.0 / p.mu2)
        yt_p = z_p - lam_mu2 * prox_l21(z_p / lam_mu2, 1.0 / p.mu2)
        new_h = p.alpha * t_h + (1.0 - p.alpha) * x_h
        new_p = p.alpha * t_p + (1.0 - p.alpha) * x_p
        inc = np.sqrt(np.sum((new_h - x_h) ** 2) + np.sum((new_p - x_p) ** 2))
        x_h, x_p = new_h, new_p
        y_h = y_h.with_data(p.alpha * yt_h + (1.0 - p.alpha) * y_h.data)
        y_p = y_p.with_data(p.alpha * yt_p + (1.0 - p.alpha) * y_p.data)
        smooth = 0.5 * np.sum(np.abs(apply_Lh(x_h, problem).data) ** 2)
        sparse = p.lam * l21_norm(forward(x_p, problem.if_map.config).data)
        rows.append((smooth + sparse, smooth, sparse, inc))
    return x_h, x_p, np.array(rows)
