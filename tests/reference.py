"""Operator-level reference model of the separation problem, for tests.

The package builds the solver only in its fused, frame-major form. This
module keeps the textbook form beside it as an oracle: the weighted
spectrogram inner product, the correction matrix E and the phase-corrected
transform, the time difference, the smoothness operator L_h, the proximity
operators, the sum projection, the objective, and the paper's iteration over
the pair (x_h, x_p). It also keeps the running median that the shared-core
networks replaced, one selection network per window and np.median at the
edges, and the WAV encoder that rounded and clipped through int64 arrays.
Tests import it as ``from reference import ...``.

The model computes on K x T arrays, one column per frame, as the paper writes
them. The package's arrays are T x K; the model transposes them on entry
(``model_layout``) and hands spectrograms back in the package's layout.
"""

import struct

import numpy as np

from hpss import HpssProblem, StftConfig
from hpss.audio_io import as_samples
from hpss.stft import Spectrogram, StftPlan, forward


def model_layout(data) -> np.ndarray:
    """The model's K x T copy of a package (T x K) array."""
    return np.ascontiguousarray(np.asarray(data).T)


def model_forward(x, config: StftConfig) -> np.ndarray:
    """The K x T coefficients of the package's ``forward``."""
    return model_layout(forward(x, config).data)


def package_spec(data: np.ndarray, config: StftConfig, n: int) -> Spectrogram:
    """The package (T x K) spectrogram of a signal of length n with the model's
    K x T coefficients ``data``."""
    return Spectrogram(data.T, config, n)


def bin_weights(config: StftConfig) -> np.ndarray:
    """One-sided bin weights [1, 2, ..., 2, 1] / L of the inner product."""
    w = np.full(config.n_bins, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w / config.win_len


def spec_inner(a: Spectrogram, b: Spectrogram, config: StftConfig) -> float:
    """Real inner product on spectrograms with one-sided bin weighting."""
    da, db = model_layout(a.data), model_layout(b.data)
    w = bin_weights(config)
    return float(np.sum(w[:, None] * np.real(da * np.conj(db))))


def spec_norm(a, config: StftConfig) -> float:
    return float(np.sqrt(max(spec_inner(a, a, config), 0.0)))


def phase_steps(v, config: StftConfig) -> np.ndarray:
    """The per-frame phase steps s = exp(-2 pi j a v / L), K x T, of the T x K
    IF map v, as cosine and sine of the phase a bin at IF v advances over one
    hop a; the last column is unused."""
    advance = 2 * np.pi * config.hop * model_layout(v) / config.win_len
    return np.cos(advance) - 1j * np.sin(advance)


def correction_matrix(v, config: StftConfig) -> np.ndarray:
    """E[:, 0] = 1, E[:, t] = E[:, t-1] s[:, t-1] for the map's steps s,
    renormalized to unit modulus."""
    e = np.cumprod(np.insert(phase_steps(v, config)[:, :-1], 0, 1.0, axis=1), axis=1)
    return np.divide(e, np.abs(e), out=e)


def ipc_forward(x, v, config: StftConfig) -> Spectrogram:
    """Phase-corrected STFT: E applied elementwise to the plain transform."""
    x = as_samples(x)
    data = model_forward(x, config)
    if np.shape(v) != data.shape[::-1]:
        raise ValueError("IF map shape does not match the spectrogram")
    return package_spec(correction_matrix(v, config) * data, config, x.size)


def ipc_adjoint(spec: Spectrogram, v, config: StftConfig) -> np.ndarray:
    """Adjoint of ``ipc_forward``: conjugate correction, then the STFT adjoint."""
    if np.shape(v) != spec.shape:
        raise ValueError("IF map shape does not match the spectrogram")
    data = np.conj(correction_matrix(v, config)) * model_layout(spec.data)
    return StftPlan(spec.config, spec.n_samples).adjoint(data.T)


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
    spec = ipc_forward(as_samples(x_h), problem.v, problem.config)
    data = model_layout(problem.weight) * time_diff(model_layout(spec.data))
    return package_spec(data, spec.config, spec.n_samples)


def apply_Lh_adj(spec: Spectrogram, problem: HpssProblem) -> np.ndarray:
    """Adjoint of ``apply_Lh``: F_ipc^* ( D_t^* (W o Y) )."""
    data = time_diff_adj(model_layout(problem.weight) * model_layout(spec.data))
    return ipc_adjoint(package_spec(data, spec.config, spec.n_samples), problem.v,
                       problem.config)


def objective(pair, problem: HpssProblem):
    """Evaluate (total, smooth_term, sparse_term) at the arrays (x_h, x_p)."""
    x_h, x_p = (as_samples(p) for p in pair)
    x = problem.mixture
    gap = np.linalg.norm(x - x_h - x_p)
    if gap > 1e-9 * max(np.linalg.norm(x), 1.0):
        raise ValueError("pair violates the exact-sum constraint")
    smooth = 0.5 * float(np.sum(np.abs(model_layout(apply_Lh(x_h, problem).data)) ** 2))
    sparse = problem.params.lam * l21_norm(model_forward(x_p, problem.config))
    return smooth + sparse, smooth, sparse


def two_variable_reference(problem, init):
    """The paper's iteration over the pair (x_h, x_p), step by step.

    Each iteration projects the primal gradient step onto the exact-sum
    constraint, takes both dual ascent steps with Moreau-form proximal
    updates, and relaxes primal and dual. Each trace row evaluates the
    objective directly at the point the dual steps transform,
    (2 t_h - x_h, 2 t_p - x_p) for the projected pair (t_h, t_p), and the
    increment of the relaxed pair. Returns (x_h, x_p, rows): both parts are
    iterated, so x_h + x_p = x holds only up to rounding.
    """
    p = problem.params
    x = problem.mixture
    config = problem.config
    x_h, x_p = split_sum_arrays(x, *init)
    y_h = model_layout(apply_Lh(np.zeros(x.size), problem).data)
    y_p = model_forward(np.zeros(x.size), config)
    lam_mu2 = p.lam * p.mu2
    rows = []
    for _ in range(p.n_iters):
        g_h = x_h - p.mu1 * apply_Lh_adj(package_spec(y_h, config, x.size), problem)
        g_p = x_p - p.mu1 * StftPlan(config, x.size).adjoint(y_p.T)
        t_h, t_p = split_sum_arrays(x, g_h, g_p)
        l_h = model_layout(apply_Lh(2.0 * t_h - x_h, problem).data)
        f_p = model_forward(2.0 * t_p - x_p, config)
        smooth = 0.5 * np.sum(np.abs(l_h) ** 2)
        sparse = p.lam * l21_norm(f_p)
        z_h = y_h + l_h
        z_p = y_p + f_p
        yt_h = z_h - p.mu2 * prox_sq_fro(z_h / p.mu2, 1.0 / p.mu2)
        yt_p = z_p - lam_mu2 * prox_l21(z_p / lam_mu2, 1.0 / p.mu2)
        new_h = p.alpha * t_h + (1.0 - p.alpha) * x_h
        new_p = p.alpha * t_p + (1.0 - p.alpha) * x_p
        inc = np.sqrt(np.sum((new_h - x_h) ** 2) + np.sum((new_p - x_p) ** 2))
        x_h, x_p = new_h, new_p
        y_h = p.alpha * yt_h + (1.0 - p.alpha) * y_h
        y_p = p.alpha * yt_p + (1.0 - p.alpha) * y_p
        rows.append((smooth + sparse, smooth, sparse, inc))
    return x_h, x_p, np.array(rows)


def reference_selection_network(n: int, lanes) -> tuple:
    """Merge exchange (Knuth, TAOCP 5.2.2M) on n lanes, pruned comparator by
    comparator to ``lanes``: (i, j, use_min, use_max) with i < j, where a flag
    marks an output read later."""
    t = (n - 1).bit_length()
    comps, p = [], (1 << t) >> 1
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            comps += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    live, kept = set(lanes), []
    for i, j in reversed(comps):
        if i in live or j in live:
            kept.append((i, j, i in live, j in live))
            live |= {i, j}
    return tuple(reversed(kept))


def reference_median_shrink(mag: np.ndarray, kernel: int, axis: int) -> np.ndarray:
    """Running median along one axis with shrinking windows at the edges, each
    full window through its own network."""
    out = np.empty_like(mag)
    half = kernel // 2
    n = mag.shape[axis]
    m = n - 2 * half
    if m > 0:
        width, rows = (m, mag.shape[0]) if axis == 1 else (mag.shape[1], m)
        step = max(1, (1 << 14) // max(width, 1))

        def lane(a, r0, r1, k):  # element k of the full windows in block rows r0:r1
            return a[r0:r1, k:k + m] if axis == 1 else a[r0 + k:r1 + k]

        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            x = [lane(mag, r0, r1, k) for k in range(kernel)]
            for i, j, use_min, use_max in reference_selection_network(kernel, [half]):
                a, b = x[i], x[j]
                x[i] = np.minimum(a, b) if use_min else None
                x[j] = np.maximum(a, b) if use_max else None
            lane(out, r0, r1, half)[...] = x[half]
    a, o = (mag, out) if axis == 1 else (mag.T, out.T)
    for i in range(min(half, n)):
        o[:, i] = np.median(a[:, : i + half + 1], axis=1)
        o[:, n - 1 - i] = np.median(a[:, max(n - 1 - i - half, 0) :], axis=1)
    return out


def reference_wav_bytes(samples: np.ndarray, rate: int, bit_depth) -> bytes:
    """The WAV file that ``write_wav`` writes for these samples: clipped to
    [-1, 1], rounded half to even through int64 and clipped again."""
    codec, bits = (3, 32) if bit_depth == "float32" else (1, int(bit_depth))
    samples = np.clip(samples, -1.0, 1.0)
    if bits == 16:
        ints = np.round(samples * 32768.0).astype(np.int64)
        payload = np.clip(ints, -32768, 32767).astype("<i2").tobytes()
    elif bits == 24:
        ints = np.round(samples * 8388608.0).astype(np.int64)
        ints = np.clip(ints, -8388608, 8388607).astype(np.int32)
        payload = (ints & 0xFFFFFF).astype("<u4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        payload = samples.astype("<f4").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ",
                         16, codec, 1, rate, rate * bits // 8, bits // 8, bits,
                         b"data", len(payload))
    return header + payload
