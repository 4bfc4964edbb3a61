"""Primal-dual splitting iteration for the phase-aware separation problem.

Minimizes  (1/2) || W o D_t(F_ipc(x_h)) ||_Fro^2  +  lambda || F(x_p) ||_{2,1}
subject to x_h + x_p = x by the primal-dual splitting of Condat (2013) and
Vu (2013): projection onto the exact-sum constraint, Moreau-form proximal
updates of two dual spectrograms y_h and y_p, and a relaxation. Only the
linear operators and their adjoints are applied, never inverses.

Every iterate has x_p = x - x_h, so one primal variable carries the pair.
The loop runs in the corrected dual conj(E) y_h, where P = conj(E) D_t E is
P(X)[t] = X[t] - conj(s[t-1]) X[t-1] for the per-frame phase step s. With
u = x_h - mu1 F^*(P^*(W y_h) - y_p), an iteration sets y_p from the frames of
y_p + F(x) - F(u) projected onto the l2 ball of radius lambda, y_h from
(y_h + W P(F u)) / (1 + mu2), and x_h from (u + x_h) / 2, each relaxed by
alpha: one adjoint and one forward STFT, with F(x) computed once. The trace
follows F(x_p) and W P(F x_h) by the same relaxation, at no transform cost.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .audio_io import as_samples
from .phase import IfMap, build_correction
from .stft import StftPlan


class SolverDivergenceError(RuntimeError):
    """Raised when an iterate's energy overflows (wrong step sizes fail loudly)."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged: non-finite value at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverParams:
    """Iteration hyperparameters; defaults follow the evaluated setup."""

    lam: float = 0.5
    mu1: float = 1.0
    mu2: float = 0.25
    alpha: float = 0.5
    n_iters: int = 100
    record_trace: bool = True

    def __post_init__(self):
        for name in ("lam", "mu1", "mu2"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.n_iters < 0:
            raise ValueError("n_iters must be non-negative")


@dataclass
class SolverTrace:
    """Per-iteration diagnostics: objective split and primal increment norm."""

    total: np.ndarray
    smooth: np.ndarray
    sparse: np.ndarray
    primal_increment: np.ndarray

    def __len__(self) -> int:
        return self.total.size

    def write_csv(self, path) -> None:
        columns = (self.total, self.smooth, self.sparse, self.primal_increment)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "total", "smooth_term", "sparse_term", "primal_increment"]
            )
            for i, row in enumerate(zip(*columns), 1):
                writer.writerow([i, *(repr(float(v)) for v in row)])


@dataclass(frozen=True)
class HpssProblem:
    """Mixture, IF map (phase correction and geometry), smoothness weight, params."""

    mixture: np.ndarray
    if_map: IfMap
    weight: np.ndarray
    params: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        x = as_samples(self.mixture)
        object.__setattr__(self, "mixture", x)
        config = self.if_map.config
        shape = (config.n_bins, config.n_frames(x.size))
        if self.if_map.v.shape != shape:
            raise ValueError("IF map shape does not match the mixture")
        w = np.asarray(self.weight, dtype=np.float64)
        object.__setattr__(self, "weight", w)
        if w.shape != shape:
            raise ValueError("weight shape does not match the mixture")
        if w.min() <= 0.0 or w.max() > 1.0:
            raise ValueError("weight entries must lie in (0, 1]")


def _check_step_sizes(problem: HpssProblem) -> None:
    # provable bound |L|^2 <= max(1, 4 max(W)^2): F is a tight frame,
    # |E| = 1 and |D_t| <= 2; the defaults sit on it (1 * 0.25 * 4 = 1)
    p = problem.params
    bound = max(1.0, 4.0 * float(problem.weight.max()) ** 2)
    if p.mu1 * p.mu2 * bound > 1.0:
        warnings.warn(
            f"step-size product mu1*mu2*B = {p.mu1 * p.mu2 * bound:.3f} exceeds 1, "
            f"where B = max(1, 4 max(W)^2) = {bound:.3f} is the certified bound "
            "on |L|^2; the iteration may not converge",
            stacklevel=2,
        )


def _frame_norms(data: np.ndarray) -> np.ndarray:
    """Per-frame l2 norms of a frame-major complex array."""
    return np.sqrt(np.einsum("ij,ij->i", data.view(np.float64), data.view(np.float64)))


def run(problem: HpssProblem, x_h0):
    """Run the primal-dual iteration from the initial harmonic part ``x_h0``.

    The percussive part is x - x_h at every iterate, and both duals start at
    zero. Returns the final x_h and the trace; at 0 iterations x_h is the
    samples of ``x_h0``, untouched.

    A mixture handed to ``run`` directly with energy near the float64 limit
    (|x| of about 1e150 or more) is reported as diverged: divergence is a
    non-finite ``x_h @ x_h``. ``separate`` normalizes its input, so it never is.
    """
    p = problem.params
    x_h = as_samples(x_h0)
    if x_h.shape != problem.mixture.shape:
        raise ValueError("initial x_h length does not match the mixture")
    rows = np.empty((p.n_iters if p.record_trace else 0, 4))
    if p.n_iters > 0:
        _check_step_sizes(problem)
        x_h = _iterate(problem, x_h, rows if p.record_trace else None)
    return x_h, SolverTrace(*np.ascontiguousarray(rows.T))


def _corrected_diff(data, g, w, out, scratch, adjoint=False):
    """out = w P(X) on T x K arrays, P(X)[t] = X[t] - g[t] X[t-1], P(X)[0] = 0;
    with ``adjoint``, out = P^*(w Y), where P^* multiplies by s[t] = conj(g[t+1])."""
    if adjoint:
        np.multiply(data, w, out=out)
        np.conjugate(g[1:], out=scratch[1:])  # with the product, ~1/3 the cost of out / g
        scratch[1:] *= out[1:]
        out[0] = 0.0
        out[:-1] -= scratch[1:]
    else:
        np.multiply(g[1:], data[:-1], out=scratch[1:])
        np.subtract(data[1:], scratch[1:], out=out[1:])
        out[0] = 0.0
        out *= w
    return out


def _iterate(problem: HpssProblem, x_h: np.ndarray, rows: np.ndarray | None):
    """The loop on frame-major (T x K) arrays; fills the trace rows, returns x_h."""
    p = problem.params
    plan = StftPlan(problem.if_map.config, x_h.size)
    # the relaxed smooth-dual step is y_h <- (1 - alpha + c) y_h + c W P(F u); the
    # loop holds y_h / sqrt(c) and w = sqrt(c) W, so neither it nor W y_h scales
    c = p.alpha / (1.0 + p.mu2)
    w = np.ascontiguousarray(problem.weight.T) * np.sqrt(c)
    fx = plan.forward(problem.mixture)
    g = np.empty_like(fx)  # g[t] = conj(s[t-1]); g[0] is never read
    np.conjugate(build_correction(problem.if_map)[:, :-1].T, out=g[1:])
    y_h, y_p, fu, a = (np.zeros_like(fx) for _ in range(4))
    beta = 0.5 * p.alpha  # x_h <- x_h + beta (u - x_h), and so every image of it
    if rows is not None:
        plan.forward(x_h, out=fu)
        f_p = fx - fu  # F(x_p)
        l_h = _corrected_diff(fu, g, w, np.empty_like(fu), a)  # sqrt(c) W P(F x_h)

    for it in range(p.n_iters):
        # primal: u = x_h - mu1 F^*(P^*(W y_h) - y_p)
        _corrected_diff(y_h, g, w, a, fu, adjoint=True)
        a -= y_p
        u = x_h - p.mu1 * plan.adjoint(a)
        plan.forward(u, out=fu)

        # percussive dual: frames of y_p + F(x) - F(u) projected onto the lam-ball
        np.subtract(fx, fu, out=a)
        if rows is not None:  # f_p <- (1 - beta) f_p + beta F(x - u)
            f_p -= a
            f_p *= 1.0 - beta
            f_p += a
        a += y_p
        a *= (p.alpha * p.lam / np.maximum(_frame_norms(a), p.lam))[:, None]
        y_p *= 1.0 - p.alpha
        y_p += a

        # smooth dual: z_h = y_h + W P(F u), Moreau step z_h / (1 + mu2)
        lu = _corrected_diff(fu, g, w, fu, a)
        if rows is not None:
            l_h -= lu
            l_h *= 1.0 - beta
            l_h += lu
        y_h *= 1.0 - p.alpha + c
        y_h += lu

        new_h = p.alpha * (0.5 * (u + x_h)) + (1.0 - p.alpha) * x_h
        if not np.isfinite(new_h @ new_h):  # also catches non-finite samples
            raise SolverDivergenceError(it + 1)
        if rows is not None:
            smooth = 0.5 * float(np.vdot(l_h, l_h).real) / c
            sparse = p.lam * float(np.sum(_frame_norms(f_p)))
            step = np.sqrt(2.0) * np.linalg.norm(new_h - x_h)  # x_p moves by -step
            rows[it] = smooth + sparse, smooth, sparse, step
        x_h = new_h
    return x_h
