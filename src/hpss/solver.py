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
alpha: one adjoint and one forward STFT, with F(x) computed once. The
relaxed x_h is x_h + (alpha / 2)(u - x_h), formed in place in u. A trace
row scores u, the point the forward sweep transforms: its smooth term sums
|W P(F u)|^2 and its sparse term the frame norms of F(x) - F(u) block by
block, so the trace holds no spectrogram-sized array and takes no transform
of its own. Each transform is one sweep over the plan's frame blocks, and
the steps on spectrogram-sized arrays run block by block inside it, on
blocks in cache: P^*(W y_h) - y_p just before its inverse FFT, the dual
steps and the trace's sums just after the forward FFT, all on T x K arrays.
Each forward block arrives with the frame of F(u) before it, so the block's
W P(F u) and dual steps need no other block, and the plan's frame lanes run
them in parallel, each lane summing its own part of the trace. The loop
calls no BLAS routine: its sums of squares are einsums, since a BLAS call
leaves an OpenBLAS thread spinning on the core a lane needs.
The loop reads the weight in place and holds y_h unscaled, applying
c = alpha / (1 + mu2) to each block of W P(F u) after the trace reads it. It
keeps F(x), the steps g, the two duals, the signals and, per lane, the
block rows that both sweeps fill and one block of scratch.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .audio_io import _caller_stacklevel, _check_integers, _check_reals, as_samples
from .stft import StftConfig, StftPlan


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
        _check_reals(self, "lam", "mu1", "mu2", "alpha")
        _check_integers(self, "n_iters")
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise ValueError(f"record_trace must be a bool, got {self.record_trace!r}")
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
    """Per-iteration diagnostics: objective split and primal increment norm.

    Row k scores the point u_k = x_h - mu1 F^*(P^*(W y_h) - y_p) that iteration
    k transforms (2 t_h - x_h in the paper's two-variable form), with x_p =
    x - u_k; ``primal_increment`` is the step of the pair (x_h, x_p) that
    iteration k takes. So ``total[-1]`` is the objective at the last u, not at
    the x_h that ``run`` returns.
    """

    smooth: np.ndarray
    sparse: np.ndarray
    primal_increment: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.smooth + self.sparse

    def __len__(self) -> int:
        return self.smooth.size

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
    """Mixture, STFT geometry, T x K IF map ``v`` (in bin units, the phase
    correction), T x K weight, params."""

    mixture: np.ndarray
    config: StftConfig
    v: np.ndarray
    weight: np.ndarray
    params: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        x = as_samples(self.mixture)
        object.__setattr__(self, "mixture", x)
        shape = (self.config.n_frames(x.size), self.config.n_bins)
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "v", v)
        if v.shape != shape:
            raise ValueError("v (the IF map) shape does not match the mixture")
        if not (0.0 <= v.min() and v.max() <= self.config.win_len / 2):  # NaN fails both
            raise ValueError("v (the IF map) entries must lie in [0, L/2]")
        w = np.asarray(self.weight, dtype=np.float64)
        object.__setattr__(self, "weight", w)
        if w.shape != shape:
            raise ValueError("weight shape does not match the mixture")
        if not (0.0 < w.min() and w.max() <= 1.0):  # NaN fails both comparisons
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
            stacklevel=_caller_stacklevel(),
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
    non-finite sample of x_h or an energy (sum of squares) of x_h beyond the
    float64 range. ``separate`` normalizes its input, so it never is.
    """
    p = problem.params
    x_h = as_samples(x_h0)
    if x_h.shape != problem.mixture.shape:
        raise ValueError("initial x_h length does not match the mixture")
    rows = np.empty((p.n_iters if p.record_trace else 0, 3))
    if p.n_iters > 0:
        _check_step_sizes(problem)
        x_h = _iterate(problem, x_h, rows if p.record_trace else None)
    return x_h, SolverTrace(*np.ascontiguousarray(rows.T))


def _corrected_diff(data, g, w, out):
    """out = w P(X) on frames t0..t1-1 from ``data``, frames t0-1..t1-1 of X,
    with ``g``, ``w`` and ``out`` sliced to t0..t1-1; the caller sets P(X)[0] = 0."""
    np.multiply(g, data[:-1], out=out)
    np.subtract(data[1:], out, out=out)
    out *= w
    return out


def _corrected_diff_adjoint(y, g, w, t0, t1, out, scratch):
    """out[:t1 - t0] = P^*(w Y) on frames t0..t1-1 of the T x K arrays, where
    P^* multiplies by s[t] = conj(g[t+1]): reads frame t1 of Y and w, one frame
    of look-ahead. ``out`` has at least t1 - t0 + 1 rows, ``scratch`` t1 - t0."""
    t2 = min(t1 + 1, len(y))
    m = t2 - t0
    z = out[:m]
    np.multiply(y[t0:t2], w[t0:t2], out=z)
    s = np.conjugate(g[t0 + 1 : t2], out=scratch[: m - 1])  # ~1/3 the cost of z / g
    s *= z[1:]
    if t0 == 0:
        z[0] = 0.0
    z[:-1] -= s
    return out[: t1 - t0]


def _energy_overflows(x: np.ndarray) -> bool:
    """True iff ``x`` holds a non-finite sample or its energy exceeds the float64
    range; an overflowing or NaN sum is the answer, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return not math.isfinite(_energy(x))


def _energy(data: np.ndarray) -> float:
    """Sum of squared magnitudes of a C-contiguous array, by einsum: a BLAS dot
    here would leave an OpenBLAS thread spinning on the core another frame
    lane needs."""
    flat = data.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def _iterate(problem: HpssProblem, x_h: np.ndarray, rows: np.ndarray | None):
    """The loop on frame-major (T x K) arrays, one sweep over the plan's frame
    blocks per transform, the plan's lanes in parallel; fills the trace rows,
    returns x_h."""
    p = problem.params
    plan = StftPlan(problem.config, x_h.size)
    # the relaxed smooth-dual step is y_h <- (1 - alpha + c) y_h + c W P(F u)
    c = p.alpha / (1.0 + p.mu2)
    w = problem.weight  # read in place, never written
    fx = plan.forward(problem.mixture)
    # the IF map v predicts the phase steps s = exp(-2pi j a v / L) (Yatabe and Oikawa,
    # 2018); the loop holds g[t] = conj(s[t-1]), built in place, and never reads g[0]
    g = np.zeros_like(fx)
    phase = 2 * np.pi * (plan.config.hop / plan.config.win_len)
    np.multiply(problem.v[:-1], phase, out=g[1:].imag)
    np.exp(g, out=g)
    y_h, y_p = np.zeros_like(fx), np.zeros_like(fx)
    # per lane: rows ``a`` (F(u) with the frame before a block, or the adjoint's
    # block with a frame of look-ahead), scratch (conj(g), or d and W P(F u)), sums
    a = plan.block_rows()
    scratch = np.empty_like(a[:, 1:])
    sums = np.zeros((len(a), 2))

    def primal_residual(lane, t0, t1):  # frames t0..t1-1 of P^*(W y_h) - y_p
        block = _corrected_diff_adjoint(y_h, g, w, t0, t1, a[lane], scratch[lane])
        block -= y_p[t0:t1]
        return block

    def dual_steps(lane, t0, t1, fu):  # fu holds frames t0-1..t1-1 of F(u)
        frames = slice(t0, t1)
        # percussive dual: frames of y_p + F(x) - F(u) projected onto the lam-ball
        d = np.subtract(fx[frames], fu[1:], out=scratch[lane, : t1 - t0])
        if rows is not None:
            sums[lane, 1] += float(np.sum(_frame_norms(d)))
        d += y_p[frames]
        d *= (p.alpha * p.lam / np.maximum(_frame_norms(d), p.lam))[:, None]
        yp = y_p[frames]
        yp *= 1.0 - p.alpha
        yp += d

        # smooth dual: z_h = y_h + W P(F u), Moreau step z_h / (1 + mu2)
        lu = _corrected_diff(fu, g[frames], w[frames], d)
        if t0 == 0:
            lu[0] = 0.0  # P(X)[0] = 0
        if rows is not None:
            sums[lane, 0] += _energy(lu)
        lu *= c
        yh = y_h[frames]
        yh *= 1.0 - p.alpha + c
        yh += lu

    for it in range(p.n_iters):
        # primal: u = x_h - mu1 F^*(P^*(W y_h) - y_p), in the adjoint's output
        u = plan.adjoint_blocks(primal_residual)
        u *= -p.mu1
        u += x_h
        sums[...] = 0.0  # the trace row scores u from the blocks of F(u)
        plan.forward_blocks(u, dual_steps, a)

        # alpha (u + x_h) / 2 + (1 - alpha) x_h = x_h + step, in place in u
        step = u
        step -= x_h
        step *= 0.5 * p.alpha
        if rows is not None:  # x_p moves by -step
            smooth, sparse = sums.sum(axis=0)
            rows[it] = 0.5 * smooth, p.lam * sparse, np.sqrt(2.0 * _energy(step))
        step += x_h
        if _energy_overflows(step):
            raise SolverDivergenceError(it + 1)
        x_h = step
    return x_h
