"""End-to-end separation pipeline and its configuration.

Ties together instantaneous-frequency estimation, the median-filter
pre-estimate (initializer and smoothness weight), and the primal-dual
solver. The mixture is gain-normalized internally (reference level: a
full-scale sine, RMS 1/sqrt(2)) so the sparsity weight has a consistent
meaning regardless of input loudness, and outputs are scaled back; the
whole pipeline is therefore exactly equivariant to input gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import Signal, _check_reals, as_samples
from .baseline import MedianConfig, compute_weight, median_filter_hpss
from .phase import estimate_if, if_from_spectra
from .prox import SignalPair
from .solver import HpssProblem, SolverParams, run
from .stft import StftConfig, StftPlan

REFERENCE_RMS = 2.0**-0.5

IF_SOURCE_MIXTURE = "mixture"
IF_SOURCE_ORACLE = "oracle-file"


@dataclass(frozen=True)
class HpssConfig:
    """Pipeline configuration with the evaluated defaults."""

    win_len: int = 4096
    hop: int = 1024
    kappa: float = 0.001
    solver: SolverParams = field(default_factory=SolverParams)
    median: MedianConfig = field(default_factory=MedianConfig)
    if_source: str = IF_SOURCE_MIXTURE

    def __post_init__(self):
        if self.if_source not in (IF_SOURCE_MIXTURE, IF_SOURCE_ORACLE):
            raise ValueError(f"unknown if_source: {self.if_source!r}")
        _check_reals(self, "kappa")
        if not 0.0 < self.kappa < np.inf:  # NaN fails every comparison
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        self.stft()  # a bad geometry fails here, not at the first transform

    def stft(self) -> StftConfig:
        return StftConfig(self.win_len, self.hop)


def separate(x, cfg: HpssConfig = HpssConfig(), oracle_h=None):
    """Separate a mixture into harmonic and percussive components.

    Pipeline: STFT of the mixture, instantaneous-frequency estimation
    (from the mixture or, when configured, from a supplied clean
    harmonic reference), median-filter initialization and pre-estimate,
    smoothness weight, then the primal-dual solver, which builds the
    per-frame phase-correction steps from the IF map. The returned pair
    sums to the input bit-exactly. ``oracle_h`` is required iff
    ``cfg.if_source`` is the oracle source; either mismatch raises
    ``ValueError``.
    """
    samples = as_samples(x)
    rate = x.sample_rate if isinstance(x, Signal) else 1

    if cfg.if_source == IF_SOURCE_ORACLE:
        if oracle_h is None:
            raise ValueError("if_source is oracle-file but no oracle signal given")
        oracle = as_samples(oracle_h)
        if oracle.size != samples.size:
            raise ValueError("oracle signal length does not match the mixture")
        if (isinstance(x, Signal) and isinstance(oracle_h, Signal)
                and oracle_h.sample_rate != rate):
            raise ValueError(
                f"oracle sample rate {oracle_h.sample_rate} Hz does not match "
                f"the mixture's {rate} Hz"
            )
    elif oracle_h is not None:
        raise ValueError(
            f"an oracle signal needs if_source={IF_SOURCE_ORACLE!r}, not {cfg.if_source!r}"
        )
    else:
        oracle = None

    # the power of two that brings the peak into [0.5, 1) keeps the gain below
    # finite for a subnormal mixture and the mean square from overflowing; it
    # rounds only samples it takes below the normal range
    exp = int(np.frexp(np.max(np.abs(samples)))[1])
    xs = np.ldexp(samples, -exp)
    rms = float(np.sqrt(np.mean(xs * xs)))
    gain = REFERENCE_RMS / rms if rms > 0.0 else 1.0
    xs *= gain

    config = cfg.stft()
    if oracle is not None:  # at the mixture's scaling
        v = estimate_if(np.ldexp(oracle, -exp) * gain, config)
    plan = StftPlan(config, xs.size)
    spec = plan.forward(xs)
    mag = np.abs(spec)  # the IF's, the median filter's, then the weight's |X|
    if oracle is None:
        v = if_from_spectra(mag, spec, plan.forward(xs, config.deriv_window))
    mask = median_filter_hpss(mag, cfg.median)
    spec *= mask
    x_h0 = plan.adjoint(spec)
    mag *= mask
    weight = compute_weight(mag, cfg.kappa)
    del plan, spec, mag, mask, oracle  # the solver's working set need not stack on these

    problem = HpssProblem(xs, config, v, weight, cfg.solver)
    x_h, trace = run(problem, x_h0)
    x_h = x_h / gain
    np.ldexp(x_h, exp, out=x_h)
    x_p = samples - x_h
    return SignalPair(Signal(x_h, rate), Signal(x_p, rate)), trace


# flat config key -> (HpssConfig section or None, field, value parser)
CONFIG_KEYS = {
    "win_len": (None, "win_len", int),
    "hop": (None, "hop", int),
    "lambda": ("solver", "lam", float),
    "kappa": (None, "kappa", float),
    "mu1": ("solver", "mu1", float),
    "mu2": ("solver", "mu2", float),
    "alpha": ("solver", "alpha", float),
    "iters": ("solver", "n_iters", int),
    "harm_kernel": ("median", "harm_kernel", int),
    "perc_kernel": ("median", "perc_kernel", int),
}


def with_values(base: HpssConfig, values: dict) -> HpssConfig:
    """``base`` with the fields named by the flat keys of ``values`` replaced."""
    top, nested = {}, {}
    for key, value in values.items():
        section, name, _ = CONFIG_KEYS[key]
        (nested.setdefault(section, {}) if section else top)[name] = value
    sections = {s: replace(getattr(base, s), **f) for s, f in nested.items()}
    return replace(base, **top, **sections)


def parse_config_text(text: str, base: HpssConfig = HpssConfig()) -> HpssConfig:
    """Parse the flat key-value configuration format.

    One ``key = value`` pair per line, keys from ``CONFIG_KEYS``; '#'
    starts a comment; every key is optional, may appear once, and missing
    keys keep the defaults of ``base``.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key][2](val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}") from exc
    return with_values(base, values)


def load_config(path, base: HpssConfig = HpssConfig()) -> HpssConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)
