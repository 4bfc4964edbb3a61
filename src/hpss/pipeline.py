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

from .audio_io import Signal, as_samples
from .baseline import MedianConfig, compute_weight, median_filter_hpss
from .phase import estimate_if, if_from_spectra
from .prox import SignalPair
from .solver import HpssProblem, SolverParams, run
from .stft import StftConfig, adjoint, forward, make_config

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
        if not 0.0 < self.kappa < np.inf:  # NaN fails every comparison
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    def stft(self) -> StftConfig:
        return make_config(self.win_len, self.hop)


def _rms(samples: np.ndarray) -> float:
    """Root mean square, scaled by the peak so no square overflows or underflows."""
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return 0.0
    scaled = samples / peak
    return peak * float(np.sqrt(np.mean(scaled * scaled)))


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

    rms = _rms(samples)
    gain = REFERENCE_RMS / rms if rms > 0.0 else 1.0
    xs = samples * gain

    config = cfg.stft()
    spec = forward(xs, config)
    if oracle is None:
        if_map = if_from_spectra(spec, forward(xs, config, window=config.deriv_window))
    else:
        if_map = estimate_if(oracle * gain, config)

    _, _, mask = median_filter_hpss(spec, cfg.median)
    x_h0 = adjoint(spec.with_data(mask * spec.data))
    weight = compute_weight(mask * np.abs(spec.data), cfg.kappa)
    del spec, mask  # the solver's working set need not stack on these

    problem = HpssProblem(
        mixture=xs,
        if_map=if_map,
        weight=weight,
        params=cfg.solver,
    )
    x_h, trace = run(problem, x_h0)
    x_h = x_h / gain
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
    "mask_power": ("median", "mask_power", float),
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
    starts a comment; every key is optional and missing keys keep the
    defaults of ``base``.
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
        try:
            values[key] = CONFIG_KEYS[key][2](val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}") from exc
    return with_values(base, values)


def load_config(path, base: HpssConfig = HpssConfig()) -> HpssConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)
