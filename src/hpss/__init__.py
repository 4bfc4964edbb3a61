"""Phase-aware harmonic/percussive source separation.

Separates an audio mixture into harmonic and percussive time-domain
signals by convex optimization over both channels jointly: a weighted
time-smoothness penalty on the phase-corrected spectrogram of the
harmonic part, a frame-wise group-sparsity penalty on the percussive
spectrogram, and an exact time-domain reconstruction constraint, solved
with a primal-dual splitting algorithm. Includes a median-filter
baseline, BSS-Eval style metrics, and a synthetic benchmark.
"""

__version__ = "0.1.0"

from .audio_io import Signal, read_wav, write_wav
from .baseline import MedianConfig, compute_weight, median_filter_hpss, mf_separate
from .metrics import EvalResult, bss_eval, bss_eval_sources
from .phase import (
    IfMap,
    PhaseCorrection,
    build_correction,
    estimate_if,
    ipc_adjoint,
    ipc_forward,
    time_diff,
    time_diff_adj,
)
from .pipeline import HpssConfig, load_config, parse_config_text, separate
from .prox import SignalPair, l21_norm, prox_l21, prox_sq_fro
from .solver import (
    HpssProblem,
    SolverDivergenceError,
    SolverParams,
    SolverTrace,
    apply_Lh,
    apply_Lh_adj,
    objective,
    run,
)
from .stft import (
    Spectrogram,
    StftConfig,
    adjoint,
    forward,
    make_config,
    make_hann,
    spec_inner,
    spec_norm,
)

__all__ = [
    "EvalResult",
    "HpssConfig",
    "HpssProblem",
    "IfMap",
    "MedianConfig",
    "PhaseCorrection",
    "Signal",
    "SignalPair",
    "SolverDivergenceError",
    "SolverParams",
    "SolverTrace",
    "Spectrogram",
    "StftConfig",
    "adjoint",
    "apply_Lh",
    "apply_Lh_adj",
    "bss_eval",
    "bss_eval_sources",
    "build_correction",
    "compute_weight",
    "estimate_if",
    "forward",
    "ipc_adjoint",
    "ipc_forward",
    "l21_norm",
    "load_config",
    "make_config",
    "make_hann",
    "median_filter_hpss",
    "mf_separate",
    "objective",
    "parse_config_text",
    "prox_l21",
    "prox_sq_fro",
    "read_wav",
    "run",
    "separate",
    "spec_inner",
    "spec_norm",
    "time_diff",
    "time_diff_adj",
    "write_wav",
]
