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
from .phase import estimate_if
from .pipeline import HpssConfig, load_config, parse_config_text, separate
from .prox import SignalPair
from .solver import HpssProblem, SolverDivergenceError, SolverParams, SolverTrace, run
from .stft import StftConfig

__all__ = [
    "EvalResult",
    "HpssConfig",
    "HpssProblem",
    "MedianConfig",
    "Signal",
    "SignalPair",
    "SolverDivergenceError",
    "SolverParams",
    "SolverTrace",
    "StftConfig",
    "bss_eval",
    "bss_eval_sources",
    "compute_weight",
    "estimate_if",
    "load_config",
    "median_filter_hpss",
    "mf_separate",
    "parse_config_text",
    "read_wav",
    "run",
    "separate",
    "write_wav",
]
