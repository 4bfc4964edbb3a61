"""Benchmark runner: the three methods on the seeded synthetic corpus."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace

from .baseline import mf_separate
from .metrics import EvalResult, bss_eval
from .pipeline import IF_SOURCE_ORACLE, HpssConfig, separate
from .synth import bench_corpus

METHODS = ("mf", "prop-mix", "prop-ora")


def run_bench(out_dir=None, seed: int = 0, n_tracks: int = 10,
              sample_rate: int = 16000, duration: float = 2.5,
              cfg: HpssConfig | None = None, filter_len: int = 512):
    """Run mf / prop-mix / prop-ora over the corpus.

    Returns (rows, means) where rows are the per-track CSV rows followed
    by one mean row per method, and means maps method name to its mean
    EvalResult. When out_dir is given, writes bench_results.csv plus
    per-run solver trace CSVs; traces are recorded only then.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if n_tracks < 1:
        raise ValueError(f"the benchmark needs at least one track, got {n_tracks}")
    if sample_rate < 1:
        raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    try:
        n_samples = int(sample_rate * duration)
    except OverflowError:  # an int rate beyond the float range, or an infinite product
        raise ValueError("sample_rate * duration exceeds the float range") from None
    if n_samples < 1:
        raise ValueError(f"a duration of {duration} s at {sample_rate} Hz holds no sample")
    if filter_len < 1:
        raise ValueError(f"filter_len must be >= 1, got {filter_len}")
    if filter_len > n_samples:
        raise ValueError(f"filter_len {filter_len} exceeds the track length {n_samples}")
    cfg = HpssConfig(win_len=1024, hop=256) if cfg is None else cfg
    cfg = replace(cfg, solver=replace(cfg.solver, record_trace=bool(out_dir)))
    config = cfg.stft()
    tracks = bench_corpus(seed=seed, n_tracks=n_tracks,
                          sample_rate=sample_rate, duration=duration)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    rows = []
    results = {m: [] for m in METHODS}
    for track in tracks:
        outputs = {
            "mf": (mf_separate(track.mixture, config, cfg.median), None),
            "prop-mix": separate(track.mixture, cfg),
            "prop-ora": separate(track.mixture, replace(cfg, if_source=IF_SOURCE_ORACLE),
                                 oracle_h=track.harmonic),
        }
        for method, (pair, trace) in outputs.items():
            res = bss_eval(track.harmonic, track.percussive,
                           pair.harmonic, pair.percussive, filter_len)
            results[method].append(res)
            rows.append(res.row(track.name, method))
            if out_dir and trace is not None and len(trace):
                trace.write_csv(
                    os.path.join(out_dir, f"trace_{method}_{track.name}.csv")
                )

    means = {m: EvalResult.mean(results[m]) for m in METHODS}
    rows += [means[m].row("mean", m) for m in METHODS]
    if out_dir:
        with open(os.path.join(out_dir, "bench_results.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EvalResult.HEADER)
            writer.writerows(rows)
    return rows, means
