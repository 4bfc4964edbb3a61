"""Run one hpss benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tone-bursts-5s --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
of the same checkout. The report goes to standard output, ending with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones of one traced
round. Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tone-bursts-5s", "corpus-16k", "long-30s", "wav-mf-eval")
LIMITS = (
    "timings use per-process timers (time.perf_counter) and memory uses "
    "tracemalloc only; no system-wide tracing, cache drops or cgroup changes",
    "stft bytes are computed from array shapes and do not count cache misses; "
    "no bandwidth ratio is reported, because a 42 MB spectrogram cannot reach "
    "4x the shared L3",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the usable cores; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(cores))
    return cores


def machine(cores: int) -> dict:
    import numpy
    import scipy

    info = {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        info["blas"] = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def tail(samples):
    """(p, value): the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            rank = max(1, -(-int(p * n) // 100))
            return p, ordered[rank - 1]
    return None


def render(args, result, info) -> list:
    """Report lines for one run; the last is the JSON result line."""
    from perfbench.workloads import END_TO_END, PER_LAYER, REPORT_ONLY, WORKLOADS

    if args.trace:
        final = list(PER_LAYER)
        shown = final
    else:
        final = [(m, u) for m, u, _ in END_TO_END]
        shown = final + list(REPORT_ONLY)
    w = WORKLOADS[args.workload]
    lines = [
        f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"why: {w.why}",
        f"stresses: {', '.join(w.stresses)}; bypasses: {', '.join(w.bypasses)}",
        "machine: " + " ".join(f"{k}={v}" for k, v in info.items()),
    ]
    lines += [f"limits: {text}" for text in LIMITS]
    for metric, unit in shown:
        if metric not in result["metrics"]:
            lines.append(f"  {metric:34s} {'-':>14s} {unit}  (not run by this workload)")
            continue
        line = f"  {metric:34s} {result['metrics'][metric]:14.6g} {unit}"
        samples = result["samples"].get(metric, []) if not args.trace else []
        if samples:
            pct = tail(samples)
            line += f"  (median of n={len(samples)}"
            line += f", p{pct[0]:g}={pct[1]:.6g})" if pct else ")"
        lines.append(line)
    lines.append(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    lines += [f"  FAILED {e}" for e in result["errors"][:20]]
    if result["warnings"]:
        lines.append(f"  warnings: {result['warnings']}")
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": float(result["metrics"][m]), "unit": u}
                    for m, u in final},
    }))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hpss" / "__init__.py").is_file():
        print(f"error: no hpss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import hpss

    if not Path(hpss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: hpss imported from {hpss.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in render(args, result, machine(cores)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
