"""The four benchmark workloads, their correctness checks and their metrics.

Every workload is built from a seed; the package only ever sees the
generated inputs, and the time spent generating them is never counted.
End-to-end metrics come from untraced runs. A traced run (``trace=True``)
repeats one round of the workload with span wrappers installed and turns
the spans into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

import hpss.audio_io
import hpss.baseline
import hpss.cli
import hpss.metrics
import hpss.pipeline
import hpss.stft
from hpss.pipeline import IF_SOURCE_ORACLE, HpssConfig
from hpss.solver import SolverParams
from hpss.stft import Spectrogram
from hpss.synth import bench_corpus, bench_track, criterion_mixture

from . import spans

# Iterations of the untimed memory pass. The solver's working set is fully
# allocated by the third iteration: at the seed commit the tracemalloc peak
# of a 3-iteration separation of the tone-bursts input is within 0.01% of
# the 100-iteration peak, at a thirtieth of the cost.
MEM_ITERS = 3
# criterion-8 quality floors of the paper's configuration (dB)
TONE_FLOORS = (15.0, 10.0)
EVAL_TAPS = 512
EVAL_REPS = 2  # bss_eval repeats per output on tone-bursts-5s and long-30s
SECOND_MIXTURE = 1_000_000  # seed offset of tone-bursts-5s's second mixture
WAV_HEADROOM = 0.5  # mixtures at half scale, so 16-bit stems never clip

# (name, unit, better) of every end-to-end metric in the final result line
END_TO_END = (
    ("separate_s", "s", "lower"),
    ("audio_s_per_s", "audio-s/s", "higher"),
    ("setup_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("peak_mb_per_audio_s", "MB/audio-s", "lower"),
    ("sdr_h_db", "dB", "higher"),
    ("sdr_p_db", "dB", "higher"),
)
# end-to-end metrics printed in the report only: they exist on some
# workloads, or are zero at the seed commit
REPORT_ONLY = (
    ("mf_s", "s"),
    ("sdr_h_ora_db", "dB"),
    ("sdr_h_mf_db", "dB"),
    ("failed_frac", "ratio"),
)

# layer functions whose median layer-self time per call is reported
TIMED_CALLS = (
    "stft.forward", "stft.adjoint",
    "phase.estimate_if", "phase.build_correction",
    "phase.ipc_forward", "phase.ipc_adjoint",
    "baseline.median_filter_hpss",
    "prox.prox_l21", "prox.prox_sq_fro", "prox.split_sum_arrays",
    "metrics.bss_eval",
    "audio_io.read_wav", "audio_io.write_wav",
)
PEAK_CALLS = ("solver.run", "phase.build_correction", "baseline.median_filter_hpss")

PER_LAYER = (
    tuple((f"{name}_ms", "ms") for name in TIMED_CALLS)
    + (
        ("stft.forward_calls", "count"),
        ("stft.adjoint_calls", "count"),
        ("stft.bytes_per_call", "bytes"),
        ("prox.l21_zero_frame_frac", "ratio"),
        ("prox.l21_columns", "count"),
        ("solver.run_self_ms", "ms"),
        ("solver.trace_ms_per_iter", "ms"),
        ("solver.iters", "count"),
        ("solver.run_calls", "count"),
        ("solver.estimate_opnorm_calls", "count"),
        ("pipeline.separate_self_ms", "ms"),
        ("metrics.ridge_warnings", "count"),
        ("audio_io.clip_warnings", "count"),
        ("cli.main_self_ms", "ms"),
    )
    + tuple((f"{name}.peak_mb", "MB") for name in PEAK_CALLS)
    + tuple((f"{layer}.self_s", "s") for layer in spans.LAYERS)
    + (
        ("trace.separate_untraced_s", "s"),
        ("trace.separate_traced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.round_s", "s"),
        ("trace.layer_self_s", "s"),
        ("trace.coverage", "ratio"),
    )
)

WARNING_KINDS = {
    "audio_io.clip_warnings": "clipping",
    "metrics.ridge_warnings": "singular projection",
    "solver.step_size_warnings": "step-size product",
}


class Run:
    """Timing samples, values, failure counts and the clock of one run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.audio_s = 0.0
        self.busy_s = 0.0
        self.recorder: spans.Recorder | None = None
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def another_round(self, last: float) -> bool:
        """Whether a round as long as the last one would end within half a
        round of the run's length, so a run overshoots by half a round at most."""
        return self.elapsed() + last / 2 <= self.seconds

    def op(self, metric, check, fn, *args, **kwargs):
        """Time one operation, then check its output outside the timing.

        Returns (result, seconds); result is None when the call raised or
        the check failed. Every attempt is counted, and a failed one keeps
        its timing sample.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if metric is not None:
            self.samples.setdefault(metric, []).append(elapsed)
        if error is None and check is not None:
            error = self._check(check, result)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{metric or getattr(fn, '__name__', 'op')}: {error}")
            return None, elapsed
        return result, elapsed

    def _check(self, check, result):
        paused = self.recorder.paused() if self.recorder else contextlib.nullcontext()
        with paused:
            try:
                return check(result)
            except Exception as exc:  # a check that cannot run is a failure
                return f"check raised {type(exc).__name__}: {exc}"


def count_warnings(caught) -> Counter:
    counts = Counter()
    for w in caught:
        for name, text in WARNING_KINDS.items():
            if text in str(w.message):
                counts[name] += 1
    return counts


def memory_pass(peaks: spans.PeakRecorder, fn, *args, **kwargs):
    """Run fn under tracemalloc; returns (result, peak bytes above entry)."""
    tracemalloc.start()
    try:
        result = peaks.measure("op", fn, *args, **kwargs)
    finally:
        tracemalloc.stop()
    return result, peaks.peaks["op"]


# ---------------------------------------------------------------- checks

def _pair_of(result):
    return result[0] if isinstance(result, tuple) else result


def exact_sum_error(x, h, p):
    """None when h and p are finite and x - h - p is exactly zero."""
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(p))):
        return "non-finite output"
    if h.shape != x.shape or p.shape != x.shape:
        return "output length differs from the input"
    gap = float(np.max(np.abs(x - h - p)))
    if gap != 0.0:
        return f"max|x - x_h - x_p| = {gap!r}, not 0.0"
    return None


def check_pair(x):
    def check(result):
        pair = _pair_of(result)
        return exact_sum_error(x, pair.harmonic.samples, pair.percussive.samples)

    return check


def check_scores(floors=None):
    def check(res):
        values = (res.sdr_h, res.sir_h, res.sar_h, res.sdr_p, res.sir_p, res.sar_p)
        if not all(math.isfinite(v) for v in values):
            return "non-finite BSS-Eval score"
        if floors is not None and (res.sdr_h < floors[0] or res.sdr_p < floors[1]):
            return (f"SDR below the criterion-8 floors: h {res.sdr_h:.2f} dB, "
                    f"p {res.sdr_p:.2f} dB")
        return None

    return check


def with_iters(cfg: HpssConfig, n_iters: int, record_trace=None) -> HpssConfig:
    solver = replace(cfg.solver, n_iters=n_iters)
    if record_trace is not None:
        solver = replace(solver, record_trace=record_trace)
    return replace(cfg, solver=solver)


# ------------------------------------------------------- solver workloads

@dataclass
class SolverSpec:
    """tone-bursts-5s, corpus-16k and long-30s: separations through the API.

    One round separates one track. With ``baselines`` a round does what
    ``hpss bench`` does per track: mf, prop-mix and prop-ora, each scored
    by a timed ``bss_eval``. Otherwise each track's first prop-mix output is
    scored ``EVAL_REPS`` times outside the separation timing.
    """

    tracks: list
    cfg: HpssConfig
    baselines: bool
    setup_reps: int
    floors: tuple | None = None
    scores: dict = field(default_factory=dict)

    def __post_init__(self):
        self.stft_cfg = self.cfg.stft()

    def round(self, run: Run, track, first_pass: bool) -> dict:
        x = track.mixture
        check = check_pair(x.samples)
        out = {}
        busy = 0.0
        if self.baselines:
            out["mf"], t = run.op("mf_s", check, hpss.baseline.mf_separate,
                                  x, self.stft_cfg, self.cfg.median)
            busy += t
        out["mix"], t = run.op("separate_s", check, hpss.pipeline.separate, x, self.cfg)
        busy += t
        if self.baselines:
            ora_cfg = replace(self.cfg, if_source=IF_SOURCE_ORACLE)
            out["ora"], t = run.op("separate_s", check, hpss.pipeline.separate,
                                   x, ora_cfg, oracle_h=track.harmonic)
            busy += t
            for method in ("mf", "mix", "ora"):
                if out[method] is None:
                    continue
                pair = _pair_of(out[method])
                res, t = run.op("eval_s", check_scores(), hpss.metrics.bss_eval,
                                track.harmonic, track.percussive,
                                pair.harmonic, pair.percussive, EVAL_TAPS)
                busy += t
                if first_pass and res is not None:
                    self.scores.setdefault(method, []).append(res)
        run.busy_s += busy
        run.audio_s += x.duration
        return out

    def score(self, run: Run, track, result):
        if result is None:
            return
        pair = _pair_of(result)
        for rep in range(EVAL_REPS):
            res, _ = run.op("eval_s", check_scores(self.floors), hpss.metrics.bss_eval,
                            track.harmonic, track.percussive,
                            pair.harmonic, pair.percussive, EVAL_TAPS)
            if rep == 0 and res is not None:
                self.scores.setdefault("mix", []).append(res)

    def setup(self, run: Run, track) -> None:
        x = track.mixture
        run.op("setup_s", check_pair(x.samples), hpss.pipeline.separate,
               x, with_iters(self.cfg, 0))

    def e2e(self, run: Run) -> None:
        first = self.tracks[0]
        x = first.mixture
        # the memory pass goes first: it also warms caches for the timed work
        mem, _ = run.op(None, lambda r: check_pair(x.samples)(r[0]), memory_pass,
                        spans.PeakRecorder(), hpss.pipeline.separate,
                        x, with_iters(self.cfg, MEM_ITERS))
        if mem is not None:
            run.values["peak_mb_per_audio_s"] = mem[1] / 1e6 / x.duration
        for _ in range(self.setup_reps):
            self.setup(run, first)

        # one more set-up sample before every round spreads them over the run
        last = 0.0
        for track in self.tracks:
            self.setup(run, track)
            start = run.elapsed()
            out = self.round(run, track, first_pass=True)
            last = run.elapsed() - start
            if not self.baselines:
                self.score(run, track, out["mix"])
        i = len(self.tracks)
        while run.another_round(last):
            track = self.tracks[i % len(self.tracks)]
            self.setup(run, track)
            start = run.elapsed()
            self.round(run, track, first_pass=False)
            last = run.elapsed() - start
            i += 1

        def mean(method, attr):
            res = self.scores.get(method)
            return float(np.mean([getattr(r, attr) for r in res])) if res else 0.0

        run.values["sdr_h_db"] = mean("mix", "sdr_h")
        run.values["sdr_p_db"] = mean("mix", "sdr_p")
        if self.baselines:
            run.values["sdr_h_ora_db"] = mean("ora", "sdr_h")
            run.values["sdr_h_mf_db"] = mean("mf", "sdr_h")

    def trace(self, run: Run) -> dict:
        track = self.tracks[0]
        x = track.mixture
        # the memory pass goes first: it also warms caches for the timed rounds
        peaks = spans.PeakRecorder()
        with spans.patched(peaks, PEAK_CALLS):
            run.op(None, lambda r: check_pair(x.samples)(r[0]), memory_pass, peaks,
                   hpss.pipeline.separate, x, with_iters(self.cfg, MEM_ITERS))
        untraced = _round_times(run, lambda: self.round(run, track, False))
        _, t_off = run.op(None, check_pair(x.samples), hpss.pipeline.separate,
                          x, with_iters(self.cfg, self.cfg.solver.n_iters, False))
        rec, traced, caught = _traced_round(run, lambda: self.round(run, track, False))
        iters = self.cfg.solver.n_iters
        trace_ms = 1e3 * (untraced[1] - t_off) / iters if iters else 0.0
        return layer_metrics(rec, peaks, "pipeline.separate", untraced, traced,
                             caught, trace_ms)


def _round_times(run: Run, do_round):
    """(round busy seconds, first separate_s sample) of one round."""
    n = len(run.samples.get("separate_s", ()))
    busy = run.busy_s
    do_round()
    seps = run.samples.get("separate_s", ())
    return run.busy_s - busy, seps[n] if len(seps) > n else 0.0


def _traced_round(run: Run, do_round):
    rec = spans.Recorder(HOOKS)
    run.recorder = rec
    try:
        with spans.patched(rec), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            times = _round_times(run, do_round)
    finally:
        run.recorder = None
    return rec, times, count_warnings(caught)


# ----------------------------------------------------------- wav workload

def write_pcm16(path, frames: np.ndarray, rate: int) -> None:
    """Write int16 frames of shape (n, channels) as a PCM WAV file."""
    frames = np.asarray(frames)
    if frames.ndim == 1:
        frames = frames[:, None]
    if np.any(np.abs(frames) > 32767):
        raise ValueError("sample outside the 16-bit range")
    payload = frames.astype("<i2").tobytes()
    channels = frames.shape[1]
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, channels, rate, rate * channels * 2, channels * 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


@dataclass
class WavTrack:
    mix: str
    ref_h: str
    ref_p: str
    est_h: str
    est_p: str
    duration: float


@dataclass
class WavSpec:
    """wav-mf-eval: stereo 16-bit files through ``hpss separate --method mf``.

    One round runs the CLI separation of every mixture, then one
    ``hpss eval --manifest`` over all of them. Mixture channels are
    k + d and k - d, so the mono downmix k / 32768 lies on the 16-bit grid
    and the written 16-bit stems must sum to it exactly.
    """

    tracks: list
    manifest: str
    win: int
    hop: int
    setup_reps: int = 2
    sdr: dict = field(default_factory=dict)

    @classmethod
    def build(cls, seed: int, workdir: str, n_tracks: int, rate: int,
              duration: float, win: int = 4096, hop: int = 1024):
        rng = np.random.default_rng(seed)
        tracks = []
        for i in range(n_tracks):
            tr = bench_track(rng, rate, duration, name=f"track{i}")
            scale = WAV_HEADROOM * 32767
            k = np.round(tr.mixture.samples * scale).astype(np.int64)
            h = np.round(tr.harmonic.samples * scale).astype(np.int64)
            d = np.round(0.02 * scale * rng.standard_normal(k.size)).astype(np.int64)
            paths = {n: os.path.join(workdir, f"{tr.name}_{n}.wav")
                     for n in ("mix", "ref_h", "ref_p", "est_h", "est_p")}
            write_pcm16(paths["mix"], np.stack([k + d, k - d], axis=1), rate)
            write_pcm16(paths["ref_h"], h, rate)
            write_pcm16(paths["ref_p"], k - h, rate)
            tracks.append(WavTrack(duration=k.size / rate, **paths))
        manifest = os.path.join(workdir, "manifest.csv")
        with open(manifest, "w") as fh:
            for i, t in enumerate(tracks):
                fh.write(f"track{i},{t.ref_h},{t.ref_p},{t.est_h},{t.est_p}\n")
        return cls(tracks, manifest, win, hop)

    def argv(self, t: WavTrack) -> list:
        return ["separate", t.mix, "--out-h", t.est_h, "--out-p", t.est_p,
                "--method", "mf", "--bit-depth", "16",
                "--win", str(self.win), "--hop", str(self.hop)]

    def check_separation(self, t: WavTrack):
        def check(code):
            if code != 0:
                return f"hpss separate exit code {code}"
            read = hpss.audio_io.read_wav
            return exact_sum_error(read(t.mix).samples, read(t.est_h).samples,
                                   read(t.est_p).samples)

        return check

    def check_eval(self, out: io.StringIO, first_pass: bool):
        def check(code):
            if code != 0:
                return f"hpss eval exit code {code}"
            rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
            if len(rows) != len(self.tracks) + 1 or any(len(r) != 11 for r in rows):
                return "hpss eval printed an unexpected table"
            values = [float(v) for r in rows for v in r[2:]]
            if not all(math.isfinite(v) for v in values):
                return "non-finite BSS-Eval score"
            if first_pass:
                self.sdr["h"], self.sdr["p"] = float(rows[-1][2]), float(rows[-1][5])
            return None

        return check

    def round(self, run: Run, first_pass: bool) -> None:
        busy = 0.0
        for t in self.tracks:
            _, elapsed = run.op("separate_s", self.check_separation(t),
                                hpss.cli.main, self.argv(t))
            busy += elapsed
        out = io.StringIO()
        _, elapsed = run.op(None, self.check_eval(out, first_pass), hpss.cli.main,
                            ["eval", "--manifest", self.manifest], out=out)
        run.samples.setdefault("eval_s", []).append(elapsed / len(self.tracks))
        run.busy_s += busy + elapsed
        run.audio_s += sum(t.duration for t in self.tracks)

    def decode(self, path):
        """What ``hpss separate`` does before its first transform."""
        hpss.stft.make_config(self.win, self.hop)
        return hpss.audio_io.read_wav(path)

    def memory_check(self, result):
        return self.check_separation(self.tracks[0])(result[0])

    def setup(self, run: Run) -> None:
        for t in self.tracks:
            run.op("setup_s", lambda s: None if np.all(np.isfinite(s.samples))
                   else "non-finite samples", self.decode, t.mix)

    def e2e(self, run: Run) -> None:
        # the memory pass goes first: it also warms caches for the timed work
        mem, _ = run.op(None, self.memory_check, memory_pass, spans.PeakRecorder(),
                        hpss.cli.main, self.argv(self.tracks[0]))
        if mem is not None:
            run.values["peak_mb_per_audio_s"] = mem[1] / 1e6 / self.tracks[0].duration
        for _ in range(self.setup_reps):
            self.setup(run)
        # one more set-up sample before every round spreads them over the run
        self.setup(run)
        start = run.elapsed()
        self.round(run, first_pass=True)
        last = run.elapsed() - start
        while run.another_round(last):
            self.setup(run)
            start = run.elapsed()
            self.round(run, first_pass=False)
            last = run.elapsed() - start
        run.samples["mf_s"] = list(run.samples.get("separate_s", ()))
        run.values["sdr_h_db"] = self.sdr.get("h", 0.0)
        run.values["sdr_p_db"] = self.sdr.get("p", 0.0)

    def trace(self, run: Run) -> dict:
        # the memory pass goes first: it also warms caches for the timed rounds
        peaks = spans.PeakRecorder()
        with spans.patched(peaks, PEAK_CALLS):
            run.op(None, self.memory_check, memory_pass, peaks,
                   hpss.cli.main, self.argv(self.tracks[0]))
        untraced = _round_times(run, lambda: self.round(run, False))
        rec, traced, caught = _traced_round(run, lambda: self.round(run, False))
        return layer_metrics(rec, peaks, "baseline.mf_separate", untraced, traced,
                             caught, 0.0)


# ------------------------------------------------------ per-layer metrics

def _stft_bytes(rec, args, kwargs, result):
    """Computed bytes one transform moves: T*L*8 of frames + K*T*16 of spectrum."""
    spec = result if isinstance(result, Spectrogram) else args[0]
    k, t = spec.data.shape
    rec.values["stft.bytes"].append(t * spec.config.win_len * 8 + k * t * 16)


def _l21_frames(rec, args, kwargs, result):
    rec.counts["prox.l21_columns"] += result.shape[1]
    rec.counts["prox.l21_zero"] += int(np.count_nonzero(~np.any(result, axis=0)))


def _run_iters(rec, args, kwargs, result):
    rec.counts["solver.iters"] += args[0].params.n_iters


HOOKS = {
    "stft.forward": _stft_bytes,
    "stft.adjoint": _stft_bytes,
    "prox.prox_l21": _l21_frames,
    "solver.run": _run_iters,
}


def layer_metrics(rec, peaks, main_call, untraced, traced, caught, trace_ms):
    """Per-layer numbers of one traced round.

    ``main_call`` names the call that makes an operation a separation;
    per-separation counts are averaged over those operations. A name with
    no calls reports 0, so a later change that removes a wrapped function
    reads as absent rather than failing the run.
    """
    sp = rec.spans
    selfs = spans.self_times(sp)
    lselfs = spans.layer_self_times(sp, selfs)
    by_name: dict[str, list] = {}
    for span, t in zip(sp, lselfs):
        by_name.setdefault(span.name, []).append(t)
    main_ops = {s.op for s in sp if s.name == main_call}
    in_main = Counter(s.name for s in sp if s.op in main_ops)

    def med_ms(name):
        return 1e3 * median(by_name[name]) if name in by_name else 0.0

    def calls(name):
        return len(by_name.get(name, ()))

    out = {f"{name}_ms": med_ms(name) for name in TIMED_CALLS}
    n_main = max(len(main_ops), 1)
    cols = rec.counts["prox.l21_columns"]
    iters = rec.counts["solver.iters"]
    out.update({
        "stft.forward_calls": in_main["stft.forward"] / n_main,
        "stft.adjoint_calls": in_main["stft.adjoint"] / n_main,
        "stft.bytes_per_call": float(median(rec.values["stft.bytes"]))
        if rec.values["stft.bytes"] else 0.0,
        "prox.l21_zero_frame_frac": rec.counts["prox.l21_zero"] / cols if cols else 0.0,
        "prox.l21_columns": cols,
        "solver.run_self_ms": 1e3 * sum(by_name.get("solver.run", ())) / iters
        if iters else 0.0,
        "solver.trace_ms_per_iter": trace_ms,
        "solver.iters": iters / calls("solver.run") if calls("solver.run") else 0,
        "solver.run_calls": calls("solver.run"),
        "solver.estimate_opnorm_calls": calls("solver.estimate_opnorm"),
        "pipeline.separate_self_ms": med_ms("pipeline.separate"),
        "metrics.ridge_warnings": caught["metrics.ridge_warnings"],
        "audio_io.clip_warnings": caught["audio_io.clip_warnings"],
        "cli.main_self_ms": med_ms("cli.main"),
    })
    for name in PEAK_CALLS:
        out[f"{name}.peak_mb"] = peaks.peaks[name] / 1e6
    layer_self = Counter()
    for span, t in zip(sp, selfs):
        layer_self[span.layer] += t
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    total = sum(layer_self[layer] for layer in spans.LAYERS)
    out.update({
        "trace.separate_untraced_s": untraced[1],
        "trace.separate_traced_s": traced[1],
        "trace.overhead_s": traced[1] - untraced[1],
        "trace.round_s": traced[0],
        "trace.layer_self_s": total,
        "trace.coverage": total / traced[0] if traced[0] > 0 else 0.0,
    })
    return out


# ---------------------------------------------------------------- catalog

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: tuple
    bypasses: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tone-bursts-5s",
            "paper config (criterion 8): few large 2049x216 transforms, "
            "so stft FFT work and the solver loop dominate",
            ("stft", "phase", "prox", "solver", "pipeline"),
            ("audio_io", "cli"),
        ),
        Workload(
            "corpus-16k",
            "bench corpus at 1024/256: many small transforms, "
            "per-call overhead dominates; mf, prop-mix, prop-ora and bss_eval",
            ("solver", "prox", "pipeline", "baseline", "metrics"),
            ("audio_io", "cli"),
        ),
        Workload(
            "long-30s",
            "30 s at 4096/1024, 10 iterations: memory-bound and "
            "set-up heavy; where halving memory and build_correction work show",
            ("stft", "phase", "baseline", "solver", "pipeline"),
            ("audio_io", "cli", "metrics"),
        ),
        Workload(
            "wav-mf-eval",
            "stereo 16-bit WAVs through hpss separate --method mf and "
            "hpss eval: audio_io and cli, no solver; the bypass workload",
            ("audio_io", "cli", "baseline", "stft", "metrics"),
            ("solver", "prox", "phase", "pipeline"),
        ),
    )
}


def build(name: str, seed: int, workdir: str, tiny: bool = False):
    """The inputs of one workload for one seed; tiny inputs for smoke tests."""
    if name == "tone-bursts-5s":
        if tiny:
            track = criterion_mixture(seed, sample_rate=8000, duration=0.5, win_len=256)
            return SolverSpec([track], _tiny_cfg(3), False, setup_reps=2)
        # two mixtures: SDR depends strongly on where the bursts fall, and
        # their mean cuts the seed-to-seed spread of the quality numbers
        # (interquartile range over ten seeds: 17 % of the median with one)
        tracks = [criterion_mixture(seed), criterion_mixture(seed + SECOND_MIXTURE)]
        return SolverSpec(tracks, HpssConfig(), False,
                          setup_reps=1, floors=TONE_FLOORS)
    if name == "corpus-16k":
        if tiny:
            tracks = bench_corpus(seed, n_tracks=2, sample_rate=8000, duration=0.5)
            return SolverSpec(tracks, _tiny_cfg(3), True, setup_reps=2)
        return SolverSpec(bench_corpus(seed, n_tracks=3), HpssConfig(win_len=1024, hop=256),
                          True, setup_reps=5)
    if name == "long-30s":
        rng = np.random.default_rng(seed)
        if tiny:
            return SolverSpec([bench_track(rng, 8000, 1.0)], _tiny_cfg(2), False,
                              setup_reps=2)
        return SolverSpec([bench_track(rng, 44100, 30.0)],
                          HpssConfig(solver=SolverParams(n_iters=10)), False,
                          setup_reps=2)
    if name == "wav-mf-eval":
        if tiny:
            return WavSpec.build(seed, workdir, 2, 8000, 0.5, win=256, hop=64)
        return WavSpec.build(seed, workdir, 3, 44100, 10.0)
    raise ValueError(f"unknown workload {name!r}")


def _tiny_cfg(n_iters: int) -> HpssConfig:
    return HpssConfig(win_len=256, hop=64, solver=SolverParams(n_iters=n_iters))


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 tiny: bool = False) -> dict:
    """Run one workload; returns metrics, attempts, failures and errors."""
    spec = build(name, seed, workdir, tiny)
    run = Run(seconds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if trace:
            metrics = spec.trace(run)
        else:
            spec.e2e(run)
            metrics = e2e_metrics(run)
    metrics["failed_frac"] = run.failed / run.attempted if run.attempted else 0.0
    return {
        "metrics": metrics,
        "samples": run.samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "warnings": dict(count_warnings(caught)),
    }


def e2e_metrics(run: Run) -> dict:
    out = {name: median(s) for name, s in run.samples.items() if s}
    out["audio_s_per_s"] = run.audio_s / run.busy_s if run.busy_s > 0 else 0.0
    out.update(run.values)
    for name, *_ in END_TO_END:
        out.setdefault(name, 0.0)  # not measured: an operation failed
    return out
