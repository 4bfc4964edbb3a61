"""Tests of the benchmark itself: span arithmetic, failure counting, smoke runs."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpss.cli
import hpss.stft
from hpss.audio_io import Signal
from hpss.prox import SignalPair
from perfbench import run as bench_run
from perfbench import spans, workloads
from perfbench.spans import Span

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_of_a_nested_trace():
    # pipeline.separate [0, 10] holds stft.forward [1, 4] (which holds
    # audio_io.as_samples [2, 3]) and pipeline.helper [5, 9]
    trace = [
        Span("pipeline.separate", 0.0, 10.0, None, 0),
        Span("stft.forward", 1.0, 4.0, 0, 0),
        Span("audio_io.as_samples", 2.0, 3.0, 1, 0),
        Span("pipeline.helper", 5.0, 9.0, 0, 0),
        Span("metrics.bss_eval", 11.0, 12.5, None, 1),
    ]
    selfs = spans.self_times(trace)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 1.5]
    # same-layer children fold into the parent; other layers stay apart
    assert spans.layer_self_times(trace, selfs) == [7.0, 2.0, 1.0, 4.0, 1.5]
    # self times account for all of the top-level spans' wall time
    assert sum(selfs) == pytest.approx(10.0 + 1.5)


def test_recorder_nesting_ops_and_hook_spans():
    ticks = iter(range(100))
    rec = spans.Recorder(
        hooks={"stft.forward": lambda r, a, k, res: r.counts.update(bytes=res)},
        clock=lambda: float(next(ticks)),
    )
    inner = rec.wrap(lambda n: n, "stft.forward")
    outer = rec.wrap(lambda: inner(5) + inner(6), "pipeline.separate")
    assert outer() == 11
    assert outer() == 11
    names = [s.name for s in rec.spans]
    assert names[:4] == ["pipeline.separate", "stft.forward", "perfbench.hook",
                         "stft.forward"]
    assert [s.op for s in rec.spans] == [0] * 5 + [1] * 5
    assert rec.counts["bytes"] == 22
    with rec.paused():
        outer()
    assert len(rec.spans) == 10


def test_patched_restores_every_binding():
    before = (hpss.stft.forward, hpss.cli.read_wav)
    rec = spans.Recorder()
    with spans.patched(rec):
        assert hpss.stft.forward is not before[0]
        assert hpss.cli.read_wav is not before[1]
    assert hpss.stft.forward is before[0]
    assert hpss.cli.read_wav is before[1]
    patched_names = {name for *_, name in spans.layer_functions()}
    assert {"stft.forward", "solver.run", "cli.main"} <= patched_names
    assert not any(name.startswith("synth.") for name in patched_names)


def test_broken_pair_counts_as_a_failure():
    x = np.linspace(-1.0, 1.0, 64)
    broken = SignalPair(Signal(x / 2, 8000), Signal(x / 2 + 1e-9, 8000))
    run = workloads.Run(seconds=1.0)
    result, _ = run.op("separate_s", workloads.check_pair(x), lambda: broken)
    assert result is None
    assert (run.attempted, run.failed) == (1, 1)
    assert "max|x - x_h - x_p|" in run.errors[0]
    assert len(run.samples["separate_s"]) == 1  # the failed op keeps its sample

    exact = SignalPair(Signal(x / 3, 8000), Signal(x - x / 3, 8000))
    run.op("separate_s", workloads.check_pair(x), lambda: exact)
    assert (run.attempted, run.failed) == (2, 1)


def test_nonzero_cli_exit_counts_as_a_failure(tmp_path):
    spec = workloads.build("wav-mf-eval", 0, str(tmp_path), tiny=True)
    track = spec.tracks[0]
    run = workloads.Run(seconds=1.0)
    argv = spec.argv(track)
    argv[1] = str(tmp_path / "missing.wav")
    run.op("separate_s", spec.check_separation(track), hpss.cli.main, argv)
    assert (run.attempted, run.failed) == (1, 1)
    assert "exit code 2" in run.errors[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name, trace, tmp_path):
    result = workloads.run_workload(name, 3, 0.2, bool(trace), str(tmp_path), tiny=True)
    args = argparse.Namespace(workload=name, seed=3, seconds=0.2, trace=trace)
    lines = bench_run.render(args, result, {"nproc": 1})
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = (workloads.PER_LAYER if trace
                else [(m, u) for m, u, _ in workloads.END_TO_END])
    assert [(m, v["unit"]) for m, v in final["metrics"].items()] == list(expected)
    shown = expected if trace else list(expected) + list(workloads.REPORT_ONLY)
    for metric, unit in shown:
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines[:-1]), metric
    if trace and name == "wav-mf-eval":
        assert final["metrics"]["solver.run_calls"]["value"] == 0
    if trace and name != "wav-mf-eval":
        assert final["metrics"]["solver.run_calls"]["value"] >= 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert list(bench_run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wav-mf-eval",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
