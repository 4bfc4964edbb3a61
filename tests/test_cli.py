import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpss.bench
import hpss.cli
from hpss import (
    HpssConfig,
    Signal,
    SolverParams,
    StftConfig,
    estimate_if,
    read_wav,
    separate,
    write_wav,
)
from hpss.cli import (
    EXIT_BAD_ARGS, EXIT_DIVERGED, EXIT_IO, EXIT_OK, _build_parser, _separate_config, main,
)
from hpss.stft import StftPlan, read_dump
from hpss.synth import bench_track


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliwav")
    track = bench_track(np.random.default_rng(0), sample_rate=8000, duration=1.0)
    write_wav(base / "mix.wav", track.mixture, "float32")
    write_wav(base / "ref_h.wav", track.harmonic, "float32")
    write_wav(base / "ref_p.wav", track.percussive, "float32")
    return base


@pytest.fixture(scope="module")
def wav_16k(wav_dir):
    # the reference harmonic stem relabelled at twice the rate
    path = wav_dir / "ref_h_16k.wav"
    write_wav(path, Signal(read_wav(wav_dir / "ref_h.wav").samples, 16000), "float32")
    return path


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def run_python(*args):
    """Run ``python args`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(hpss.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def run_cli_process(args):
    """Run ``hpss`` in a process of its own, so numpy's warnings reach
    stderr as a user sees them."""
    return run_python("-m", "hpss.cli", *args)


SEP_FLAGS = ["--win", "256", "--hop", "64", "--iters", "10"]


def record_trace_calls(monkeypatch, module):
    """Wrap ``module.separate``; the returned list gets each call's record_trace."""
    seen = []

    def spy(mixture, cfg, oracle_h=None):
        seen.append(cfg.solver.record_trace)
        return separate(mixture, cfg, oracle_h=oracle_h)

    monkeypatch.setattr(module, "separate", spy)
    return seen


class TestSeparate:
    def test_outputs_sum_to_input(self, wav_dir, tmp_path):
        out_h = tmp_path / "h.wav"
        out_p = tmp_path / "p.wav"
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"), "--out-h", str(out_h),
             "--out-p", str(out_p)] + SEP_FLAGS
        )
        assert code == EXIT_OK
        mix = read_wav(wav_dir / "mix.wav").samples
        total = read_wav(out_h).samples + read_wav(out_p).samples
        assert np.max(np.abs(mix - total)) <= 2.0**-22  # float32 rounding

    def test_mf_method(self, wav_dir, tmp_path):
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--method", "mf"] + SEP_FLAGS
        )
        assert code == EXIT_OK

    def test_zero_iters_equals_mf_init(self, wav_dir, tmp_path):
        args = ["separate", str(wav_dir / "mix.wav"), "--win", "256", "--hop", "64"]
        code, _ = run_cli(
            args + ["--iters", "0",
                    "--out-h", str(tmp_path / "h0.wav"),
                    "--out-p", str(tmp_path / "p0.wav")]
        )
        assert code == EXIT_OK
        code, _ = run_cli(
            args + ["--method", "mf",
                    "--out-h", str(tmp_path / "hm.wav"),
                    "--out-p", str(tmp_path / "pm.wav")]
        )
        assert code == EXIT_OK
        a = read_wav(tmp_path / "h0.wav").samples
        b = read_wav(tmp_path / "hm.wav").samples
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_oracle_if_source(self, wav_dir, tmp_path):
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--if-source", f"oracle:{wav_dir / 'ref_h.wav'}"] + SEP_FLAGS
        )
        assert code == EXIT_OK

    def test_trace_output(self, wav_dir, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--trace", str(trace)] + SEP_FLAGS
        )
        assert code == EXIT_OK
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 iterations

    def test_config_file_overrides_flags(self, wav_dir, tmp_path):
        cfg = tmp_path / "hpss.cfg"
        cfg.write_text("iters = 3\nwin_len = 256\nhop = 64\n")
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--iters", "50", "--config", str(cfg), "--trace", str(trace)]
        )
        assert code == EXIT_OK
        assert len(trace.read_text().strip().splitlines()) == 4  # config wins

    @pytest.mark.parametrize("line", ["if_source = oracle-file", "record_trace = false",
                                      "mask_power = 2.0"])
    def test_run_mode_keys_in_config_give_args_exit(self, wav_dir, tmp_path, capsys, line):
        cfg = tmp_path / "hpss.cfg"
        cfg.write_text(line + "\n")
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--config", str(cfg), "--trace", str(tmp_path / "t.csv")] + SEP_FLAGS
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "unknown key" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "h.wav").exists() and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("oracle", ["ref_h.wav", "missing.wav"])
    def test_mf_with_oracle_gives_args_exit(self, wav_dir, tmp_path, capsys, oracle):
        # rejected before any file is read, so a missing oracle is not an I/O error
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--method", "mf", "--if-source", f"oracle:{wav_dir / oracle}"] + SEP_FLAGS
        )
        assert code == EXIT_BAD_ARGS
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "h.wav").exists()

    def test_mf_with_trace_gives_args_exit(self, wav_dir, tmp_path, capsys):
        # mf runs no solver, so it has no trace to write; rejected before any
        # file is read, so a missing input is not an I/O error
        code, _ = run_cli(
            ["separate", str(wav_dir / "missing.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--method", "mf", "--trace", str(tmp_path / "t.csv")] + SEP_FLAGS
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert err.startswith("error: --trace needs --method prop") and len(err.splitlines()) == 1
        assert not (tmp_path / "h.wav").exists() and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("with_trace", [False, True])
    def test_trace_recorded_iff_trace_flag(self, wav_dir, tmp_path, monkeypatch, with_trace):
        seen = record_trace_calls(monkeypatch, hpss.cli)
        trace = ["--trace", str(tmp_path / "t.csv")] if with_trace else []
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav")]
            + SEP_FLAGS + trace
        )
        assert code == EXIT_OK
        assert seen == [with_trace]
        assert (tmp_path / "t.csv").exists() == with_trace

    def test_bare_flags_are_the_default_config(self):
        args = _build_parser().parse_args(["separate", "in.wav", "--out-h", "h.wav",
                                           "--out-p", "p.wav"])
        assert _separate_config(args) == HpssConfig()

    def test_oracle_rate_mismatch_gives_args_exit(self, wav_dir, wav_16k, tmp_path):
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--if-source", f"oracle:{wav_16k}"] + SEP_FLAGS
        )
        assert code == EXIT_BAD_ARGS
        assert not (tmp_path / "h.wav").exists()

    def test_missing_input_gives_io_exit(self, tmp_path):
        code, _ = run_cli(
            ["separate", str(tmp_path / "missing.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav")]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "flag, is_dir",
        [pytest.param(flag, False, id=flag) for flag in ("--out-h", "--out-p", "--trace")]
        + [pytest.param("--out-h", True, id="--out-h-is-a-directory")],
    )
    def test_missing_output_directory_gives_io_exit_before_any_read(
        self, wav_dir, tmp_path, capsys, monkeypatch, flag, is_dir
    ):
        # checked before the input is read: no solve runs and no file is written;
        # an output path that is an existing directory fails alike
        reads = []
        monkeypatch.setattr(hpss.cli, "read_wav", reads.append)
        outputs = {"--out-h": tmp_path / "h.wav", "--out-p": tmp_path / "p.wav",
                   "--trace": tmp_path / "t.csv"}
        outputs[flag] = bad = tmp_path / "dir" if is_dir else tmp_path / "missing" / "out"
        if is_dir:
            bad.mkdir()
        argv = ["separate", str(wav_dir / "mix.wav")]
        for name, path in outputs.items():
            argv += [name, str(path)]
        code, _ = run_cli(argv + SEP_FLAGS)
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} {bad}: "), err
        assert reads == []
        assert list(tmp_path.rglob("*")) == ([bad] if is_dir else [])

    def test_short_fmt_chunk_gives_args_exit(self, tmp_path):
        # RIFF/WAVE with a data chunk and a trailing 8-byte fmt chunk
        chunks = struct.pack("<4sI", b"data", 4) + b"\x00" * 4
        chunks += struct.pack("<4sIHHI", b"fmt ", 8, 1, 1, 8000)
        path = tmp_path / "short_fmt.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        code, _ = run_cli(
            ["separate", str(path),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav")]
        )
        assert code == EXIT_BAD_ARGS

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            pytest.param(["--mu2", "inf"], None, "mu2 must be positive and finite, got inf",
                         id="mu2-inf"),
            pytest.param(["--mu2", "inf", "--trace", "TRACE"], None, "mu2 must",
                         id="mu2-inf-trace"),
            pytest.param([], "lambda = nan", "lam must be positive and finite, got nan",
                         id="lambda-nan-in-config"),
            pytest.param(["--kappa", "nan"], None, "kappa must be positive and finite, got nan",
                         id="kappa-nan"),
        ],
    )
    def test_non_finite_model_parameter_gives_args_exit(
        self, wav_dir, tmp_path, capsys, flags, config, message
    ):
        # NaN passes a `<= 0` check and inf passes every sign check; both are named
        extra = [str(tmp_path / "t.csv") if f == "TRACE" else f for f in flags]
        if config is not None:
            (tmp_path / "hpss.cfg").write_text(config + "\n")
            extra += ["--config", str(tmp_path / "hpss.cfg")]
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--win", "64", "--hop", "16", "--iters", "2", *extra]
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and len(err.splitlines()) == 1
        assert list(tmp_path.glob("*.wav")) == [] and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("depth, rate", [("16", 2**31), ("float32", 2**30)])
    def test_rate_beyond_the_wav_header_gives_args_exit(self, tmp_path, capsys, depth, rate):
        # the input declares a rate whose byte rate overflows the output
        # header's 32-bit field: one error line after the separation, no stem
        payload = np.arange(-2000, 2000, dtype="<i2").tobytes()
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                             b"fmt ", 16, 1, 1, rate, (2 * rate) % 2**32, 2, 16,
                             b"data", len(payload))
        (tmp_path / "fast.wav").write_bytes(header + payload)
        code, _ = run_cli(
            ["separate", str(tmp_path / "fast.wav"), "--method", "mf", "--bit-depth", depth,
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--win", "256", "--hop", "64"]
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'h.wav'}: ") and len(err.splitlines()) == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["fast.wav"]

    def test_divergence_gives_diverged_exit_and_one_error_line(self, wav_dir, tmp_path):
        proc = run_cli_process(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--win", "64", "--hop", "16", "--iters", "50", "--mu1", "1e160", "--mu2", "1e160"]
        )
        assert proc.returncode == EXIT_DIVERGED
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[-1] == "error: solver diverged: non-finite value at iteration 2"
        assert list(tmp_path.glob("*.wav")) == []

    def test_step_size_warning_is_one_line(self, wav_dir, tmp_path):
        proc = run_cli_process(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--win", "64", "--hop", "16", "--iters", "2", "--mu1", "2"]
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr.startswith("warning: step-size product mu1*mu2*B = ")
        assert len(proc.stderr.splitlines()) == 1

    def test_bad_if_source_gives_args_exit(self, wav_dir, tmp_path):
        code, _ = run_cli(
            ["separate", str(wav_dir / "mix.wav"),
             "--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav"),
             "--if-source", "telepathy"]
        )
        assert code == EXIT_BAD_ARGS


class TestEval:
    def test_perfect_estimates(self, wav_dir):
        code, out = run_cli(
            ["eval", "--ref-h", str(wav_dir / "ref_h.wav"),
             "--ref-p", str(wav_dir / "ref_p.wav"),
             "--est-h", str(wav_dir / "ref_h.wav"),
             "--est-p", str(wav_dir / "ref_p.wav"),
             "--filter-len", "8"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("track,method,sdr_h")
        vals = [float(v) for v in lines[1].split(",")[2:]]
        assert all(v >= 100.0 for v in vals)

    def test_silent_estimate_scores_floor(self, wav_dir, tmp_path):
        # a zero estimate has no target energy: its scores sit at the -300 dB
        # floor, finite in the row and in the mean, with nothing on stderr
        silent = tmp_path / "silent.wav"
        ref_h = read_wav(wav_dir / "ref_h.wav")
        write_wav(silent, Signal(np.zeros(ref_h.samples.size), ref_h.sample_rate), "float32")
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(
            ["t"] + [str(p) for p in (wav_dir / "ref_h.wav", wav_dir / "ref_p.wav",
                                      silent, wav_dir / "ref_p.wav")]
        ))
        proc = run_cli_process(["eval", "--manifest", str(manifest)])
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["t", "mean"]
        for row in rows:
            vals = [float(v) for v in row[2:]]
            assert all(-300.0 <= v <= 300.0 for v in vals)
            assert vals[:3] == [-300.0, -300.0, -300.0]

    def test_silent_reference_warns_in_one_line(self, wav_dir, tmp_path):
        # a zero reference makes the projection system singular; the ridge
        # warnings of one call share a line and print once, without a path
        silent = tmp_path / "silent.wav"
        ref_h = read_wav(wav_dir / "ref_h.wav")
        write_wav(silent, Signal(np.zeros(ref_h.samples.size), ref_h.sample_rate), "float32")
        proc = run_cli_process(
            ["eval", "--ref-h", str(silent), "--ref-p", str(wav_dir / "ref_p.wav"),
             "--est-h", str(wav_dir / "ref_h.wav"), "--est-p", str(wav_dir / "ref_p.wav"),
             "--filter-len", "8"]
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr.startswith("warning: singular projection system")
        assert len(proc.stderr.splitlines()) == 1
        assert len(proc.stdout.splitlines()) == 2

    def test_manifest_appends_mean(self, wav_dir, tmp_path):
        manifest = tmp_path / "m.csv"
        row = ",".join(
            ["t1"] + [str(wav_dir / name) for name in
                      ("ref_h.wav", "ref_p.wav", "ref_h.wav", "ref_p.wav")]
        )
        manifest.write_text("\n".join([row.replace("t1", f"t{i}") for i in range(3)]))
        code, out = run_cli(["eval", "--manifest", str(manifest), "--filter-len", "4"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 3 tracks + mean
        assert all(len(line.split(",")) == 11 for line in lines)
        assert lines[-1].startswith("mean,")

    @pytest.mark.parametrize(
        "track, n_paths, message",
        [
            pytest.param("", 4, "empty track name", id="empty-track"),
            pytest.param(
                "t2", 3, "expected 5 cells (track,ref_h,ref_p,est_h,est_p), got 4",
                id="wrong-width",
            ),
        ],
    )
    def test_bad_manifest_row_names_its_line(
        self, wav_dir, tmp_path, capsys, track, n_paths, message
    ):
        # the blank second line is skipped but counted, so the bad row is line 3
        refs = [str(wav_dir / "ref_h.wav"), str(wav_dir / "ref_p.wav")] * 2
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            ",".join(["t0", *refs]) + "\n\n" + ",".join([track, *refs[:n_paths]]) + "\n"
        )
        code, out = run_cli(["eval", "--manifest", str(manifest), "--filter-len", "4"])
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert capsys.readouterr().err == f"error: manifest line 3: {message}\n"

    def test_empty_manifest_is_an_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n \n,,\n")
        code, out = run_cli(["eval", "--manifest", str(manifest)])
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert capsys.readouterr().err == f"error: manifest {manifest} has no rows\n"

    def test_missing_args(self):
        code, out = run_cli(["eval"])
        assert code == EXIT_BAD_ARGS
        assert out == ""

    def test_length_mismatch(self, wav_dir, tmp_path):
        short = tmp_path / "short.wav"
        write_wav(short, Signal(np.zeros(10) + 0.1, 8000), "float32")
        code, _ = run_cli(
            ["eval", "--ref-h", str(wav_dir / "ref_h.wav"),
             "--ref-p", str(wav_dir / "ref_p.wav"),
             "--est-h", str(short), "--est-p", str(short)]
        )
        assert code == EXIT_BAD_ARGS

    def test_rate_mismatch(self, wav_dir, wav_16k, tmp_path, capsys):
        refs = [str(wav_dir / "ref_h.wav"), str(wav_dir / "ref_p.wav")]
        code, _ = run_cli(["eval", "--ref-h", refs[0], "--ref-p", refs[1],
                           "--est-h", str(wav_16k), "--est-p", refs[1]])
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "sample rates" in err and len(err.strip().splitlines()) == 1
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(["t0", *refs, *refs]) + "\n"
                            + ",".join(["t1", *refs, str(wav_16k), refs[1]]) + "\n")
        code, _ = run_cli(["eval", "--manifest", str(manifest), "--filter-len", "4"])
        assert code == EXIT_BAD_ARGS
        # the failing manifest row is named
        err = capsys.readouterr().err
        assert err.startswith("error: t1: sample rates") and len(err.strip().splitlines()) == 1


class TestBench:
    def test_deterministic_and_ordered_output(self, tmp_path):
        args = ["bench", "--tracks", "2", "--duration", "0.8",
                "--sample-rate", "8000", "--win", "256", "--hop", "64",
                "--iters", "5", "--filter-len", "8", "--seed", "1"]
        code1, out1 = run_cli(args + ["--out-dir", str(tmp_path / "b1")])
        code2, out2 = run_cli(args + ["--out-dir", str(tmp_path / "b2")])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        csv1 = (tmp_path / "b1" / "bench_results.csv").read_text()
        csv2 = (tmp_path / "b2" / "bench_results.csv").read_text()
        assert csv1 == csv2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("track,method")
        assert sum(1 for ln in lines if ln.startswith("mean,")) == 3

    @pytest.mark.parametrize("out_dir", [None, "b"])
    def test_traces_recorded_iff_out_dir(self, tmp_path, monkeypatch, out_dir):
        seen = record_trace_calls(monkeypatch, hpss.bench)
        hpss.bench.run_bench(out_dir=out_dir and str(tmp_path / out_dir), n_tracks=1,
                             sample_rate=8000, duration=0.5, filter_len=4,
                             cfg=HpssConfig(win_len=256, hop=64,
                                            solver=SolverParams(n_iters=2)))
        assert seen == [out_dir is not None] * 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--seed", "-1"], "seed must be non-negative, got -1", id="seed-neg"),
            pytest.param(["--tracks", "0"], "at least one track, got 0", id="tracks-0"),
            pytest.param(["--tracks", "-2"], "at least one track, got -2", id="tracks-neg"),
            pytest.param(["--duration", "0"],
                         "a duration of 0.0 s at 16000 Hz holds no sample", id="duration-0"),
            pytest.param(["--duration", "0.0001", "--sample-rate", "8000"],
                         "holds no sample", id="under-one-sample"),
            pytest.param(["--duration", "inf"], "duration must be finite, got inf",
                         id="duration-inf"),
            pytest.param(["--duration", "nan"], "duration must be finite, got nan",
                         id="duration-nan"),
            pytest.param(["--sample-rate", "-8000", "--duration", "-1"],
                         "sample_rate must be >= 1, got -8000", id="rate-and-duration-neg"),
            pytest.param(["--sample-rate", "0"], "sample_rate must be >= 1, got 0",
                         id="rate-0"),
            pytest.param(["--tracks", "1", "--duration", "0.2", "--sample-rate", "8000",
                          "--iters", "2"],
                         "more than 1920 samples (0.24 s at 8000 Hz), got 1600",
                         id="too-short-for-a-note"),
        ],
    )
    def test_empty_corpus_gives_args_exit(self, monkeypatch, capsys, flags, message):
        seen = record_trace_calls(monkeypatch, hpss.bench)
        code, out = run_cli(["bench", *flags])
        assert code == EXIT_BAD_ARGS
        assert out == "" and seen == []  # rejected before any separation
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_bad_geometry_fails_before_the_out_dir_is_made(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.setattr(hpss.bench, "bench_corpus", None)  # never reached
        out_dir = tmp_path / "d"
        code, out = run_cli(["bench", "--win", "3", "--out-dir", str(out_dir)])
        assert code == EXIT_BAD_ARGS and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: win_len must be") and len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_filter_len_checked_before_any_separation(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(hpss.bench, "separate", counted("separate", separate))
        monkeypatch.setattr(hpss.bench, "mf_separate",
                            counted("mf_separate", hpss.bench.mf_separate))
        for filter_len, message in ((100000, "filter_len 100000 exceeds"),
                                    (0, "filter_len must be >= 1, got 0"),
                                    (-1, "filter_len must be >= 1, got -1")):
            with pytest.raises(ValueError, match=message):
                hpss.bench.run_bench(n_tracks=1, sample_rate=8000, duration=0.5,
                                     filter_len=filter_len,
                                     cfg=HpssConfig(win_len=256, hop=64,
                                                    solver=SolverParams(n_iters=2)))
        assert calls == []


class TestDumpSpec:
    def test_defaults_are_the_default_config(self):
        args = _build_parser().parse_args(["dump-spec", "in.wav", "--out", "s.bin"])
        assert (args.win, args.hop) == (HpssConfig().win_len, HpssConfig().hop)

    def test_spec_dump(self, wav_dir, tmp_path):
        out = tmp_path / "spec.bin"
        code, _ = run_cli(
            ["dump-spec", str(wav_dir / "mix.wav"), "--out", str(out),
             "--win", "256", "--hop", "64"]
        )
        assert code == EXIT_OK
        data, (k, t, win_len, hop) = read_dump(out)
        assert (k, win_len, hop) == (129, 256, 64)
        assert data.shape == (t, k)  # K x T on disk, frame-major in memory
        samples = read_wav(wav_dir / "mix.wav").samples
        expected = StftPlan(StftConfig(256, 64), samples.size).forward(samples)
        np.testing.assert_array_equal(data, expected)

    def test_if_dump(self, wav_dir, tmp_path):
        out = tmp_path / "if.bin"
        code, _ = run_cli(
            ["dump-spec", str(wav_dir / "mix.wav"), "--out", str(out),
             "--win", "256", "--hop", "64", "--kind", "if"]
        )
        assert code == EXIT_OK
        data, meta = read_dump(out)
        assert data.shape[1] == meta[0] == 129
        assert not np.iscomplexobj(data)
        np.testing.assert_array_equal(
            data, estimate_if(read_wav(wav_dir / "mix.wav"), StftConfig(256, 64))
        )

    @pytest.mark.parametrize("kind", ["spec", "if"])
    def test_missing_output_directory_gives_io_exit_before_any_read(
        self, wav_dir, tmp_path, capsys, monkeypatch, kind
    ):
        # checked before the input is read, so no transform runs
        calls = []
        for name in ("read_wav", "StftPlan", "estimate_if"):
            monkeypatch.setattr(hpss.cli, name, lambda *a, name=name: calls.append(name))
        missing = tmp_path / "missing" / "d.bin"
        code, _ = run_cli(["dump-spec", str(wav_dir / "mix.wav"), "--out", str(missing),
                           "--win", "256", "--hop", "64", "--kind", kind])
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {missing}: "), err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


SEP_OUTPUTS = ("--out-h", "--out-p", "--trace")


class TestSameFile:
    """An output path that names the same file as an input or as another
    output is exit 1 before any read: one error line, the inputs keep their
    bytes and no output is written."""

    @staticmethod
    def check(argv, files, tmp_path, capsys, monkeypatch, message):
        reads = []

        def spy(path):
            reads.append(path)
            return read_wav(path)

        monkeypatch.setattr(hpss.cli, "read_wav", spy)
        before = {path: path.read_bytes() for path in files}
        code, out = run_cli([str(a) for a in argv])
        assert code == EXIT_BAD_ARGS and out == ""
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert reads == []
        assert {path: path.read_bytes() for path in files} == before
        assert sorted(tmp_path.rglob("*")) == sorted(files)

    @pytest.mark.parametrize("flag, other", [
        (flag, other)
        for i, flag in enumerate(SEP_OUTPUTS)
        for other in ("input", "--if-source", "--config", *SEP_OUTPUTS[:i])
    ])
    def test_separate(self, wav_dir, tmp_path, capsys, monkeypatch, flag, other):
        mix, oracle, cfg = tmp_path / "mix.wav", tmp_path / "ref_h.wav", tmp_path / "hpss.cfg"
        mix.write_bytes((wav_dir / "mix.wav").read_bytes())
        oracle.write_bytes((wav_dir / "ref_h.wav").read_bytes())
        cfg.write_text("iters = 3\n")
        paths = {"input": mix, "--if-source": oracle, "--config": cfg,
                 "--out-h": tmp_path / "h.wav", "--out-p": tmp_path / "p.wav",
                 "--trace": tmp_path / "t.csv"}
        # the repeat is spelled apart from the path it repeats
        paths[flag] = repeat = f"{tmp_path}/./{paths[other].name}"
        argv = ["separate", paths["input"], "--if-source", f"oracle:{paths['--if-source']}",
                "--win", "256", "--hop", "64"]
        for name in ("--config", "--out-h", "--out-p", "--trace"):
            argv += [name, paths[name]]
        label = "the input" if other == "input" else other
        self.check(argv, [mix, oracle, cfg], tmp_path, capsys, monkeypatch,
                   f"{flag} {repeat}: names the same file as {label}")

    @pytest.mark.parametrize("kind", ["spec", "if"])
    @pytest.mark.parametrize("alias", ["same-path", "symlink"])
    def test_dump_spec(self, wav_dir, tmp_path, capsys, monkeypatch, kind, alias):
        mix = tmp_path / "mix.wav"
        mix.write_bytes((wav_dir / "mix.wav").read_bytes())
        files = [mix]
        out = mix
        if alias == "symlink":
            out = tmp_path / "link.wav"
            out.symlink_to(mix)
            files.append(out)
        self.check(["dump-spec", mix, "--out", out, "--kind", kind, "--win", "256", "--hop", "64"],
                   files, tmp_path, capsys, monkeypatch,
                   f"--out {out}: names the same file as the input")


class TestNumpyOnly:
    """The package and all five commands run with scipy unimportable."""

    def test_import_loads_no_scipy(self):
        proc = run_python(
            "-c",
            "import sys\n"
            "import hpss, hpss.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_commands_run_with_scipy_blocked(self, wav_dir, tmp_path):
        code = """
import io
import sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
from hpss.cli import main
wavs, out = sys.argv[1:]
mix, h, p = f"{wavs}/mix.wav", f"{out}/h.wav", f"{out}/p.wav"
sep = ["--win", "256", "--hop", "64"]
commands = [
    ["separate", mix, "--out-h", h, "--out-p", p, "--method", "prop", "--iters", "3", *sep],
    ["separate", mix, "--out-h", f"{out}/mh.wav", "--out-p", f"{out}/mp.wav",
     "--method", "mf", *sep],
    ["eval", "--ref-h", f"{wavs}/ref_h.wav", "--ref-p", f"{wavs}/ref_p.wav",
     "--est-h", h, "--est-p", p, "--filter-len", "8"],
    ["bench", "--tracks", "1", "--duration", "0.5", "--sample-rate", "8000",
     "--iters", "2", "--filter-len", "8"],
    ["dump-spec", mix, "--out", f"{out}/if.bin", "--kind", "if", *sep],
]
print([main(argv, out=io.StringIO()) for argv in commands])
"""
        proc = run_python("-c", code, wav_dir, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0]\n", proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "h.wav", "if.bin", "mh.wav", "mp.wav", "p.wav"]


class TestArgErrors:
    def test_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == EXIT_BAD_ARGS

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["bench", "--tracks", "1", "--duration", "1e12"],
                         "Unable to allocate ", id="bench-duration"),
            pytest.param(["separate", "mix.wav", "--method", "mf",
                          "--win", str(2**50), "--hop", str(2**48)],
                         "Unable to allocate ", id="separate-win"),
            pytest.param(["bench", "--tracks", "1", "--sample-rate", str(10**400)],
                         "sample_rate * duration exceeds the float range", id="bench-rate"),
        ],
    )
    def test_request_too_large_gives_args_exit(self, wav_dir, tmp_path, capsys, argv, message):
        # sizes beyond any address space, so numpy refuses them without allocating
        argv = [str(wav_dir / a) if a == "mix.wav" else a for a in argv]
        outputs = ["--out-h", str(tmp_path / "h.wav"), "--out-p", str(tmp_path / "p.wav")]
        code, out = run_cli(argv + (outputs if argv[0] == "separate" else []))
        assert code == EXIT_BAD_ARGS and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_separate_requires_outputs(self, wav_dir):
        code, _ = run_cli(["separate", str(wav_dir / "mix.wav")])
        assert code == EXIT_BAD_ARGS

    @staticmethod
    def check_rejected_unread(argv, tmp_path, capsys, monkeypatch, message):
        # exit 1 with one error line, and no file read: a missing input would be exit 2
        reads = []
        monkeypatch.setattr(hpss.cli, "read_wav", reads.append)
        code, out = run_cli(argv)
        assert code == EXIT_BAD_ARGS and out == ""
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert reads == []

    @pytest.mark.parametrize("flags, message", [
        (["--hop", "0"], "hop must lie in [1, win_len]"),
        (["--win", "3"], "win_len must be an even integer >= 2"),
        (["--win", "4096", "--hop", "3000"], "hop must divide win_len"),
        (["--method", "mf", "--hop", "0"], "hop must lie in [1, win_len]"),
        (["--if-source", "oracle:{tmp}/ref_h.wav", "--win", "3"],
         "win_len must be an even integer >= 2"),
    ], ids=["hop-0", "win-3", "hop-3000", "mf", "oracle"])
    def test_separate_bad_geometry_before_any_read(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        argv = ["separate", f"{tmp_path}/missing.wav", "--out-h", f"{tmp_path}/h.wav",
                "--out-p", f"{tmp_path}/p.wav", *(f.format(tmp=tmp_path) for f in flags)]
        self.check_rejected_unread(argv, tmp_path, capsys, monkeypatch, message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["spec", "if"])
    def test_dump_spec_bad_geometry_before_any_read(self, tmp_path, capsys, monkeypatch, kind):
        argv = ["dump-spec", f"{tmp_path}/missing.wav", "--out", f"{tmp_path}/d.bin",
                "--win", "3", "--kind", kind]
        self.check_rejected_unread(argv, tmp_path, capsys, monkeypatch,
                                   "win_len must be an even integer >= 2")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--ref-h", "--ref-p", "--est-h", "--est-p"])
    def test_eval_manifest_with_a_stem_flag_before_any_read(self, tmp_path, capsys, monkeypatch,
                                                            flag):
        # the manifest names every stem, so a stem flag beside it would go unread;
        # a manifest that does not exist shows it is never opened
        argv = ["eval", "--manifest", f"{tmp_path}/missing.csv", flag, f"{tmp_path}/none.wav"]
        self.check_rejected_unread(argv, tmp_path, capsys, monkeypatch,
                                   f"--manifest cannot be combined with {flag}")

    def test_empty_oracle_path_before_any_read(self, tmp_path, capsys, monkeypatch):
        argv = ["separate", f"{tmp_path}/missing.wav", "--out-h", f"{tmp_path}/h.wav",
                "--out-p", f"{tmp_path}/p.wav", "--if-source", "oracle:"]
        self.check_rejected_unread(argv, tmp_path, capsys, monkeypatch,
                                   "bad --if-source value: 'oracle:'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["files", "manifest"])
    def test_eval_filter_len_before_any_read(self, tmp_path, capsys, monkeypatch, mode):
        if mode == "files":
            inputs = [a for flag in ("--ref-h", "--ref-p", "--est-h", "--est-p")
                      for a in (flag, f"{tmp_path}/{flag[2:]}.wav")]
        else:
            inputs = ["--manifest", f"{tmp_path}/missing.csv"]
        self.check_rejected_unread(["eval", *inputs, "--filter-len", "0"], tmp_path, capsys,
                                   monkeypatch, "--filter-len must be >= 1, got 0")
