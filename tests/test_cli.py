import io
import struct

import numpy as np
import pytest

import hpss.bench
import hpss.cli
from hpss import HpssConfig, Signal, SolverParams, read_wav, separate, write_wav
from hpss.cli import (
    EXIT_BAD_ARGS, EXIT_IO, EXIT_OK, _build_parser, _separate_config, main,
)
from hpss.stft import read_dump
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

    @pytest.mark.parametrize("line", ["if_source = oracle-file", "record_trace = false"])
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
            pytest.param([], "mask_power = nan", "mask_power must be finite and >= 1, got nan",
                         id="mask_power-nan-in-config"),
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
        with pytest.raises(ValueError, match="filter_len 100000 exceeds"):
            hpss.bench.run_bench(n_tracks=1, sample_rate=8000, duration=0.5,
                                 filter_len=100000,
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
        assert data.shape == (k, t)
        assert np.iscomplexobj(data)

    def test_if_dump(self, wav_dir, tmp_path):
        out = tmp_path / "if.bin"
        code, _ = run_cli(
            ["dump-spec", str(wav_dir / "mix.wav"), "--out", str(out),
             "--win", "256", "--hop", "64", "--kind", "if"]
        )
        assert code == EXIT_OK
        data, meta = read_dump(out)
        assert data.shape[0] == 129
        assert not np.iscomplexobj(data)
        assert np.all(np.isfinite(data))


class TestArgErrors:
    def test_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == EXIT_BAD_ARGS

    def test_separate_requires_outputs(self, wav_dir):
        code, _ = run_cli(["separate", str(wav_dir / "mix.wav")])
        assert code == EXIT_BAD_ARGS
