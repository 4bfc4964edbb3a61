"""Command-line frontend: separate, eval, bench, dump-spec."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from . import __version__
from .audio_io import read_wav, write_wav
from .baseline import mf_separate
from .bench import run_bench
from .metrics import EvalResult, bss_eval
from .phase import estimate_if, write_if_dump
from .pipeline import (
    IF_SOURCE_MIXTURE,
    IF_SOURCE_ORACLE,
    HpssConfig,
    load_config,
    separate,
)
from .solver import SolverDivergenceError, SolverParams
from .stft import forward, write_spec_dump

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_IO = 2
EXIT_DIVERGED = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hpss", description="Harmonic/percussive source separation")
    parser.add_argument("--version", action="version", version=f"hpss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="separate a WAV file into two stems")
    sep.add_argument("input", help="input WAV path")
    sep.add_argument("--out-h", required=True, help="harmonic output WAV path")
    sep.add_argument("--out-p", required=True, help="percussive output WAV path")
    std = HpssConfig()  # flag defaults are the evaluated configuration
    sep.add_argument("--lambda", dest="lam", type=float, default=std.solver.lam,
                     help="sparsity weight (default %(default)s)")
    sep.add_argument("--kappa", type=float, default=std.kappa,
                     help="smoothness weight floor (default %(default)s)")
    sep.add_argument("--iters", type=int, default=std.solver.n_iters,
                     help="solver iterations (default %(default)s)")
    sep.add_argument("--mu1", type=float, default=std.solver.mu1,
                     help="primal step (default %(default)s)")
    sep.add_argument("--mu2", type=float, default=std.solver.mu2,
                     help="dual step (default %(default)s)")
    sep.add_argument("--alpha", type=float, default=std.solver.alpha,
                     help="relaxation in (0, 2) (default %(default)s)")
    sep.add_argument("--win", type=int, default=std.win_len,
                     help="window length (default %(default)s)")
    sep.add_argument("--hop", type=int, default=std.hop,
                     help="hop size (default %(default)s)")
    sep.add_argument("--if-source", default="mix",
                     help="'mix' or 'oracle:PATH' (default mix)")
    sep.add_argument("--method", choices=("prop", "mf"), default="prop",
                     help="proposed solver or median-filter baseline")
    sep.add_argument("--trace", help="write the solver trace CSV here")
    sep.add_argument("--config", help="key=value config file (overrides the flags)")
    sep.add_argument("--bit-depth", default="float32",
                     choices=("16", "24", "float32"),
                     help="output sample format (default float32)")

    ev = sub.add_parser("eval", help="score estimates against reference stems")
    ev.add_argument("--ref-h", help="harmonic reference WAV")
    ev.add_argument("--ref-p", help="percussive reference WAV")
    ev.add_argument("--est-h", help="harmonic estimate WAV")
    ev.add_argument("--est-p", help="percussive estimate WAV")
    ev.add_argument("--filter-len", type=int, default=512,
                    help="projection filter taps (default 512)")
    ev.add_argument("--manifest",
                    help="CSV of track,ref_h,ref_p,est_h,est_p rows; batch mode")

    be = sub.add_parser("bench", help="run the synthetic benchmark suite")
    be.add_argument("--out-dir", help="directory for CSV outputs")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--tracks", type=int, default=10)
    be.add_argument("--sample-rate", type=int, default=16000)
    be.add_argument("--duration", type=float, default=2.5)
    be.add_argument("--win", type=int, default=1024)
    be.add_argument("--hop", type=int, default=256)
    be.add_argument("--iters", type=int, default=100)
    be.add_argument("--filter-len", type=int, default=512)

    du = sub.add_parser("dump-spec", help="dump a spectrogram or IF map (binary)")
    du.add_argument("input", help="input WAV path")
    du.add_argument("--out", required=True, help="output dump path")
    du.add_argument("--win", type=int, default=4096)
    du.add_argument("--hop", type=int, default=1024)
    du.add_argument("--kind", choices=("spec", "if"), default="spec")
    return parser


def _separate_config(args) -> HpssConfig:
    # flags first; a config file, when given, overrides them
    cfg = HpssConfig(
        win_len=args.win,
        hop=args.hop,
        kappa=args.kappa,
        solver=SolverParams(
            lam=args.lam,
            mu1=args.mu1,
            mu2=args.mu2,
            alpha=args.alpha,
            n_iters=args.iters,
        ),
    )
    if args.config:
        cfg = load_config(args.config, cfg)
    return cfg


def _cmd_separate(args) -> int:
    cfg = _separate_config(args)
    oracle = None
    if args.if_source == "mix":
        cfg = replace(cfg, if_source=IF_SOURCE_MIXTURE)
    elif args.if_source.startswith("oracle:"):
        cfg = replace(cfg, if_source=IF_SOURCE_ORACLE)
        oracle = read_wav(args.if_source.split(":", 1)[1])
    else:
        raise _ArgumentError(f"bad --if-source value: {args.if_source!r}")

    mixture = read_wav(args.input)
    trace = None
    if args.method == "mf":
        pair = mf_separate(mixture, cfg.stft(), cfg.median)
    else:
        pair, trace = separate(mixture, cfg, oracle_h=oracle)
    write_wav(args.out_h, pair.harmonic, args.bit_depth)
    write_wav(args.out_p, pair.percussive, args.bit_depth)
    if args.trace and trace is not None:
        trace.write_csv(args.trace)
    return EXIT_OK


def _cmd_eval(args, out) -> int:
    print(*EvalResult.HEADER, sep=",", file=out)
    if args.manifest:
        with open(args.manifest, newline="") as fh:
            entries = [row for row in csv.reader(fh) if row and row[0].strip()]
        results = []
        for row in entries:
            if len(row) != 5:
                raise _ArgumentError("manifest rows must be track,ref_h,ref_p,est_h,est_p")
            track, *paths = (cell.strip() for cell in row)
            results.append(_eval_files(*paths, args.filter_len))
            print(*results[-1].row(track, "file"), sep=",", file=out)
        if results:
            print(*EvalResult.mean(results).row("mean", "file"), sep=",", file=out)
        return EXIT_OK

    required = (args.ref_h, args.ref_p, args.est_h, args.est_p)
    if any(path is None for path in required):
        raise _ArgumentError("eval needs --ref-h/--ref-p/--est-h/--est-p or --manifest")
    res = _eval_files(*required, args.filter_len)
    print(*res.row("-", "file"), sep=",", file=out)
    return EXIT_OK


def _eval_files(ref_h, ref_p, est_h, est_p, filter_len):
    # bss_eval rejects unequal lengths and sample rates
    signals = [read_wav(p) for p in (ref_h, ref_p, est_h, est_p)]
    return bss_eval(*signals, filter_len=filter_len)


def _cmd_bench(args, out) -> int:
    cfg = HpssConfig(
        win_len=args.win,
        hop=args.hop,
        solver=SolverParams(n_iters=args.iters),
    )
    rows, _ = run_bench(
        out_dir=args.out_dir,
        seed=args.seed,
        n_tracks=args.tracks,
        sample_rate=args.sample_rate,
        duration=args.duration,
        cfg=cfg,
        filter_len=args.filter_len,
    )
    for row in (EvalResult.HEADER, *rows):
        print(*row, sep=",", file=out)
    return EXIT_OK


def _cmd_dump(args) -> int:
    from .stft import make_config

    signal = read_wav(args.input)
    config = make_config(args.win, args.hop)
    if args.kind == "spec":
        write_spec_dump(args.out, forward(signal, config))
    else:
        write_if_dump(args.out, estimate_if(signal, config))
    return EXIT_OK


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "separate":
            return _cmd_separate(args)
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "bench":
            return _cmd_bench(args, out)
        if args.command == "dump-spec":
            return _cmd_dump(args)
        raise _ArgumentError(f"unknown command {args.command!r}")
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
