"""Command-line frontend: separate, eval, bench, dump-spec."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from dataclasses import replace

from . import __version__
from .audio_io import read_wav, write_wav
from .baseline import mf_separate
from .bench import run_bench
from .metrics import EvalResult, bss_eval
from .phase import estimate_if
from .pipeline import (
    CONFIG_KEYS,
    IF_SOURCE_MIXTURE,
    IF_SOURCE_ORACLE,
    HpssConfig,
    load_config,
    separate,
    with_values,
)
from .solver import SolverDivergenceError, SolverParams
from .stft import StftConfig, StftPlan, write_dump

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_IO = 2
EXIT_DIVERGED = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise _ArgumentError(message)


# hpss separate model flags: (flag, config key, help)
_MODEL_FLAGS = (
    ("--lambda", "lambda", "sparsity weight"),
    ("--kappa", "kappa", "smoothness weight floor"),
    ("--iters", "iters", "solver iterations"),
    ("--mu1", "mu1", "primal step"),
    ("--mu2", "mu2", "dual step"),
    ("--alpha", "alpha", "relaxation in (0, 2)"),
    ("--win", "win_len", "window length"),
    ("--hop", "hop", "hop size"),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hpss", description="Harmonic/percussive source separation")
    parser.add_argument("--version", action="version", version=f"hpss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="separate a WAV file into two stems")
    sep.add_argument("input", help="input WAV path")
    sep.add_argument("--out-h", required=True, help="harmonic output WAV path")
    sep.add_argument("--out-p", required=True, help="percussive output WAV path")
    std = HpssConfig()  # flag defaults are the evaluated configuration
    for flag, key, text in _MODEL_FLAGS:
        section, name, parse = CONFIG_KEYS[key]
        default = getattr(getattr(std, section) if section else std, name)
        sep.add_argument(flag, dest=key, metavar=flag[2:].upper(), type=parse,
                         default=default, help=f"{text} (default %(default)s)")
    sep.add_argument("--if-source", default="mix",
                     help="'mix' or 'oracle:PATH' (default mix)")
    sep.add_argument("--method", choices=("prop", "mf"), default="prop",
                     help="proposed solver or median-filter baseline")
    sep.add_argument("--trace", help="record the solver trace and write it as CSV here")
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
    du.add_argument("--win", type=int, default=std.win_len)
    du.add_argument("--hop", type=int, default=std.hop)
    du.add_argument("--kind", choices=("spec", "if"), default="spec")
    return parser


def _separate_config(args) -> HpssConfig:
    # flags first; a config file, when given, overrides them
    cfg = with_values(HpssConfig(), {key: getattr(args, key) for _, key, _ in _MODEL_FLAGS})
    if args.config:
        cfg = load_config(args.config, cfg)
    return cfg


def _cmd_separate(args) -> int:
    oracle_path = None
    source, _, path = args.if_source.partition(":")
    if source == "oracle" and path:
        if args.method == "mf":
            raise _ArgumentError("an oracle --if-source needs --method prop; mf uses no IF")
        oracle_path = path
    elif args.if_source != "mix":
        raise _ArgumentError(f"bad --if-source value: {args.if_source!r}")
    if args.trace and args.method == "mf":
        raise _ArgumentError("--trace needs --method prop; mf runs no solver")
    _check_same_file(
        (("the input", args.input), ("--if-source", oracle_path), ("--config", args.config)),
        (("--out-h", args.out_h), ("--out-p", args.out_p), ("--trace", args.trace)),
    )
    cfg = _separate_config(args)
    cfg = replace(
        cfg,
        if_source=IF_SOURCE_MIXTURE if oracle_path is None else IF_SOURCE_ORACLE,
        solver=replace(cfg.solver, record_trace=bool(args.trace)),
    )
    config = cfg.stft()
    _check_out_dirs(("--out-h", args.out_h), ("--out-p", args.out_p), ("--trace", args.trace))
    oracle = None if oracle_path is None else read_wav(oracle_path)

    mixture = read_wav(args.input)
    if args.method == "mf":
        pair = mf_separate(mixture, config, cfg.median)
    else:
        pair, trace = separate(mixture, cfg, oracle_h=oracle)
    write_wav(args.out_h, pair.harmonic, args.bit_depth)
    write_wav(args.out_p, pair.percussive, args.bit_depth)
    if args.trace:
        trace.write_csv(args.trace)
    return EXIT_OK


def _check_same_file(inputs, outputs) -> None:
    """Fail before any read when an output path names the same file as an
    input or an earlier output, which its write would replace."""
    seen = {}
    for flag, path in inputs:
        if path is not None:
            seen.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs:
        if path is None:
            continue
        key = os.path.realpath(path)
        if key in seen:
            raise _ArgumentError(f"{flag} {path}: names the same file as {seen[key]}")
        seen[key] = flag


def _check_out_dirs(*outputs) -> None:
    """Fail before any work, not on the first write after the solve, when an
    output path is a directory or its directory does not exist."""
    for flag, path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path}: is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{flag} {path}: directory {folder} does not exist")


def _cmd_eval(args, out) -> int:
    # the header goes out with the first scored row, so a failure before it prints nothing
    for i, row in enumerate(_eval_rows(args)):
        if i == 0:
            print(*EvalResult.HEADER, sep=",", file=out)
        print(*row, sep=",", file=out)
    return EXIT_OK


def _eval_rows(args):
    if args.filter_len < 1:  # before any file is read
        raise _ArgumentError(f"--filter-len must be >= 1, got {args.filter_len}")
    stems = {"--ref-h": args.ref_h, "--ref-p": args.ref_p,  # in bss_eval's order
             "--est-h": args.est_h, "--est-p": args.est_p}
    if args.manifest:
        given = [flag for flag, path in stems.items() if path is not None]
        if given:  # the manifest's rows name every stem, so a stem flag would go unread
            raise _ArgumentError(f"--manifest cannot be combined with {', '.join(given)}")
        with open(args.manifest, newline="") as fh:
            reader = csv.reader(fh)
            entries = [(reader.line_num, [cell.strip() for cell in row])
                       for row in reader if any(cell.strip() for cell in row)]
        if not entries:
            raise _ArgumentError(f"manifest {args.manifest} has no rows")
        for line, row in entries:
            if len(row) != 5:
                raise _ArgumentError(f"manifest line {line}: expected 5 cells "
                                     f"(track,ref_h,ref_p,est_h,est_p), got {len(row)}")
            if not row[0]:
                raise _ArgumentError(f"manifest line {line}: empty track name")
        results = []
        for _, (track, *paths) in entries:
            try:
                results.append(_eval_files(*paths, args.filter_len))
            except ValueError as exc:
                raise ValueError(f"{track}: {exc}") from None
            yield results[-1].row(track, "file")
        yield EvalResult.mean(results).row("mean", "file")
        return

    if None in stems.values():
        raise _ArgumentError(f"eval needs {'/'.join(stems)} or --manifest")
    yield _eval_files(*stems.values(), args.filter_len).row("-", "file")


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
    _check_same_file((("the input", args.input),), (("--out", args.out),))
    config = StftConfig(args.win, args.hop)
    _check_out_dirs(("--out", args.out))
    signal = read_wav(args.input)
    if args.kind == "spec":
        data = StftPlan(config, signal.samples.size).forward(signal.samples)
    else:
        data = estimate_if(signal, config)
    write_dump(args.out, data, config)
    return EXIT_OK


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    # warnings print as one line each; callers recording them still see them all
    saved_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
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
    except (_ArgumentError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except MemoryError as exc:  # a request too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
