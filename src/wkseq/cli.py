"""Command-line front end.

Three command families: ``gen`` streams windows of the limit sequence,
``verify`` runs the finite certificate checks and prints their JSON
reports, ``relations`` classifies orbit pairs and prints JSON verdicts.

Exit codes are scripting-stable: 0 means every requested check or label
passed, 1 means a certificate failed or a label went unwitnessed, 2 means
bad parameters or unreadable input, and 3 means an unexpected crash.
Decimal rendering is presentation only; exact num/den strings are always
emitted and are the values of record.

Each command imports the layers it runs when it runs them, so `gen` loads
neither the certificates, the relation searches, the report encoder nor
`json`, and `verify` neither the window code nor the search kernels.  The
`relations` commands are in `wkseq.relations_cli`, and the settings files'
readers in `wkseq.config`.
"""
from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction
from typing import Sequence

from .ladder import Ladder, LadderError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _cmd_gen(args: argparse.Namespace, ladder: Ladder) -> int:
    """Stream the window in pieces, in memory that does not grow with its length."""
    from .seqio import window_chunks
    from .sequence import alpha_windows

    windows = alpha_windows(ladder, args.start, args.count)
    chunks = window_chunks(windows, args.format, args.decimals)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace, ladder: Ladder) -> int:
    from . import certify
    from .report import emit

    if args.lemma == "rigidity":
        report = certify.check_rigidity(ladder, args.n, args.count)
    elif args.lemma == "returns":
        p = ladder.p(args.n)
        step = 1 if args.samples is None else max(1, (2 * p) // args.samples)
        grid = certify.scan_points(range(-p, p + 1, step))
        report = certify.check_returns(ladder, args.n, grid, None if grid[-1] == p else p)
    elif args.lemma == "ones":
        report = certify.check_ones_runs(ladder, args.n, args.window, mode=args.mode)
    elif args.lemma == "wm":
        report = certify.check_wm_returns(ladder, args.n, eps=args.eps)
    else:
        report = certify.check_shift_defect(ladder, args.n, args.m, args.step)
    emit(report.to_json_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, set up (which imports `shutil` for the
    terminal width) only to write text, not to check each added argument."""

    def __init__(self, prog: str):
        self._prog = prog

    def __getattr__(self, name: str):
        if "_width" in vars(self):  # set up, so the attribute does not exist
            raise AttributeError(name)
        super().__init__(self._prog)
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self) -> argparse.HelpFormatter:
        return _Formatter(self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wkseq",
        description="Generate, verify and classify exact shift-orbit data.",
    )
    parser.add_argument("--config", metavar="PATH", help="INI config with a [run] section")
    parser.add_argument("--ladder-schedule", metavar="PATH", help="explicit growth schedule, one integer per line")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--decimals", type=_nonneg_int, default=0, help="extra decimal column width for CSV output")
    parser.add_argument("--parallelism", type=_positive_int, help="accepted for compatibility and ignored: searches run as one pass")
    sub = parser.add_subparsers(dest="command", required=True, prog="wkseq")

    gen = sub.add_parser("gen", help="emit a window of the limit sequence")
    gen.add_argument("--from", dest="start", type=_nonneg_int, default=0)
    gen.add_argument("--len", dest="count", type=_positive_int, required=True)
    gen.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run one finite certificate check")
    vsub = verify.add_subparsers(dest="lemma", required=True, prog="wkseq verify")
    rig = vsub.add_parser("rigidity", help="sequence-level near-period bound")
    rig.add_argument("--n", type=_nonneg_int, required=True)
    rig.add_argument("--count", type=_positive_int, required=True)
    ret = vsub.add_parser("returns", help="exact return identities at one level")
    ret.add_argument("--n", type=_nonneg_int, required=True)
    ret.add_argument("--samples", type=_positive_int)
    ones = vsub.add_parser("ones", help="syndetic runs of exact ones")
    ones.add_argument("--n", type=_positive_int, required=True)
    ones.add_argument("--window", type=_positive_int, required=True)
    ones.add_argument("--mode", choices=("auto", "scan", "plateau"), default="auto")
    wm = vsub.add_parser("wm", help="double return at consecutive times")
    wm.add_argument("--n", type=_nonneg_int, required=True)
    wm.add_argument("--eps", type=_fraction_arg)
    sd = vsub.add_parser("shift-defect", help="function-level near-period bound")
    sd.add_argument("--n", type=_nonneg_int, required=True)
    sd.add_argument("--m", type=_nonneg_int, required=True)
    sd.add_argument("--step", type=_fraction_arg, default=Fraction(1))

    rel = sub.add_parser("relations", help="orbit-pair witness searches")
    rsub = rel.add_subparsers(dest="subcommand", required=True, prog="wkseq relations")
    cls = rsub.add_parser("classify", help="three-way label for one pair")
    cls.add_argument("--a", required=True, metavar="ORBIT")
    cls.add_argument("--b", required=True, metavar="ORBIT")
    cls.add_argument("--shift-a", type=_nonneg_int, default=0)
    cls.add_argument("--shift-b", type=_nonneg_int, default=0)
    cls.add_argument("--delta", type=_fraction_arg, required=True)
    cls.add_argument("--start", type=_nonneg_int, default=0)
    cls.add_argument("--horizon", type=_nonneg_int, required=True)
    cls.add_argument("--k", type=_positive_int, required=True)
    cls.add_argument("--tau", type=_fraction_arg, required=True)
    cls.add_argument("--require", metavar="LABEL[,LABEL]")
    thb = rsub.add_parser("thmB", help="joint proximity and recurrence per pair")
    thb.add_argument("--orbit", required=True, metavar="ORBIT")
    thb.add_argument("--fixed-point", dest="fixed_point", required=True, metavar="ORBIT")
    thb.add_argument("--pairs", required=True, metavar="M:N[,M:N]")
    thb.add_argument("--horizon", type=_nonneg_int, required=True)
    thb.add_argument("--k", type=_positive_int, required=True)
    thb.add_argument("--tau", type=_fraction_arg, required=True)
    thc = rsub.add_parser("thmC", help="separation through a block pattern")
    thc.add_argument("--orbit", required=True, metavar="ORBIT")
    thc.add_argument("--q", type=_positive_int, required=True)
    thc.add_argument("--delta", type=_fraction_arg, required=True)
    thc.add_argument("--horizon", type=_nonneg_int, required=True)
    thc.add_argument("--k", type=_positive_int, required=True)
    thc.add_argument("--tau", type=_fraction_arg, required=True)
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Flags over the config file's values.  The parser's objects hold
    reference cycles, so only the collector frees them.  It does not run
    while they are made, so all are in its youngest generation, and one pass
    over that (about 0.2 ms) frees them before a command runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            from .config import run_section

            parser.set_defaults(**run_section(args.config))
            args = parser.parse_args(argv)
    finally:
        if enabled:
            gc.enable()
    del parser
    gc.collect(0)
    return args


def console_main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        if args.format not in ("csv", "json"):  # choices are not checked on a default
            raise ValueError(f"unknown output format {args.format!r}")
        if args.ladder_schedule:
            from .config import load_schedule_file
        ladder = Ladder(load_schedule_file(args.ladder_schedule) if args.ladder_schedule else None)
        if args.command == "gen":
            return _cmd_gen(args, ladder)
        if args.command == "verify":
            return _cmd_verify(args, ladder)
        from .relations_cli import run

        return EXIT_PASS if run(args, ladder) else EXIT_FAIL
    except (LadderError, ValueError, OSError) as exc:  # a WindowFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # crash guard: keep exit 3 distinct from exit 1
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH
