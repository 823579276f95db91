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
neither the certificates, the relation searches, the report encoder, the
window readers nor `json`, and `verify` neither the window code nor the
search kernels.  The `relations` commands are in `wkseq.relations_cli`, and
the settings files' readers in `wkseq.config`.  A search on a window file
compiles only its format's reader (`wkseq.csv_reader` or
`wkseq.json_reader`), no writer and no walker, and only its own search:
thmB's is in `wkseq.thmb` and thmC's in `wkseq.thmc`.

argv is read from the flag table in `wkseq.flags`, without argparse, when
it has the canonical shape: the global `--flag value` pairs, then the
command words, then that command's own pairs, each flag once.  argparse's
parser, built from the same table in `wkseq.argparser`, serves only help,
usage errors, abbreviations, `--flag=value` forms and `--config`, and only
there are parsers built and freed.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Sequence

from .flags import read
from .ladder import Ladder, LadderError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def _cmd_gen(args: SimpleNamespace, ladder: Ladder) -> int:
    """Stream the window in pieces, in memory that does not grow with its length."""
    from .sequence import alpha_windows
    from .writer import window_chunks

    windows = alpha_windows(ladder, args.start, args.count)
    chunks = window_chunks(windows, args.format, args.decimals)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_PASS


def _cmd_verify(args: SimpleNamespace, ladder: Ladder) -> int:
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


def _parse_args(argv: Sequence[str] | None) -> SimpleNamespace:
    """argv read from the flag table; argparse only for what that reader
    leaves to it, which includes every help text and every usage error."""
    args = read(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .argparser import parse_args

        args = parse_args(argv)
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
