"""The CLI's flags, stated once, and the reader of argv in canonical shape.

`FLAGS` holds each command path's flags with argparse's `add_argument`
keywords, and `GROUPS` each path's subcommands.  `read` takes argv in the
shape every script and example uses: the global `--flag value` pairs, then
the command words, then that command's own pairs, each flag at most once.
For such argv it returns what argparse returns, through the same converters
and choice checks; for any other argv it returns None, and `wkseq.argparser`
builds argparse's parser from the same tables, which writes the help, the
usage lines and every error.  So an ordinary call imports no argparse.
"""
from __future__ import annotations

import re
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence


def _refused(message: str) -> Exception:
    """argparse's error for a value a converter refuses, the one place a
    converter imports argparse."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _fraction_arg(text: str) -> Fraction:
    # fixed, so that a report can write it as num/den under Python's default limit of 4300
    # digits; a run of as many digits is refused first, as that limit would refuse it in Fraction,
    # and so is a nonzero decimal whose exponent reaches 8600 (4300 digits whatever its mantissa),
    # before Fraction builds 10**exponent; a zero mantissa reads as 0 whatever its exponent
    if not re.search(r"\d{4300}", text.replace("_", "")):
        exp = re.fullmatch(r"(.*[eE][-+]?)(\d+(?:_\d+)*)(\s*)", text)
        far = exp is not None and int(exp[2]) >= 8600
        try:
            value = Fraction(f"{exp[1]}0{exp[3]}" if far else text)
        except (ValueError, ZeroDivisionError) as exc:
            raise _refused(f"not a rational: {text!r}") from exc
        if not (far and value) and max(abs(value.numerator), value.denominator) < 10**4300:
            return value
    raise _refused(f"numerator or denominator of 4300 digits or more: {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _refused("must be at least 1")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _refused("must be nonnegative")
    return value


#: Required flags' keywords that several commands share.
NONNEG, POSITIVE = dict(type=_nonneg_int, required=True), dict(type=_positive_int, required=True)
RATIONAL, ORBIT = dict(type=_fraction_arg, required=True), dict(required=True, metavar="ORBIT")

#: Each command path's flags, in the order its help lists them.
FLAGS = {
    (): {
        "--config": dict(metavar="PATH", help="INI config with a [run] section"),
        "--ladder-schedule": dict(metavar="PATH", help="explicit growth schedule, one integer per line"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--decimals": dict(type=_nonneg_int, default=0, help="extra decimal column width for CSV output"),
        "--parallelism": dict(type=_positive_int,
                              help="accepted for compatibility and ignored: searches run as one pass"),
    },
    ("gen",): {
        "--from": dict(dest="start", type=_nonneg_int, default=0),
        "--len": dict(dest="count", type=_positive_int, required=True),
        "--out": dict(metavar="PATH"),
    },
    ("verify", "rigidity"): {"--n": NONNEG, "--count": POSITIVE},
    ("verify", "returns"): {"--n": NONNEG, "--samples": dict(type=_positive_int)},
    ("verify", "ones"): {
        "--n": POSITIVE, "--window": POSITIVE,
        "--mode": dict(choices=("auto", "scan", "plateau"), default="auto"),
    },
    ("verify", "wm"): {"--n": NONNEG, "--eps": dict(type=_fraction_arg)},
    ("verify", "shift-defect"): {
        "--n": NONNEG, "--m": NONNEG, "--step": dict(type=_fraction_arg, default=Fraction(1)),
    },
    ("relations", "classify"): {
        "--a": ORBIT, "--b": ORBIT,
        "--shift-a": dict(type=_nonneg_int, default=0), "--shift-b": dict(type=_nonneg_int, default=0),
        "--delta": RATIONAL, "--start": dict(type=_nonneg_int, default=0),
        "--horizon": NONNEG, "--k": POSITIVE, "--tau": RATIONAL, "--require": dict(metavar="LABEL[,LABEL]"),
    },
    ("relations", "thmB"): {
        "--orbit": ORBIT, "--fixed-point": dict(dest="fixed_point", **ORBIT),
        "--pairs": dict(required=True, metavar="M:N[,M:N]"),
        "--horizon": NONNEG, "--k": POSITIVE, "--tau": RATIONAL,
    },
    ("relations", "thmC"): {
        "--orbit": ORBIT, "--q": POSITIVE, "--delta": RATIONAL,
        "--horizon": NONNEG, "--k": POSITIVE, "--tau": RATIONAL,
    },
}

#: Each command path that takes a subcommand: the subcommand's dest, and
#: each subcommand's help, in order.
GROUPS = {
    (): ("command", {
        "gen": "emit a window of the limit sequence",
        "verify": "run one finite certificate check",
        "relations": "orbit-pair witness searches",
    }),
    ("verify",): ("lemma", {
        "rigidity": "sequence-level near-period bound",
        "returns": "exact return identities at one level",
        "ones": "syndetic runs of exact ones",
        "wm": "double return at consecutive times",
        "shift-defect": "function-level near-period bound",
    }),
    ("relations",): ("subcommand", {
        "classify": "three-way label for one pair",
        "thmB": "joint proximity and recurrence per pair",
        "thmC": "separation through a block pattern",
    }),
}


def _dest(flag: str, keywords: dict) -> str:
    """The namespace attribute a flag sets, named as argparse names it."""
    return keywords.get("dest") or flag[2:].replace("-", "_")


def read(argv: Sequence[str]) -> SimpleNamespace | None:
    """argparse's namespace for argv in canonical shape, or None.

    None for anything else: help, an abbreviated, repeated, unknown or
    misplaced flag, `--flag=value`, a value that starts with "-" or that a
    converter or choice refuses, a missing required flag or subcommand, and
    `--config`, whose file's values become defaults.  It never prints,
    exits or raises."""
    if "--config" in argv:
        return None
    args, path, i = {}, (), 0
    while True:
        flags = FLAGS.get(path, {})
        args.update((_dest(flag, kw), kw.get("default")) for flag, kw in flags.items())
        given = set()
        while i < len(argv) and argv[i] in flags:
            flag, kw = argv[i], flags[argv[i]]
            if flag in given or i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            try:
                value = kw.get("type", str)(argv[i + 1])
            except Exception:  # ArgumentTypeError too, unnamed here: argparse reads argv again and reports it
                return None
            if value not in kw.get("choices", (value,)):
                return None
            args[_dest(flag, kw)] = value
            given.add(flag)
            i += 2
        if any(kw.get("required") and flag not in given for flag, kw in flags.items()):
            return None
        if path not in GROUPS:
            return SimpleNamespace(**args) if i == len(argv) else None
        name, words = GROUPS[path]
        if i == len(argv) or argv[i] not in words:
            return None
        args[name] = argv[i]
        path, i = (*path, argv[i]), i + 1
