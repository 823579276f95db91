"""argparse's parser for the CLI, built from `wkseq.flags`'s tables.

The CLI imports this module only for argv that `flags.read` leaves alone:
help, usage errors, abbreviations, `--flag=value` forms and `--config`.
"""
from __future__ import annotations

import argparse
import gc
from types import SimpleNamespace
from typing import Sequence

from .flags import FLAGS, GROUPS


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


def _add(parser: argparse.ArgumentParser, path: tuple[str, ...]) -> argparse.ArgumentParser:
    """Add the path's flags and subcommands to its parser, and theirs to theirs."""
    for flag, keywords in FLAGS.get(path, {}).items():
        parser.add_argument(flag, **keywords)
    if path in GROUPS:
        name, words = GROUPS[path]
        sub = parser.add_subparsers(dest=name, required=True, prog=" ".join(("wkseq", *path)))
        for word, text in words.items():
            _add(sub.add_parser(word, help=text), (*path, word))
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wkseq", description="Generate, verify and classify exact shift-orbit data.")
    return _add(parser, ())


def parse_args(argv: Sequence[str] | None) -> SimpleNamespace:
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
    return SimpleNamespace(**vars(args))
