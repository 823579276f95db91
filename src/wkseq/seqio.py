"""Window serialization: delimited text and JSON, bit-exact.

CSV carries absolute indices and exact numerator/denominator columns, with
an optional decimal column that is presentation-only and ignored on load.
JSON carries the offset and the values as "num/den" strings under a
versioned schema tag.  Loading either form reproduces the original window
exactly.  Reports have their own encoder, `wkseq.report`.

This module holds what the two sides share, the formats' tags and the
table of index texts, and their entry points.  Each entry point imports
its side when called: `wkseq.writer` for a write, and for a read only its
format's reader, `wkseq.csv_reader` or `wkseq.json_reader`.  So a read
compiles no writer and no other format's reader, and `gen` compiles no
reader.
"""
from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # `gen` writes alpha's blocks, and compiles no window class
    from .sequence import SeqWindow

WINDOW_SCHEMA = "wk-window/1"
CSV_HEADER = ("index", "value_num", "value_den")


class WindowFormatError(ValueError):
    """A window file failed to parse; carries the offending line if known.
    The CLI refuses it as a ValueError, without importing this module."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@cache
def _suffixes() -> list[str]:
    return ["%03d" % i for i in range(1000)]


def index_runs(start: int, stop: int) -> Iterator[tuple[str, list[str]]]:
    """The indices start .. stop-1 (start >= 0) as runs of at most 1000 that
    share their thousands, each as (head, tails): index i of a run is the
    text head + tails[i].  From 1000 on, head is the thousands and tails a
    slice of the table of three-digit suffixes, so a run costs one string
    for its thousands and none per index; below it, head is ""."""
    while start < stop:
        thousands, i = divmod(start, 1000)
        j = min(1000, i + stop - start)
        yield (str(thousands), _suffixes()[i:j]) if thousands else ("", [*map(str, range(i, j))])
        start += j - i


def dumps_csv(window: SeqWindow, decimals: int = 0) -> str:
    from .writer import window_chunks  # only a write compiles the writer

    return "".join(window_chunks([window], "csv", decimals))


def loads_csv(text: str) -> SeqWindow:
    from .csv_reader import Text, csv_window  # only a CSV read compiles the CSV reader

    return csv_window(Text(text))


def dumps_json(window: SeqWindow) -> str:
    from .writer import window_chunks

    return "".join(window_chunks([window], "json"))


def loads_json(text: str) -> SeqWindow:
    from .json_reader import json_window
    from .readers import Text

    return json_window(Text(text))


def load_window(path: str) -> SeqWindow:
    """Load a window file, dispatching on its first non-blank character
    (JSON vs CSV) to that format's reader alone.  Either is parsed as it is
    read, never held whole, but for a JSON file that needs the exact path,
    or a pipe, which is read whole, since the readers go back to its start."""
    with open(path, encoding="utf-8") as fh:
        from .readers import Text

        stream = fh if fh.seekable() else Text(fh.read())
        while (lead := stream.read(64)).isspace():
            pass
        stream.seek(0)
        if lead.lstrip().startswith("{"):
            from .json_reader import json_window as read
        else:
            from .csv_reader import csv_window as read
        return read(stream)
