"""Window serialization: delimited text and JSON, bit-exact.

CSV carries absolute indices and exact numerator/denominator columns, with
an optional decimal column that is presentation-only and ignored on load.
JSON carries the offset and the values as "num/den" strings under a
versioned schema tag.  Loading either form reproduces the original window
exactly.  Reports have their own encoder, `wkseq.report`.
"""
from __future__ import annotations

import io
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .sequence import SeqWindow

WINDOW_SCHEMA = "wk-window/1"
CSV_HEADER = ("index", "value_num", "value_den")
#: Most CSV rows in one chunk of `window_chunks`.  Each row's index is a
#: string of its own until its chunk is joined, so this bounds those
#: strings: writing alpha near 10^20 peaked at 0.83 MB of Python memory in
#: chunks of 4096 rows, and at 0.46 MB in chunks of 1024.
WRITE_ROWS = 1024


class WindowFormatError(ValueError):
    """A window file failed to parse; carries the offending line if known.
    The CLI refuses it as a ValueError, without importing this module."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def render_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point rendering truncated toward zero; presentation only."""
    if digits < 1:
        raise ValueError("need at least one digit")
    scaled = abs(value.numerator) * 10**digits // value.denominator
    sign = "-" if value.numerator < 0 else ""
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def window_chunks(
    windows: Iterable[SeqWindow], fmt: str = "csv", decimals: int = 0
) -> Iterator[str]:
    """The text of one window file holding consecutive windows, in one
    chunk per window for JSON and chunks of at most `WRITE_ROWS` rows for
    CSV; `decimals` adds the CSV's presentation-only decimal column.

    Each distinct value of a window (`SeqWindow` keeps them, in the order
    of their first appearance) is formatted once: its JSON entry, or its
    CSV row after the index.  Where values repeat, as in alpha's windows,
    each row's text is looked up by its code; where none does, the texts
    are the rows.  Either way the rows are joined at C speed.
    """
    count = 0
    for count, w in enumerate(windows, 1):
        distinct = w._distinct
        if fmt == "json":
            texts = ['"%d/%d"' % v.as_integer_ratio() for v in distinct]
        elif decimals:
            texts = [f",{v.numerator},{v.denominator},{render_decimal(v, decimals)}\n" for v in distinct]
        else:
            texts = [",%d,%d\n" % v.as_integer_ratio() for v in distinct]
        if len(texts) < len(w):
            texts = map(texts.__getitem__, w._codes)
        if fmt == "json":
            head = f'{{"offset":{w.offset},"schema":"{WINDOW_SCHEMA}","values":[' if count == 1 else ","
            yield head + ",".join(texts)
        else:
            head = ",".join(CSV_HEADER + ("value_decimal",) * bool(decimals)) + "\n" if count == 1 else ""
            rows = chain.from_iterable(zip(map(str, range(w.offset, w.offset + len(w))), texts))
            parts = iter(lambda: "".join(islice(rows, 2 * WRITE_ROWS)), "")
            yield head + next(parts)
            yield from parts
    if fmt == "json" and count:
        yield "]}\n"


@cache
def _suffixes() -> list[str]:
    return ["%03d" % i for i in range(1000)]


def index_text(start: int, count: int) -> str:
    """`",".join(map(str, range(start, start + count)))`, without an int or a
    string per index from 1000 on: there each run of indices that share
    their thousands is a slice of the table of three-digit suffixes, joined
    by "," and those thousands."""
    stop = start + count
    if start < 0:
        return ",".join(map(str, range(start, stop)))
    parts = []
    while start < stop:
        thousands, i = divmod(start, 1000)
        j = min(1000, i + stop - start)
        if thousands:
            head = str(thousands)
            parts.append(head + ("," + head).join(_suffixes()[i:j]))
        else:
            parts.append(",".join(map(str, range(i, j))))
        start += j - i
    return ",".join(parts)


def dumps_csv(window: SeqWindow, decimals: int = 0) -> str:
    return "".join(window_chunks([window], "csv", decimals))


def loads_csv(text: str) -> SeqWindow:
    from .readers import csv_window  # only a window read compiles the readers

    return csv_window(io.StringIO(text))


def dumps_json(window: SeqWindow) -> str:
    return "".join(window_chunks([window], "json"))


def loads_json(text: str) -> SeqWindow:
    from .readers import json_window

    return json_window(io.StringIO(text))


def load_window(path: str) -> SeqWindow:
    """Load a window file, dispatching on its first non-blank character
    (JSON vs CSV).  Either is parsed as it is read, never held whole, but
    for a JSON file that needs the exact path, or a pipe, which is read
    whole, since the readers go back to its start."""
    from .readers import csv_window, json_window

    with open(path, "r", encoding="utf-8") as fh:
        stream = fh if fh.seekable() else io.StringIO(fh.read())
        while (lead := stream.read(64)).isspace():
            pass
        stream.seek(0)
        return (json_window if lead.lstrip().startswith("{") else csv_window)(stream)
