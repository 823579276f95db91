"""Window and report serialization: delimited text and JSON, bit-exact.

CSV carries absolute indices and exact numerator/denominator columns, with
an optional decimal column that is presentation-only and ignored on load.
JSON carries the offset and the values as "num/den" strings under a
versioned schema tag.  Loading either form reproduces the original window
exactly.  Certificate reports and pair verdicts are JSON documents under
their own schema tag, built by `report_dict`, with every rational in the
same "num/den" form.
"""
from __future__ import annotations

import io
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .sequence import SeqWindow

WINDOW_SCHEMA = "wk-window/1"
REPORT_SCHEMA = "wk-report/1"
CSV_HEADER = ("index", "value_num", "value_den")


class WindowFormatError(Exception):
    """A window file failed to parse; carries the offending line if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _frac_str(value: Fraction) -> str:
    """The exact "num/den" form every window file and report uses."""
    return f"{value.numerator}/{value.denominator}"


def report_dict(**fields) -> dict:
    """A wk-report/1 document holding `fields`.

    Rationals become "num/den" strings, named tuples become objects keyed
    by their field names, other tuples and lists become arrays, and every
    other value is kept as it is.
    """
    return {"schema": REPORT_SCHEMA, **{k: _jsonable(v) for k, v in fields.items()}}


def _jsonable(value):
    if isinstance(value, Fraction):
        return _frac_str(value)
    if hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


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
    """The text of one window file holding consecutive windows, one chunk
    per window; `decimals` adds the CSV's presentation-only decimal column."""
    count = 0
    for count, w in enumerate(windows, 1):
        if fmt == "json":
            head = f'{{"offset":{w.offset},"schema":"{WINDOW_SCHEMA}","values":[' if count == 1 else ","
            yield head + ",".join(f'"{_frac_str(v)}"' for v in w.values)
            continue
        head = ",".join(CSV_HEADER + ("value_decimal",) * bool(decimals)) + "\n" if count == 1 else ""
        yield head + "".join(
            f"{i},{v.numerator},{v.denominator}"
            + (f",{render_decimal(v, decimals)}\n" if decimals else "\n")
            for i, v in enumerate(w.values, w.offset)
        )
    if fmt == "json" and count:
        yield "]}\n"


def dumps_csv(window: SeqWindow, decimals: int = 0) -> str:
    return "".join(window_chunks([window], "csv", decimals))


def loads_csv(text: str) -> SeqWindow:
    from .readers import csv_window  # only a window read compiles the readers

    return csv_window(io.StringIO(text))


def dumps_json(window: SeqWindow) -> str:
    return "".join(window_chunks([window], "json"))


def loads_json(text: str) -> SeqWindow:
    from .readers import json_window

    return json_window(text)


def load_window(path: str) -> SeqWindow:
    """Load a window file, dispatching on its first non-blank character
    (JSON vs CSV).  A CSV file is parsed as it is read, never held whole."""
    with open(path, "r", encoding="utf-8") as fh:
        lead = []
        for line in fh:
            lead.append(line)
            if not line.isspace():
                break
        if lead and lead[-1].lstrip().startswith("{"):
            return loads_json("".join(lead) + fh.read())
        from .readers import csv_window

        return csv_window(chain(lead, fh))
