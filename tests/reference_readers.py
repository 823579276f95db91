"""The window readers as they were before values were parsed once per
distinct text: one `int` pair, one `Fraction` and one range check per row.

`test_seqio.py` loads the same files with these and with `wkseq.seqio` and
asserts the same window, or the same error.  The [0, 1] check is written
out here per value, as `SeqWindow` used to make it, so nothing in this
module depends on the package's new code paths except the final
`SeqWindow` constructor and the error type.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from wkseq import SeqWindow, WindowFormatError
from wkseq.seqio import CSV_HEADER, WINDOW_SCHEMA


def _window(offset, values) -> SeqWindow:
    if offset < 0:
        raise ValueError("window offset must be nonnegative")
    if not values:
        raise ValueError("window must hold at least one value")
    for v in values:
        if not 0 <= v.numerator <= v.denominator:
            raise ValueError(f"window value {v} outside [0, 1]")
    return SeqWindow(offset, values)


def loads_csv(text: str) -> SeqWindow:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise WindowFormatError("empty file")
    if tuple(rows[0][:3]) != CSV_HEADER:
        raise WindowFormatError(
            f"expected header {','.join(CSV_HEADER)}", line=1
        )
    offset = None
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 3:
            raise WindowFormatError("need index,value_num,value_den", line=lineno)
        try:
            index, num, den = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise WindowFormatError(str(exc), line=lineno) from None
        if den <= 0:
            raise WindowFormatError("denominator must be positive", line=lineno)
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise WindowFormatError(
                f"indices must be contiguous, expected {offset + len(values)}",
                line=lineno,
            )
        values.append(Fraction(num, den))
    if offset is None:
        raise WindowFormatError("no data rows")
    try:
        return _window(offset, tuple(values))
    except ValueError as exc:
        raise WindowFormatError(str(exc)) from None


def loads_json(text: str) -> SeqWindow:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WindowFormatError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA:
        raise WindowFormatError(f"expected schema {WINDOW_SCHEMA}")
    try:
        values = tuple(_parse_frac(s) for s in doc["values"])
        return _window(int(doc["offset"]), values)
    except (KeyError, TypeError, ValueError) as exc:
        raise WindowFormatError(str(exc)) from None


def _parse_frac(text: str) -> Fraction:
    num, _, den = str(text).partition("/")
    if not den:
        raise ValueError(f"expected num/den, got {text!r}")
    return Fraction(int(num), int(den))
