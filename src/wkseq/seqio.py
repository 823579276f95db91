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

import csv
import io
import json
from fractions import Fraction
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


class _Values(dict):
    """Window values by their text, a CSV row's (num, den) fields or a JSON
    "num/den" entry: each text is parsed, checked for a positive denominator
    and built into one Fraction on its first lookup; later rows share it."""

    def __missing__(self, key) -> Fraction:
        if isinstance(key, tuple):
            num, den = key
        else:
            num, _, den = str(key).partition("/")
            if not den:
                raise ValueError(f"expected num/den, got {key!r}")
        num, den = int(num), int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        value = self[key] = Fraction(num, den)
        return value


def loads_csv(text: str) -> SeqWindow:
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None:
        raise WindowFormatError("empty file")
    if tuple(header[:3]) != CSV_HEADER:
        raise WindowFormatError(
            f"expected header {','.join(CSV_HEADER)}", line=1
        )
    parsed = _Values()
    offset = None
    values = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) < 3:
            raise WindowFormatError("need index,value_num,value_den", line=lineno)
        try:
            index, value = int(row[0]), parsed[row[1], row[2]]
        except ValueError as exc:
            raise WindowFormatError(str(exc), line=lineno) from None
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise WindowFormatError(
                f"indices must be contiguous, expected {offset + len(values)}",
                line=lineno,
            )
        values.append(value)
    if offset is None:
        raise WindowFormatError("no data rows")
    try:
        return SeqWindow(offset, tuple(values))
    except ValueError as exc:
        raise WindowFormatError(str(exc)) from None


def dumps_json(window: SeqWindow) -> str:
    return "".join(window_chunks([window], "json"))


def loads_json(text: str) -> SeqWindow:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WindowFormatError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA:
        raise WindowFormatError(f"expected schema {WINDOW_SCHEMA}")
    try:
        entries, parsed = doc["values"], _Values()
        if not isinstance(entries, list):
            raise ValueError('"values" must be an array')
        try:
            values = tuple(map(parsed.__getitem__, entries))
        except TypeError:  # unhashable: the first array or object entry
            bad = next(e for e in entries if isinstance(e, (list, dict)))
            raise ValueError(f"expected num/den, got {bad!r}") from None
        offset = doc["offset"]
        if type(offset) is not int:
            raise ValueError(f"offset must be an integer, got {offset!r}")
        return SeqWindow(offset, values)
    except (KeyError, ValueError) as exc:
        raise WindowFormatError(str(exc)) from None


def load_window(path: str) -> SeqWindow:
    """Load a window file, dispatching on its first byte (JSON vs CSV)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads_csv(text)
