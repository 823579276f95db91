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
    sign = "-" if value < 0 else ""
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def dumps_csv(window: SeqWindow, decimals: int = 0) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(CSV_HEADER) + (["value_decimal"] if decimals else [])
    writer.writerow(header)
    for i, v in enumerate(window.values):
        row = [window.offset + i, v.numerator, v.denominator]
        if decimals:
            row.append(render_decimal(v, decimals))
        writer.writerow(row)
    return out.getvalue()


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
        return SeqWindow(offset, tuple(values))
    except ValueError as exc:
        raise WindowFormatError(str(exc)) from None


def dumps_json(window: SeqWindow) -> str:
    doc = {
        "schema": WINDOW_SCHEMA,
        "offset": window.offset,
        "values": [_frac_str(v) for v in window.values],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_json(text: str) -> SeqWindow:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WindowFormatError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA:
        raise WindowFormatError(f"expected schema {WINDOW_SCHEMA}")
    try:
        values = tuple(_parse_frac(s) for s in doc["values"])
        return SeqWindow(int(doc["offset"]), values)
    except (KeyError, TypeError, ValueError) as exc:
        raise WindowFormatError(str(exc)) from None


def _parse_frac(text: str) -> Fraction:
    num, _, den = str(text).partition("/")
    if not den:
        raise ValueError(f"expected num/den, got {text!r}")
    return Fraction(int(num), int(den))


def load_window(path: str) -> SeqWindow:
    """Load a window file, dispatching on its first byte (JSON vs CSV)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads_csv(text)
