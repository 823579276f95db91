"""The window readers behind `seqio.loads_csv`, `loads_json` and `load_window`.

Text in the shape `gen` writes is read a block at a time at C speed: one
`str.translate` deletes the ASCII digits, plus `.` for CSV or `/` for JSON,
and what is left must be the format's separator skeleton.  A block that
matches is split with `str.split`, and its values are kept only once the
whole block has passed.  Any other text takes the exact path, which alone
raises errors: `csv.reader` over the rows of the CSV block that failed, or
`json.loads` of the whole text.  Both paths parse each distinct value text
once, through `_Values`, so they give the same window, the same error and
the same line number.

Only a window read imports this module, so no other command compiles it,
and a read imports `csv` or `json` only for its own format.
"""
from __future__ import annotations

import io
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, TextIO

from .seqio import CSV_HEADER, WINDOW_SCHEMA, WindowFormatError
from .sequence import SeqWindow

#: Characters per CSV block (each completed to the end of its line), and
#: per slice of a JSON values array.  Each bounds the strings a read holds
#: at once to a few hundred KB, which a search's peak RSS shows; larger
#: blocks read no faster.
CSV_BLOCK = 1 << 14
JSON_SLICE = 1 << 12

_CSV_DROP = str.maketrans("", "", "0123456789.")
_JSON_DROP = str.maketrans("", "", "0123456789/")


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


def csv_window(stream: TextIO, lead: Iterable[str] = ()) -> SeqWindow:
    """The window of a CSV file, its lines `lead` (if any) and then the text
    of `stream`, so the file is never held whole.  After the header, the
    text is read in blocks of CSV_BLOCK characters, each completed to the
    end of its line.  A block not in canonical shape is parsed one record at
    a time, with the lines that a quoted field carries past its end; the
    next block is tried in canonical shape again."""
    import csv

    header = next(csv.reader(chain(lead, stream)), None)  # reads the header's lines and no more
    if header is None:
        raise WindowFormatError("empty file")
    if tuple(header[:3]) != CSV_HEADER:
        raise WindowFormatError(
            f"expected header {','.join(CSV_HEADER)}", line=1
        )
    parsed = _Values()
    offset = None
    values = []
    records = 1  # read so far, the header's included; a block that passed holds one per line
    limit = csv.field_size_limit()
    while text := stream.read(CSV_BLOCK):
        if not text.endswith("\n"):
            text += stream.readline()
        passed = _csv_block(text, parsed, None if offset is None else offset + len(values), limit)
        if passed is not None:
            if offset is None:
                offset = passed[0]
            values += passed[1]
            records += len(passed[1])
            continue
        for row in _records(text, stream):
            records += 1
            if not row:
                continue
            if len(row) < 3:
                raise WindowFormatError("need index,value_num,value_den", line=records)
            try:
                index, value = int(row[0]), parsed[row[1], row[2]]
            except ValueError as exc:
                raise WindowFormatError(str(exc), line=records) from None
            if offset is None:
                offset = index
            elif index != offset + len(values):
                raise WindowFormatError(
                    f"indices must be contiguous, expected {offset + len(values)}",
                    line=records,
                )
            values.append(value)
    if offset is None:
        raise WindowFormatError("no data rows")
    try:
        return SeqWindow._from_distinct(offset, tuple(values), parsed.values())
    except ValueError as exc:
        raise WindowFormatError(str(exc)) from None


def _records(text: str, stream: TextIO) -> Iterator[list[str]]:
    """The records of `text`, whole lines, as `csv.reader` reads them; a
    record whose quoted field is still open at the end of the text takes
    the lines of `stream` it spans."""
    import csv

    def lines():
        yield from io.StringIO(text)
        # the reader asks past the text for a new record only once the last
        # one is out, at its line count; for more of an open one, past it
        while reader.line_num > ended:
            line = stream.readline()
            if not line:
                return
            yield line

    reader, ended = csv.reader(lines()), 0
    for row in reader:
        ended = reader.line_num
        yield row


def _csv_block(text: str, parsed: _Values, first: int | None, limit: int):
    """(first index, values) of a block of lines `i,num,den[,...]`, each
    field ASCII digits or `.`, each line ending in a newline, every line with
    the same number of fields, and indices contiguous from `first` (from the
    block's own first index if None); or None if the block needs the exact
    path.  A line longer than the csv module's field `limit` also needs it,
    since only the exact path enforces that limit."""
    skeleton = text.translate(_CSV_DROP)
    commas = skeleton.find("\n")
    rows = skeleton.count("\n")
    if (commas < 2 or skeleton != ("," * commas + "\n") * rows
            or len(text) > limit and max(map(len, text.split("\n"))) > limit):
        return None
    fields = text.replace("\n", ",").split(",")
    step = commas + 1
    try:
        if first is None:
            first = int(fields[0])
        if ",".join(fields[0:-1:step]) != ",".join(["%d"] * rows) % tuple(range(first, first + rows)):
            return None
        return first, list(map(parsed.__getitem__, zip(fields[1::step], fields[2::step])))
    except ValueError:
        return None


def json_window(text: str) -> SeqWindow:
    """The window of a JSON window document."""
    import json

    window = _json_blocks(text)
    if window is not None:
        return window
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
        return SeqWindow._from_distinct(offset, values, parsed.values())
    except (KeyError, ValueError) as exc:
        raise WindowFormatError(str(exc)) from None


def _json_blocks(text: str) -> SeqWindow | None:
    """The window of a JSON text whose first `[` and last `]` hold its
    "values" array, if every entry is "num/den" in ASCII digits, separated
    by `,` or `, `, and the whole document is a valid window; else None.

    The text with the array's body cut out parses to the same document but
    for the body, so the array is "values" if that parse gives it `[]`, and
    the body is a bracket-free run of entries if it passes the skeleton
    check.  The body is read in slices of about `JSON_SLICE` characters,
    each cut after an entry."""
    import json

    start, end = text.find("["), text.rfind("]")
    if not 0 <= start < end or not text.startswith('"', start + 1):
        return None
    try:
        doc = json.loads(text[:start + 1] + text[end:])
    except (ValueError, RecursionError):
        return None
    if (not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA
            or doc.get("values") != [] or type(doc.get("offset")) is not int):
        return None
    parsed = _Values()
    values = []
    pos = start + 1
    while True:
        cut = text.find('",', pos + JSON_SLICE, end) + 1 or end
        piece = text[pos:cut]
        sep = '","' if '","' in piece else '", "'
        entries = piece[1:-1].split(sep)
        if piece.translate(_JSON_DROP) != '"' + sep * (len(entries) - 1) + '"':
            return None
        try:
            values += map(parsed.__getitem__, entries)
        except ValueError:
            return None
        if cut == end:
            break
        pos = cut + 1 + text.startswith(" ", cut + 1)
    try:
        return SeqWindow._from_distinct(doc["offset"], tuple(values), parsed.values())
    except ValueError:
        return None
