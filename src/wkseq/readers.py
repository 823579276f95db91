"""The window readers behind `seqio.loads_csv`, `loads_json` and `load_window`.

Text in the shape `gen` writes is read a block at a time at C speed: one
`str.translate` deletes the ASCII digits, plus `.` for CSV or `/` for JSON,
and what is left must be the format's separator skeleton.  A block that
matches is split with `str.split`, and its rows are coded only once the
whole block has passed.  Any other text takes the exact path, which alone
raises errors: `csv.reader` over the rows of the CSV block that failed, or
`json.loads` of the whole text.  Both paths code each row through
`_Values`, so they give the same window, error and line number.

Only a window read imports this module, so no other command compiles it,
and a read imports `csv` or `json` only for its own format.
"""
from __future__ import annotations

import io
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from .seqio import CSV_HEADER, WINDOW_SCHEMA, WindowFormatError, index_text
from .sequence import SeqWindow, code_array

#: Characters per CSV block (each completed to the end of its line), and
#: per slice of a JSON values array.  Each bounds the strings a read holds
#: at once to a few hundred KB, which a search's peak RSS shows; larger
#: blocks read no faster.
CSV_BLOCK = 1 << 14
JSON_SLICE = 1 << 12

_CSV_DROP = str.maketrans("", "", "0123456789.")
_JSON_DROP = str.maketrans("", "", "0123456789/")


class _Values(dict):
    """Codes by value text, a CSV row's (num, den) fields or a JSON "num/den"
    entry, each parsed, checked for a positive denominator and built into a
    Fraction once: its index in `table`, shared by equal values' texts."""

    def __init__(self):
        self.table, self.codes = [], bytearray()

    def __missing__(self, key) -> int:
        if isinstance(key, tuple):
            a, b = key
        else:
            a, _, b = str(key).partition("/")
            if not b:
                raise ValueError(f"expected num/den, got {key!r}")
        num, den = int(a), int(b)
        if den <= 0:
            raise ValueError("denominator must be positive")
        value, code = Fraction(num, den), len(self.table)
        # ASCII digits without leading zeros, in lowest terms, is the one text
        # of a value that is filed alone, so it misses only for a new value;
        # any other text is filed under that one too
        digits = a + b
        if not (digits.isascii() and digits.isdigit() and b[0] != "0" and (a == "0" or a[0] != "0")
                and value.denominator == den):
            num, den = value.as_integer_ratio()
            reduced = (str(num), str(den)) if isinstance(key, tuple) else f"{num}/{den}"
            code = self[reduced] = self.get(reduced, code)
        self[key] = code
        if code == len(self.table):
            self.table.append(value)
        return code

    def extend(self, keys: Iterable) -> None:
        """Append the codes of `keys` once all have parsed, widening `codes` as needed."""
        codes = list(map(self.__getitem__, keys))
        if len(self.table) > 256 ** getattr(self.codes, "itemsize", 1):
            wide = code_array(len(self.table), [])
            wide.extend(iter(self.codes))  # one by one, never as the bytes of an array
            self.codes = wide
        self.codes += code_array(len(self.table), codes)


def csv_window(stream: TextIO) -> SeqWindow:
    """The window of a CSV file read from `stream`, so the file is never
    held whole.  After the header, the text is read in blocks of CSV_BLOCK
    characters, each completed to the end of its line.  A block not in
    canonical shape is parsed one record at a time, with the lines that a
    quoted field carries past its end; the next block is tried in
    canonical shape again."""
    import csv

    header = next(csv.reader(stream), None)  # reads the header's lines and no more
    if header is None:
        raise WindowFormatError("empty file")
    if tuple(header[:3]) != CSV_HEADER:
        raise WindowFormatError(
            f"expected header {','.join(CSV_HEADER)}", line=1
        )
    parsed = _Values()
    offset = None
    records = 1  # read so far, the header's included; a block that passed holds one per line
    limit = csv.field_size_limit()
    while text := stream.read(CSV_BLOCK):
        if not text.endswith("\n"):
            text += stream.readline()
        passed = _csv_block(text, parsed, None if offset is None else offset + len(parsed.codes), limit)
        if passed is not None:
            if offset is None:
                offset = passed[0]
            records += passed[1]
            continue
        keys = []
        for row in _records(text, stream):
            records += 1
            if not row:
                continue
            if len(row) < 3:
                raise WindowFormatError("need index,value_num,value_den", line=records)
            try:
                index, _ = int(row[0]), parsed[row[1], row[2]]
            except ValueError as exc:
                raise WindowFormatError(str(exc), line=records) from None
            if offset is None:
                offset = index
            elif index != offset + len(parsed.codes) + len(keys):
                raise WindowFormatError(
                    f"indices must be contiguous, expected {offset + len(parsed.codes) + len(keys)}",
                    line=records,
                )
            keys.append((row[1], row[2]))
        parsed.extend(keys)
    if offset is None:
        raise WindowFormatError("no data rows")
    try:
        return SeqWindow._from_codes(offset, parsed.codes, parsed.table)
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
    """(first index, rows) of a block of lines `i,num,den[,...]`, each
    field ASCII digits or `.`, each line ending in a newline, every line with
    the same number of fields, and indices contiguous from `first` (from the
    block's own first index if None), once its codes are in; or None if the
    block needs the exact path.  A line longer than the csv module's field
    `limit` also needs it, since only the exact path enforces that limit."""
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
        if ",".join(fields[0:-1:step]) != index_text(first, rows):
            return None
        parsed.extend(zip(fields[1::step], fields[2::step]))
        return first, rows
    except ValueError:
        return None


def json_window(stream: TextIO) -> SeqWindow:
    """The window of a JSON window document, read from a seekable `stream`."""
    import json

    window = _json_blocks(stream)
    if window is not None:
        return window
    stream.seek(0)
    try:
        doc = json.loads(stream.read())
    except json.JSONDecodeError as exc:
        raise WindowFormatError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA:
        raise WindowFormatError(f"expected schema {WINDOW_SCHEMA}")
    try:
        entries, parsed = doc["values"], _Values()
        if not isinstance(entries, list):
            raise ValueError('"values" must be an array')
        try:
            parsed.extend(entries)
        except TypeError:  # unhashable: the first array or object entry
            bad = next(e for e in entries if isinstance(e, (list, dict)))
            raise ValueError(f"expected num/den, got {bad!r}") from None
        offset = doc["offset"]
        if type(offset) is not int:
            raise ValueError(f"offset must be an integer, got {offset!r}")
        return SeqWindow._from_codes(offset, parsed.codes, parsed.table)
    except (KeyError, ValueError) as exc:
        raise WindowFormatError(str(exc)) from None


def _json_blocks(stream: TextIO) -> SeqWindow | None:
    """The window of a JSON text whose first `[` and last `]` hold its
    "values" array, if every entry is "num/den" in ASCII digits, separated
    by `,` or `, `, and the whole document is a valid window; else None.

    The body is read off the stream up to the first `]`, in slices of about
    `JSON_SLICE` characters each cut after an entry, and no `]` may follow.
    The text without the body parses to the same document but for it, so
    the array is "values" if that parse gives it `[]`, and the body a run of
    entries if each slice passes the skeleton check."""
    import json

    head = ""
    while (start := (text := stream.read(JSON_SLICE)).find("[")) < 0:
        if not text:
            return None
        head += text
    head, body, parsed = head + text[:start + 1], text[start + 1:], _Values()
    while True:
        end = body.find("]")
        # a cut with a character after its `",`, so a `, ` separator is whole
        if cut := end if end >= 0 else body.rfind('",', 0, len(body) - 1) + 1:
            piece = body[:cut]
            sep = '","' if '","' in piece else '", "'
            entries = piece[1:-1].split(sep)
            if piece.translate(_JSON_DROP) != '"' + sep * (len(entries) - 1) + '"':
                return None
            try:
                parsed.extend(entries)
            except ValueError:
                return None
            if end >= 0:
                break
            body = body[cut + 1 + body.startswith(" ", cut + 1):]
        if not (text := stream.read(JSON_SLICE)):
            return None
        body += text
    tail = body[end:] + stream.read()
    try:
        doc = json.loads(head + tail)
    except (ValueError, RecursionError):
        return None
    if ("]" in tail[1:] or not isinstance(doc, dict) or doc.get("schema") != WINDOW_SCHEMA
            or doc.get("values") != [] or type(doc.get("offset")) is not int):
        return None
    try:
        return SeqWindow._from_codes(doc["offset"], parsed.codes, parsed.table)
    except ValueError:
        return None
