"""The CSV window reader behind `seqio.loads_csv` and `load_window`.

Text in the shape `gen` writes is read a block at a time at C speed: one
`str.translate` deletes the ASCII digits and `.`, and what is left must be
the separator skeleton of commas and newlines.  A block that matches is
split with `str.split`, and its rows are coded only once the whole block
has passed.  Any other block takes the exact path, which alone raises
errors: `csv.reader` over its rows.  Both paths code each row through
`readers._Values`, so they give the same window, error and line number.

Only a CSV read imports this module, and with it `csv`.
"""
from __future__ import annotations

import csv
from typing import Iterator, TextIO

from .readers import Text, _Values
from .seqio import CSV_HEADER, WindowFormatError, index_runs
from .sequence import SeqWindow

#: Characters per CSV block, each completed to the end of its line.  It
#: bounds the strings a read holds at once to a few hundred KB, which a
#: search's peak RSS shows; larger blocks read no faster.
CSV_BLOCK = 1 << 14

_CSV_DROP = str.maketrans("", "", "0123456789.")


def csv_window(stream: TextIO) -> SeqWindow:
    """The window of a CSV file read from `stream`, so the file is never
    held whole.  After the header, the text is read in blocks of CSV_BLOCK
    characters, each completed to the end of its line.  A block not in
    canonical shape is parsed one record at a time, with the lines that a
    quoted field carries past its end; the next block is tried in
    canonical shape again."""
    header = next(csv.reader(iter(stream.readline, "")), None)  # reads the header's lines and no more
    if header is None:
        raise WindowFormatError("empty file")
    if tuple(header[:3]) != CSV_HEADER:
        raise WindowFormatError(f"expected header {','.join(CSV_HEADER)}", line=1)
    parsed = _Values()
    offset = None
    records = 1  # read so far, the header's included; a block that passed holds one per line
    while text := stream.read(CSV_BLOCK):
        if not text.endswith("\n"):
            text += stream.readline()
        passed = _csv_block(text, parsed, None if offset is None else offset + len(parsed.codes))
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
            elif index != (expected := offset + len(parsed.codes) + len(keys)):
                raise WindowFormatError(f"indices must be contiguous, expected {expected}", line=records)
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
    def lines():
        yield from iter(Text(text).readline, "")
        # the reader asks past the text for a new record only once the last
        # one is out, at its line count; for more of an open one, past it
        while reader.line_num > ended and (line := stream.readline()):
            yield line

    reader, ended = csv.reader(lines()), 0
    for row in reader:
        ended = reader.line_num
        yield row


def index_text(start: int, count: int) -> str:
    """`",".join(map(str, range(start, start + count)))`, through
    `seqio.index_runs` from 0 on, which the writer writes by."""
    if start < 0:
        return ",".join(map(str, range(start, start + count)))
    return ",".join(head + ("," + head).join(tails) for head, tails in index_runs(start, start + count))


def _csv_block(text: str, parsed: _Values, first: int | None):
    """(first index, rows) of a block of lines `i,num,den[,...]`, each
    field ASCII digits or `.`, each line ending in a newline, every line with
    the same number of fields, and indices contiguous from `first` (from the
    block's own first index if None), once its codes are in; or None if the
    block needs the exact path.  A line longer than the csv module's field
    limit also needs it, since only the exact path enforces that limit."""
    skeleton = text.translate(_CSV_DROP)
    commas = skeleton.find("\n")
    rows = skeleton.count("\n")
    limit = csv.field_size_limit()
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
