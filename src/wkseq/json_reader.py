"""The JSON window reader behind `seqio.loads_json` and `load_window`.

A document in the shape `gen` writes is read a slice at a time at C speed:
one `str.translate` deletes the ASCII digits and `/` of a slice of the
values array, and what is left must be its skeleton of quotes and
separators.  A slice that matches is split with `str.split` and coded.  Any
other text takes the exact path, which alone raises errors: `json.loads` of
the whole text.  Both paths code each entry through `readers._Values`, so
they give the same window and error.

Only a JSON read imports this module, and with it `json`.
"""
from __future__ import annotations

import json
from typing import TextIO

from .readers import _Values
from .seqio import WINDOW_SCHEMA, WindowFormatError
from .sequence import SeqWindow

#: Characters per slice of a JSON values array.  It bounds the strings a
#: read holds at once, as `csv_reader.CSV_BLOCK` does.
JSON_SLICE = 1 << 12

_JSON_DROP = str.maketrans("", "", "0123456789/")


def json_window(stream: TextIO) -> SeqWindow:
    """The window of a JSON window document, read from a seekable `stream`."""
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
