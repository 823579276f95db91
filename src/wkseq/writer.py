"""The window writer: the text of a window file, which `gen` streams and
`seqio.dumps_csv` and `dumps_json` join.  Only a write imports it, so no
read compiles it."""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add
from typing import Iterable, Iterator

from .seqio import CSV_HEADER, WINDOW_SCHEMA, index_runs
from .sequence import SeqWindow


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
    chunk per window for JSON, and for CSV one chunk per run of at most
    1000 rows whose indices share their thousands; `decimals` adds the
    CSV's presentation-only decimal column.

    Each distinct value of a window (`SeqWindow` keeps them, in the order
    of their first appearance) is formatted once: its JSON entry, or its
    CSV row after the index.  Each row's text is looked up by its code,
    and the rows are joined at C speed, a CSV run's to the three-digit
    suffixes of its `seqio.index_runs`, so no index takes an int or a
    string of its own.
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
        texts = map(texts.__getitem__, w._codes)
        if fmt == "json":
            head = f'{{"offset":{w.offset},"schema":"{WINDOW_SCHEMA}","values":[' if count == 1 else ","
            yield head + ",".join(texts)
            continue
        first = ",".join(CSV_HEADER + ("value_decimal",) * bool(decimals)) + "\n" if count == 1 else ""
        for head, tails in index_runs(w.offset, w.offset + len(w)):
            yield first + head + head.join(map(add, tails, islice(texts, len(tails))))
            first = ""
    if fmt == "json" and count:
        yield "]}\n"
