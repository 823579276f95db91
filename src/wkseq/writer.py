"""The window writer: the text of a window file, which `gen` streams from
`alpha_windows` and `seqio.dumps_csv` and `dumps_json` join.  Only a write
imports it, so no read compiles it."""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .ladder import Ladder
from .seqio import CSV_HEADER, WINDOW_SCHEMA, index_runs


def render_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point rendering truncated toward zero; presentation only."""
    if digits < 1:
        raise ValueError("need at least one digit")
    return "-" * (value < 0) + _decimal(abs(value.numerator), value.denominator, digits)


def _decimal(num: int, den: int, digits: int) -> str:
    whole, frac = divmod(num * 10**digits // den, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def alpha_windows(ladder: Ladder, start: int, length: int) -> Iterator[tuple[int, list[int], int]]:
    """alpha at start .. start + length - 1 as consecutive blocks (offset, numerators, den)
    of at most `ladder.STREAM_BLOCK` values, as `walker.eval_block` reads them, for `gen`."""
    from .ladder import STREAM_BLOCK
    from .walker import eval_block

    for i in range(start, start + length, STREAM_BLOCK):
        yield i, *eval_block(ladder, range(i, min(i + STREAM_BLOCK, start + length)))


def window_chunks(blocks: Iterable, fmt: str = "csv", decimals: int = 0) -> Iterator[str]:
    """The text of one window file holding consecutive blocks, in one
    chunk per block for JSON, and for CSV one chunk per run of at most
    1000 rows whose indices share their thousands; `decimals` adds the
    CSV's presentation-only decimal column.  A block is a `SeqWindow`, keyed
    by its codes into its distinct values, or (offset, numerators, den) as
    `alpha_windows` streams alpha, keyed by its numerators.

    Each distinct key of a block is formatted once, from integers (a
    numerator in lowest terms by gcd), and its text lives one block.  Each
    row's text is looked up by its key, and a CSV run's rows are joined at
    C speed, the run's `seqio.index_runs` head and suffixes interleaved
    with the texts, so no index takes an int or a string of its own.
    """
    count = 0
    for count, block in enumerate(blocks, 1):
        offset, keys, over = block if isinstance(block, tuple) else (block.offset, block._codes, block._distinct)
        texts = dict.fromkeys(keys)
        for key in texts:
            num, den = over[key].as_integer_ratio() if isinstance(over, tuple) else (key // (g := gcd(key, over)),
                                                                                      over // g)
            texts[key] = ('"%d/%d"' % (num, den) if fmt == "json" else f",{num},{den},{_decimal(num, den, decimals)}\n"
                          if decimals else ",%d,%d\n" % (num, den))
        texts = [*map(texts.__getitem__, keys)]
        if fmt == "json":
            head = f'{{"offset":{offset},"schema":"{WINDOW_SCHEMA}","values":[' if count == 1 else ","
            yield head + ",".join(texts)
            continue
        first = ",".join(CSV_HEADER + ("value_decimal",) * bool(decimals)) + "\n" if count == 1 else ""
        for head, tails in index_runs(offset, offset + len(keys)):
            rows = [head] * (3 * len(tails))
            rows[1::3], rows[2::3], texts = tails, texts[:len(tails)], texts[len(tails):]
            yield first + "".join(rows)
            first = ""
    if fmt == "json" and count:
        yield "]}\n"
