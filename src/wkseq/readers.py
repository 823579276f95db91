"""The value codes both window readers share, `wkseq.csv_reader` and
`wkseq.json_reader`: each row's value is coded through `_Values`, so both
readers, on either of their paths, give the same window for the same
values.  Only a window read imports this module."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .sequence import code_array


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
