"""What both window readers, `wkseq.csv_reader` and `wkseq.json_reader`,
share: `Text`, which reads a string as they read a stream, and `_Values`,
which codes each row's value, so both readers, on either path, give the
same window for the same values.  Only a window read imports this module."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .sequence import code_array


class Text:
    """A string read as a text stream (`read(n)`, `readline`, `seek(0)`),
    without `io.StringIO`'s copy at 4 bytes a character."""

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def read(self, n: int = -1) -> str:
        start, self.at = self.at, len(self.text) if n < 0 else min(len(self.text), self.at + n)
        return self.text[start:self.at]

    def readline(self) -> str:  # to the next newline, else (a count <= 0) to the end
        return self.read(self.text.find("\n", self.at) + 1 - self.at or -1)

    def seek(self, at: int) -> None:
        self.at = at


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
