"""Benchmark-owned inputs: seeded parameters, oracle values and window files.

Every expected value comes from `tests/oracles.py`, the brute-force
evaluator that shares no code with the package.  Oracle values of the two
coordinate ranges the gates read in bulk are computed once per checkout and
kept under the work directory, keyed by a hash of the oracle's source; the
window files the search workload reads are written from them once per seed.
None of this is timed, and the program under test only reads the files.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import oracles

P, L = oracles.tower(3)

#: Band starts: the offsets `gen` windows are drawn from.
SMALL, MEDIUM, HUGE = 0, 10**8, 10**20
#: Coordinates of alpha read in bulk: [0, PREFIX) and the rigidity-2 shift.
PREFIX = 120_000
RIGID2_COUNT_MAX = 10_100

WINDOW_ROWS = 100_000
FIXTURE_ROWS = 12_000


class Inputs:
    """Everything one seed decides, plus oracle access for the gates."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        rng = random.Random(seed)
        # Offsets move within a band, never across a ladder level, so the
        # evaluator's cost per coordinate does not depend on the seed.
        self.gen_small = rng.randrange(SMALL, SMALL + 10_000)
        self.gen_medium = rng.randrange(MEDIUM, MEDIUM + 10**6)
        self.gen_huge = rng.randrange(HUGE, HUGE + 10**15)
        self.alpha_pairs = _pairs(rng)
        # Below stretch(2) = 3^15 alpha has period 2p[1] = 486, and where a
        # window starts within that period moves the first exact return of a
        # shifted pair between t = 6 and t = 486.  Starting on the period
        # gives every seed the same search cost.
        self.file_offset = 2 * P[1] * rng.randrange(20)
        self.file_pairs = _pairs(rng)
        # Sizes vary by under 1%, so the work per pass barely depends on it.
        self.ones_window = 50_000 + rng.randrange(500)
        self.rigid1_count = 10_000 + rng.randrange(100)
        self.rigid2_count = 10_000 + rng.randrange(RIGID2_COUNT_MAX - 10_000)
        self.returns2_samples = 4_000 + rng.randrange(40)
        self.plateau_window = 300_000_000 + rng.randrange(10**6)
        self._prefix: list[Fraction] | None = None
        self._rigid2: list[Fraction] | None = None
        self._memo: dict[int, Fraction] = {}

    def rng(self, tag: str) -> random.Random:
        """A generator for one job's sampled check coordinates."""
        return random.Random(f"{self.seed}:{tag}")

    # -- oracle values -----------------------------------------------------

    def load_oracle(self) -> None:
        self._prefix = _cached_range(self.work, 0, PREFIX)
        self._rigid2 = _cached_range(self.work, 2 * P[2], RIGID2_COUNT_MAX)

    def alpha(self, i: int) -> Fraction:
        """Oracle value of alpha at integer coordinate i (negative allowed)."""
        if 0 <= i < PREFIX:
            return self._prefix[i]
        j = i - 2 * P[2]
        if 0 <= j < RIGID2_COUNT_MAX:
            return self._rigid2[j]
        v = self._memo.get(i)
        if v is None:
            v = self._memo[i] = oracles.seq_value(i)
        return v

    def window_value(self, i: int) -> Fraction:
        """Coordinate i of the orbit point the window files hold."""
        return self._prefix[self.file_offset + i]

    # -- files the search workload reads -----------------------------------

    def write_files(self) -> None:
        folder = self.work / "inputs" / f"seed-{self.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.window_csv = folder / "alpha-window.csv"
        self.window_json = folder / "alpha-window.json"
        self.fixture_csv = folder / "fixture.csv"
        values = self._prefix[self.file_offset:self.file_offset + WINDOW_ROWS]
        rows = [f"{self.file_offset + i},{v.numerator},{v.denominator}" for i, v in enumerate(values)]
        _write(self.window_csv, "index,value_num,value_den\n" + "\n".join(rows) + "\n")
        doc = {
            "schema": "wk-window/1",
            "offset": self.file_offset,
            "values": [f"{v.numerator}/{v.denominator}" for v in values],
        }
        _write(self.window_json, json.dumps(doc) + "\n")
        self.fixture = transitive_point(FIXTURE_ROWS)
        rows = [f"{i},{v},1" for i, v in enumerate(self.fixture)]
        _write(self.fixture_csv, "index,value_num,value_den\n" + "\n".join(rows) + "\n")


def _pairs(rng: random.Random) -> list[tuple[int, int]]:
    """Two distinct pairs m < n of small shifts."""
    pool = [(m, n) for m in range(8) for n in range(m + 1, 8)]
    return sorted(rng.sample(pool, 2))


def transitive_point(length: int) -> list[int]:
    """All binary words in length-lex order, concatenated: 0,1,0,0,0,1,..."""
    out: list[int] = []
    width = 1
    while len(out) < length:
        for word in range(1 << width):
            out.extend((word >> j) & 1 for j in range(width - 1, -1, -1))
        width += 1
    return out[:length]


def _write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _cached_range(work: Path, start: int, count: int) -> list[Fraction]:
    """Oracle values of alpha on [start, start + count), cached on disk."""
    digest = hashlib.sha256(Path(oracles.__file__).read_bytes()).hexdigest()[:16]
    path = work / "oracle" / f"{digest}-{start}-{count}.txt"
    if path.exists():
        values = []
        for line in path.read_text(encoding="utf-8").split():
            num, _, den = line.partition("/")
            values.append(Fraction(int(num), int(den)))
        if len(values) == count:
            return values
    values = [oracles.seq_value(start + i) for i in range(count)]
    path.parent.mkdir(parents=True, exist_ok=True)
    _write(path, "\n".join(f"{v.numerator}/{v.denominator}" for v in values) + "\n")
    return values
