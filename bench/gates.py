"""Output gates: every job's output is checked against the oracle.

A gate returns None when the job's output is right, or a `Failure`.  Its
kind says what went wrong:

- "wrong": the output contradicts the oracle, is malformed, or the exit
  code is not the one the output calls for.  Any such failure makes the
  run's `correct` false.
- "vacuous": a recurrence witness at time 0, the identity shift, which
  proves nothing.  The output is true but does not count.
- "timeout": the job did not finish within its time limit.

Vacuous witnesses and timeouts count as failed jobs but leave `correct`
true: the program said nothing false.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from inputs import L, P, Inputs
from spawn import JobRun

PROX, SEP, RECUR = "proximal-witnessed", "delta-separated-witnessed", "pair-recurrent-witnessed"
INCONCLUSIVE = "inconclusive"
SCHEMA = "wk-report/1"
GATE_SAMPLES = 64

Value = Callable[[int], Fraction]


@dataclass(frozen=True)
class Failure:
    kind: str  # "wrong", "vacuous" or "timeout"
    reason: str


class Wrong(Exception):
    """Raised inside a gate when the output contradicts the oracle."""


class Vacuous(Exception):
    """Raised after every value check passed, when a witness is at time 0."""


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _frac(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    _need(sep == "/" and int(den) > 0, f"not a num/den string: {text!r}")
    value = Fraction(int(num), int(den))
    _need(f"{value.numerator}/{value.denominator}" == text, f"not in lowest terms: {text}")
    return value


def _fstr(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def gate(check: Callable[[JobRun], None], ok_exits: tuple[int, ...] = (0,)) -> Callable[[JobRun], Failure | None]:
    """Wrap an output check with the timeout, exit-code and crash rules."""

    def run_gate(run: JobRun) -> Failure | None:
        if run.timed_out:
            return Failure("timeout", f"killed after {run.wall_s:.1f} s")
        if run.exit_code not in ok_exits:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            return Failure("wrong", f"exit {run.exit_code}: {tail[0][:200]}")
        try:
            check(run)
        except Vacuous as exc:
            return Failure("vacuous", str(exc))
        except (Wrong, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return Failure("wrong", f"{type(exc).__name__}: {exc}"[:300])
        return None

    return run_gate


# -- windows ----------------------------------------------------------------

def _truncated(value: Fraction, digits: int) -> str:
    whole, frac = divmod(value.numerator * 10**digits // value.denominator, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def gen_csv(inputs: Inputs, start: int, length: int, decimals: int, sampled: bool):
    """CSV window: header, contiguous indices, exact values, decimal column.

    With `sampled`, only seeded coordinates are compared with the oracle
    (the others are still parsed and range-checked); otherwise all are.
    """
    picks = _picks(inputs, f"gen-{start}", length, sampled)

    def check(run: JobRun) -> None:
        rows = list(csv.reader(io.StringIO(run.stdout)))
        header = ["index", "value_num", "value_den"] + (["value_decimal"] if decimals else [])
        _need(rows and rows[0] == header, f"bad header {rows[:1]}")
        _need(len(rows) == length + 1, f"{len(rows) - 1} rows, expected {length}")
        for i, row in enumerate(rows[1:]):
            _need(len(row) == len(header), f"row {i} has {len(row)} fields")
            _need(int(row[0]) == start + i, f"row {i} has index {row[0]}")
            value = _frac(f"{row[1]}/{row[2]}")
            _need(0 <= value <= 1, f"value {value} outside [0, 1]")
            if decimals:
                _need(row[3] == _truncated(value, decimals), f"row {i} decimal {row[3]}")
            if i in picks:
                _need(value == inputs.alpha(start + i), f"alpha({start + i}) = {value}")

    return gate(check)


def gen_json(inputs: Inputs, start: int, length: int):
    picks = _picks(inputs, f"gen-{start}", length, True)

    def check(run: JobRun) -> None:
        doc = json.loads(run.stdout)
        _need(set(doc) == {"schema", "offset", "values"}, f"keys {sorted(doc)}")
        _need(doc["schema"] == "wk-window/1" and doc["offset"] == start, "schema or offset")
        _need(len(doc["values"]) == length, f"{len(doc['values'])} values")
        for i, text in enumerate(doc["values"]):
            value = _frac(text)
            _need(0 <= value <= 1, f"value {value} outside [0, 1]")
            if i in picks:
                _need(value == inputs.alpha(start + i), f"alpha({start + i}) = {value}")

    return gate(check)


def _picks(inputs: Inputs, tag: str, length: int, sampled: bool) -> set[int]:
    if not sampled:
        return set(range(length))
    rng = inputs.rng(tag)
    return {0, length - 1, *(rng.randrange(length) for _ in range(GATE_SAMPLES))}


# -- certificate reports ----------------------------------------------------

def _report(run: JobRun) -> dict:
    doc = json.loads(run.stdout)
    _need(doc.get("schema") == SCHEMA, "report schema")
    return doc


def _same(doc: dict, expected: dict) -> None:
    _need(set(doc) == set(expected), f"report keys {sorted(doc)}")
    for key, want in expected.items():
        _need(doc[key] == want, f"{key} = {doc[key]!r}, expected {want!r}")


def _covered(runs: list[tuple[int, int]], required: int, window: int, end: int) -> bool:
    """Every length-`window` slice of [0, end] holds `required` ones in a row.

    A block may start anywhere in [u, v - required + 1] of a run [u, v]; a
    slice starting at w needs a block start in [w, w + window - required].
    """
    slack, last_w = window - required, end - window + 1
    covered = -1  # every slice start up to here is served
    for u, v in runs:
        if covered >= last_w:
            return True
        if u - (covered + 1) > slack:
            return False
        covered = max(covered, v - required + 1)
    return covered >= last_w


def ones_scan(inputs: Inputs, n: int, window_end: int):
    required, window = P[n] // 9, 2 * P[n]
    ones = [inputs.alpha(i) == 1 for i in range(window_end + 1)]
    runs = [r for r in oracles.ones_runs_by_scan(ones) if r[1] - r[0] + 1 >= required]
    worst = runs[0][0] if runs else window_end + 1
    for (_, v0), (u1, _) in zip(runs, runs[1:]):
        worst = max(worst, u1 - (v0 - required + 1))
    expected = {
        "schema": SCHEMA, "lemma": "ones-runs", "n": n,
        "run_length_required": required, "gap_bound": window,
        "window": [0, window_end], "worst_gap": worst,
        "first_run": list(runs[0]) if runs else None, "runs_found": len(runs),
        "mode": "scan", "pass": _covered(runs, required, window, window_end),
    }
    return gate(lambda run: _same(_report(run), expected))


def ones_plateau(inputs: Inputs, n: int, window_end: int):
    """Plateau mode certifies more coordinates than can be scanned: check the
    fixed fields, and that seeded coordinates of the first run are ones."""
    required = P[n] // 9

    def check(run: JobRun) -> None:
        doc = _report(run)
        u, v = doc["first_run"]
        _need(v - u + 1 >= required and 0 <= u <= v <= window_end, f"first_run {u}..{v}")
        rng = inputs.rng("plateau")
        for i in (u, v, *(rng.randrange(u, v + 1) for _ in range(16))):
            _need(inputs.alpha(i) == 1, f"alpha({i}) is not 1 inside the first run")
        _need(doc["runs_found"] >= 1 and 0 <= doc["worst_gap"] <= 2 * P[n], "run counts")
        _same(doc, {**doc, "schema": SCHEMA, "lemma": "ones-runs", "n": n,
                    "run_length_required": required, "gap_bound": 2 * P[n],
                    "window": [0, window_end], "mode": "plateau", "pass": True})

    return gate(check)


def rigidity(inputs: Inputs, n: int, count: int):
    shift = 2 * P[n]
    worst, arg = Fraction(0), 0
    for j in range(count):
        defect = abs(inputs.alpha(j + shift) - inputs.alpha(j))
        if defect > worst:
            worst, arg = defect, j
    expected = {
        "schema": SCHEMA, "lemma": "rigidity", "n": n, "m": None, "shift": shift,
        "tested_range": [0, count], "grid_step": None, "max_defect": _fstr(worst),
        "bound": f"1/{n}", "argmax_index": arg, "pass": worst < Fraction(1, n),
    }
    return gate(lambda run: _same(_report(run), expected))


def returns(inputs: Inputs, n: int, samples: int | None):
    """Return identities alpha(t) = alpha(t - S) = alpha(t + S - 1), S = 2 p[n+1]/3.

    A full grid is checked point by point.  On a sampled grid the oracle
    checks seeded points, and the report must then claim every point equal,
    as the paper's identity says.
    """
    left = 2 * (P[n + 1] // 3)
    if samples is None:
        grid = list(range(-P[n], P[n] + 1))
        picks = grid
    else:
        step = max(1, 2 * P[n] // samples)
        grid = list(range(-P[n], P[n] + 1, step))
        if grid[-1] != P[n]:
            grid.append(P[n])
        rng = inputs.rng(f"returns-{n}")
        picks = [grid[0], grid[-1], *rng.sample(grid, GATE_SAMPLES)]
    mismatches = [
        t for t in picks
        if not inputs.alpha(t - left) == inputs.alpha(t) == inputs.alpha(t + left - 1)
    ]
    if mismatches and samples is not None:
        raise RuntimeError(f"the oracle contradicts the return identity at {mismatches[0]}")
    expected = {
        "schema": SCHEMA, "lemma": "returns", "n": n, "left_shift": left,
        "right_shift": left - 1, "checked": len(grid), "all_equal": not mismatches,
        "first_mismatch": mismatches[0] if mismatches else None, "pass": not mismatches,
    }
    return gate(lambda run: _same(_report(run), expected))


def wm(inputs: Inputs, n: int):
    big_n = 2 * (P[n + 1] // 3) - 1
    agree = P[n] + 1
    forward = all(inputs.alpha(i + big_n) == inputs.alpha(i) for i in range(agree))
    backward = all(inputs.alpha(i - big_n - 1) == inputs.alpha(i) for i in range(agree))
    expected = {
        "schema": SCHEMA, "lemma": "wm-returns", "n": n, "N": big_n, "agree_len": agree,
        "forward_exact": forward, "backward_exact": backward,
        "dist_hi": _fstr(Fraction(1, 2 ** P[n])), "eps": _fstr(Fraction(4, 2 ** P[n])),
        "pass": forward and backward,
    }
    return gate(lambda run: _same(_report(run), expected))


def wm_probe(n: int):
    """A level too deep to scan: a finished report must pass with the right
    shape, and refusing up front with exit 2 is a correct answer too."""

    def check(run: JobRun) -> None:
        if run.exit_code == 2:
            return
        doc = _report(run)
        _need(doc["lemma"] == "wm-returns" and doc["n"] == n, "lemma or level")
        _need(doc["N"] == 2 * (P[n + 1] // 3) - 1 and doc["agree_len"] == P[n] + 1, "N or agree_len")
        _need(doc["pass"] is True and doc["forward_exact"] and doc["backward_exact"], "verdict")

    return gate(check, ok_exits=(0, 2))


def shift_defect(n: int, m: int, step: int):
    span, shift = P[m], 2 * P[n]
    worst, arg, k, t = Fraction(0), 0, 0, -span
    while t <= span:
        defect = abs(oracles.raw_periodized(P, L, m, t + shift) - oracles.raw_periodized(P, L, m, t))
        if defect > worst:
            worst, arg = defect, k
        t += step
        k += 1
    expected = {
        "schema": SCHEMA, "lemma": "shift-defect", "n": n, "m": m, "shift": shift,
        "tested_range": [-span, span], "grid_step": f"{step}/1",
        "max_defect": _fstr(worst), "bound": f"1/{n}", "argmax_index": arg,
        "pass": worst < Fraction(1, n),
    }
    return gate(lambda run: _same(_report(run), expected))


# -- relation verdicts ------------------------------------------------------

def _witness(doc: dict, key: str, lo_t: int, hi_t: int) -> tuple[int, Fraction] | None:
    w = doc[key]
    if w is None:
        return None
    _need(set(w) == {"time", "value"}, f"{key} fields")
    _need(lo_t <= w["time"] <= hi_t, f"{key} time {w['time']} outside [{lo_t}, {hi_t}]")
    return w["time"], _frac(w["value"])


def _labels(doc: dict, clauses: dict[str, str], expected: set[str]) -> None:
    labels = doc["labels"]
    _need(len(set(labels)) == len(labels), f"repeated labels {labels}")
    for label, key in clauses.items():
        _need((label in labels) == (doc[key] is not None), f"{label} disagrees with {key}")
    unwitnessed = any(doc[key] is None for key in clauses.values())
    _need((INCONCLUSIVE in labels) == unwitnessed, "inconclusive label")
    _need(set(labels) <= set(clauses) | {INCONCLUSIVE}, f"unknown labels {labels}")
    _need(expected <= set(labels), f"labels {labels} miss {sorted(expected - set(labels))}")


def _self_return(x: Value, t: int, k: int) -> Fraction:
    return oracles.naive_bracket_lo(lambda i: x(t + i), x, 0, k)


def _recurrence(w: tuple[int, Fraction] | None, a: Value, b: Value, k: int, tau: Fraction) -> None:
    """Check a pair-recurrence witness; raises Vacuous last, for time 0."""
    if w is None:
        return
    t, value = w
    width = Fraction(2) ** (1 - k)
    _need(value == max(_self_return(a, t, k), _self_return(b, t, k)) + width, f"recur bracket at {t}")
    _need(value < tau, "recur value not below tau")
    if t == 0:
        raise Vacuous("recurrence witness at time 0")


def classify(a: Value, b: Value, delta: Fraction, horizon: int, k: int,
             tau: Fraction, expected: set[str]):
    """A pair verdict with search start 0: each witness's bracket is
    recomputed by the oracle's naive sum and compared with tau and delta."""
    width = Fraction(2) ** (1 - k)

    def check(run: JobRun) -> None:
        doc = _report(run)
        _same({key: doc.get(key) for key in ("kind", "delta", "horizon", "prefix_len", "tau", "pair")},
              {"kind": "pair-verdict", "delta": _fstr(delta), "horizon": [0, horizon],
               "prefix_len": k, "tau": _fstr(tau), "pair": None})
        _labels(doc, {PROX: "prox_witness", SEP: "sep_witness", RECUR: "recur_witness"}, expected)
        prox = _witness(doc, "prox_witness", 0, horizon)
        if prox:
            t, value = prox
            _need(value == oracles.naive_bracket_lo(a, b, t, k) + width, f"prox bracket at {t}")
            _need(value < tau, "prox value not below tau")
        sep = _witness(doc, "sep_witness", 0, horizon)
        if sep:
            t, value = sep
            _need(value == oracles.naive_bracket_lo(a, b, t, k), f"sep bracket at {t}")
            _need(value >= delta - tau, "sep value below delta - tau")
        _recurrence(_witness(doc, "recur_witness", 0, horizon), a, b, k, tau)

    return gate(check)


def thmB(x: Value, pairs: list[tuple[int, int]], horizon: int, k: int, tau: Fraction):
    """One verdict per pair, both shifted views against the all-ones point."""
    width = Fraction(2) ** (1 - k)
    one: Value = lambda i: Fraction(1)

    def check(run: JobRun) -> None:
        doc = _report(run)
        _need(doc["kind"] == "pair-verdict-list", "kind")
        _need(len(doc["verdicts"]) == len(pairs), "one verdict per pair")
        for (m, n), v in zip(pairs, doc["verdicts"]):
            _same({key: v.get(key) for key in ("pair", "delta", "horizon", "prefix_len", "tau", "sep_witness")},
                  {"pair": [m, n], "delta": None, "horizon": [0, horizon], "prefix_len": k,
                   "tau": _fstr(tau), "sep_witness": None})
            _labels(v, {PROX: "prox_witness", RECUR: "recur_witness"}, {PROX, RECUR})
            xm, xn = (lambda i, m=m: x(m + i)), (lambda i, n=n: x(n + i))
            prox = _witness(v, "prox_witness", 0, horizon)
            if prox:
                t, value = prox
                lo = max(oracles.naive_bracket_lo(xm, one, t, k), oracles.naive_bracket_lo(xn, one, t, k))
                _need(value == lo + width, f"pair {m}:{n} prox bracket at {t}")
                _need(value < tau, "prox value not below tau")
            _recurrence(_witness(v, "recur_witness", 0, horizon), xm, xn, k, tau)

    return gate(check)


def thmC(x: Value, q: int, delta: Fraction, horizon: int, k: int, tau: Fraction):
    """Separation through the alternating-blocks pattern, then proximity."""
    width = Fraction(2) ** (1 - k)
    xq: Value = lambda i: x(q + i)

    def check(run: JobRun) -> None:
        doc = _report(run)
        _same({key: doc.get(key) for key in ("kind", "pair", "delta", "horizon", "prefix_len", "tau", "recur_witness")},
              {"kind": "pair-verdict", "pair": [0, q], "delta": _fstr(delta), "horizon": [0, horizon],
               "prefix_len": k, "tau": _fstr(tau), "recur_witness": None})
        _labels(doc, {PROX: "prox_witness", SEP: "sep_witness"}, {PROX, SEP})
        t, value = _witness(doc, "sep_witness", 0, horizon - q - k + 1)
        _need(all(x(t + i) == (i // q) % 2 for i in range(q + k)), f"no block pattern at {t}")
        _need(value == oracles.naive_bracket_lo(x, xq, t, k), f"sep bracket at {t}")
        _need(value >= delta - tau, "sep value below delta - tau")
        t, value = _witness(doc, "prox_witness", 0, horizon)
        _need(value == oracles.naive_bracket_lo(x, xq, t, k) + width, f"prox bracket at {t}")
        _need(value < tau, "prox value not below tau")

    return gate(check)
