"""The three workloads: CLI job lists built from one seed's inputs.

Users drive wkseq one command at a time, so a workload is a closed loop:
one client runs its jobs in order, each as `python -m wkseq ...`, and
starts the next only when the last has ended.

- alpha-live: `gen` at three offset bands plus the README's classify and
  thmB on the alpha orbit.  The evaluator does most of the work; this is
  also the only place evaluator and search kernel meet (`alpha_source`).
- certify: every `verify` lemma.  Scans that evaluate many coordinates sit
  beside checks that evaluate few, so an evaluator speedup and a change to
  the structural certificates move different jobs.  No search kernel runs.
  `wm --n 2` would take hours today; it runs under a fixed time limit.
- search-files: relation searches on window files only.  The search
  kernels and the window reader do all the work and the evaluator none,
  so an evaluator change must leave this workload's numbers alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gates
import inputs as ins
from inputs import Inputs
from spawn import JobRun

#: Limit for every job; a job past it counts as failed.
JOB_TIMEOUT_S = 120.0
#: Limit for the `wm --n 2` probe.  Past it the probe counts as failed and
#: the limit is part of the pass's wall time.
PROBE_TIMEOUT_S = 2.0

K, TAU, DELTA = 32, Fraction(1, 100), Fraction(1)
ALPHA_HORIZON, THMB_ALPHA_HORIZON, THMB_FILE_HORIZON = 20_000, 5_000, 20_000
GEN_SMALL_LEN, GEN_BAND_LEN = 50_000, 20_000
SHIFT_STEP = 143_489_313


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments after `python -m wkseq`
    gate: Callable[[JobRun], gates.Failure | None]
    timeout_s: float = JOB_TIMEOUT_S
    in_process: bool = True  # False where an in-process call could not be stopped


def _pairs(pairs: list[tuple[int, int]]) -> str:
    return ",".join(f"{m}:{n}" for m, n in pairs)


def setup_probe(name: str, inp: Inputs) -> Job:
    """One-coordinate `gen` at the deepest band the workload uses: the cost
    every CLI call pays (interpreter, import, parsing, ladder growth)."""
    start = inp.gen_small if name == "search-files" else inp.gen_huge
    return Job("setup_gen", ["gen", "--from", str(start), "--len", "1"],
               gates.gen_csv(inp, start, 1, 0, sampled=False))


def alpha_live(inp: Inputs) -> list[Job]:
    alpha = inp.alpha
    return [
        Job("gen_small", ["--decimals", "6", "gen", "--from", str(inp.gen_small), "--len", str(GEN_SMALL_LEN)],
            gates.gen_csv(inp, inp.gen_small, GEN_SMALL_LEN, 6, sampled=False)),
        Job("gen_medium", ["--format", "json", "gen", "--from", str(inp.gen_medium), "--len", str(GEN_BAND_LEN)],
            gates.gen_json(inp, inp.gen_medium, GEN_BAND_LEN)),
        Job("gen_huge", ["gen", "--from", str(inp.gen_huge), "--len", str(GEN_BAND_LEN)],
            gates.gen_csv(inp, inp.gen_huge, GEN_BAND_LEN, 0, sampled=True)),
        Job("classify_alpha_ones",
            ["relations", "classify", "--a", "alpha", "--b", "ones", "--delta", "1",
             "--horizon", str(ALPHA_HORIZON), "--k", str(K), "--tau", "1/100",
             "--require", "proximal-witnessed"],
            gates.classify(alpha, lambda i: Fraction(1), DELTA, ALPHA_HORIZON, K, TAU,
                           {gates.PROX, gates.SEP, gates.RECUR})),
        Job("thmB_alpha",
            ["relations", "thmB", "--orbit", "alpha", "--fixed-point", "ones",
             "--pairs", _pairs(inp.alpha_pairs), "--horizon", str(THMB_ALPHA_HORIZON),
             "--k", str(K), "--tau", "1/100"],
            gates.thmB(alpha, inp.alpha_pairs, THMB_ALPHA_HORIZON, K, TAU)),
    ]


def certify(inp: Inputs) -> list[Job]:
    return [
        Job("ones_scan", ["verify", "ones", "--n", "1", "--window", str(inp.ones_window), "--mode", "scan"],
            gates.ones_scan(inp, 1, inp.ones_window)),
        Job("rigidity_n1", ["verify", "rigidity", "--n", "1", "--count", str(inp.rigid1_count)],
            gates.rigidity(inp, 1, inp.rigid1_count)),
        Job("rigidity_n2", ["verify", "rigidity", "--n", "2", "--count", str(inp.rigid2_count)],
            gates.rigidity(inp, 2, inp.rigid2_count)),
        Job("returns_n2", ["verify", "returns", "--n", "2", "--samples", str(inp.returns2_samples)],
            gates.returns(inp, 2, inp.returns2_samples)),
        Job("ones_plateau", ["verify", "ones", "--n", "2", "--window", str(inp.plateau_window), "--mode", "plateau"],
            gates.ones_plateau(inp, 2, inp.plateau_window)),
        Job("returns_n1", ["verify", "returns", "--n", "1"], gates.returns(inp, 1, None)),
        Job("wm_n1", ["verify", "wm", "--n", "1"], gates.wm(inp, 1)),
        Job("shift_defect", ["verify", "shift-defect", "--n", "1", "--m", "2", "--step", str(SHIFT_STEP)],
            gates.shift_defect(1, 2, SHIFT_STEP)),
        Job("wm_n2_probe", ["verify", "wm", "--n", "2"], gates.wm_probe(2),
            timeout_s=PROBE_TIMEOUT_S, in_process=False),
    ]


def search_files(inp: Inputs) -> list[Job]:
    win = inp.window_value
    horizon = ins.WINDOW_ROWS - K
    csv_path, json_path = str(inp.window_csv), str(inp.window_json)
    classify_args = ["--delta", "1", "--k", str(K), "--tau", "1/100"]
    against_ones = gates.classify(win, lambda i: Fraction(1), DELTA, horizon, K, TAU,
                                  {gates.PROX, gates.SEP, gates.RECUR})
    fixture = inp.fixture
    return [
        Job("classify_file_ones_p1",
            ["relations", "classify", "--a", csv_path, "--b", "ones", "--horizon", str(horizon), *classify_args],
            against_ones),
        Job("classify_file_ones_p2",
            ["--parallelism", "2", "relations", "classify", "--a", csv_path, "--b", "ones",
             "--horizon", str(horizon), *classify_args],
            against_ones),
        Job("classify_file_shift",
            ["relations", "classify", "--a", csv_path, "--b", csv_path, "--shift-b", "1",
             "--horizon", str(horizon - 1), *classify_args],
            gates.classify(win, lambda i: win(1 + i), DELTA, horizon - 1, K, TAU,
                           {gates.PROX, gates.SEP, gates.RECUR})),
        Job("thmB_file_json",
            ["relations", "thmB", "--orbit", json_path, "--fixed-point", "ones",
             "--pairs", _pairs(inp.file_pairs), "--horizon", str(THMB_FILE_HORIZON),
             "--k", str(K), "--tau", "1/100"],
            gates.thmB(win, inp.file_pairs, THMB_FILE_HORIZON, K, TAU)),
        Job("thmC_fixture",
            ["relations", "thmC", "--orbit", str(inp.fixture_csv), "--q", "1", "--delta", "2",
             "--horizon", "11900", "--k", "16", "--tau", "1/1024"],
            gates.thmC(lambda i: fixture[i], 1, Fraction(2), 11900, 16, Fraction(1, 1024))),
    ]


WORKLOADS = {"alpha-live": alpha_live, "certify": certify, "search-files": search_files}
