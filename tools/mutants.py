"""Plant the bugs this project has already met, and require the tests to catch each one.

    python3 tools/mutants.py [NAME ...]

Run it from any directory; it tests the checkout it sits in, with the
stdlib and pytest only.  A mutant is a file under `src/`, an exact snippet
of that file, the snippet's replacement, and the test files that must catch
it.  For each mutant (or each one named) the tool copies `src/` and
`tests/` to a temporary directory, replaces the snippet, checks that the
mutated module still compiles and imports, and runs the mutant's test files
there with pytest.  A mutant is killed when a test fails (pytest's exit
status 1); a collection or import error does not count.

First the same test files run on the unmutated copy, and must pass.  The
tool exits non-zero when they do not, when a mutant survives, when a
mutated module does not import, or when a snippet no longer occurs exactly
once in its file (stale).  A change that makes a snippet stale re-expresses
the mutant on the new code, or retires it and says why.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/wkseq
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/


MUTANTS = [
    # each distinct value is checked for [0, 1] once, in the order of its
    # first row, so the first bad value is the one reported
    Mutant("range_check_in_reverse", "sequence.py",
           "        for v in distinct:\n", "        for v in reversed(distinct):\n",
           ("test_seqio.py",)),
    # a record whose quoted field spans the end of a CSV block takes the
    # lines past it from the stream
    Mutant("csv_block_without_quoted_field_lines", "csv_reader.py",
           "        while reader.line_num > ended and (line := stream.readline()):\n",
           "        while False:\n",
           ("test_seqio.py",)),
    # each CSV block is completed to the end of its last line
    Mutant("csv_block_without_completing_its_last_line", "csv_reader.py",
           "            text += stream.readline()\n", "            pass\n",
           ("test_seqio.py",)),
    # the period str.find proposes is checked before it is followed back
    Mutant("tail_period_without_candidate_check", "orbits.py",
           "    if p < 1 or text[p:] != text[:m - p]:\n", "    if p < 1:\n",
           ("test_relations.py",)),
    # equal values share one code whatever their text
    Mutant("codes_keyed_by_text", "readers.py",
           "code = self[reduced] = self.get(reduced, code)",
           "code = self[reduced] = code",
           ("test_seqio.py", "test_relations.py")),
    # codes widen to two bytes at the 257th distinct value, not later
    Mutant("widening_one_value_late", "readers.py",
           'if len(self.table) > 256 ** getattr(self.codes, "itemsize", 1):',
           'if len(self.table) > 257 ** getattr(self.codes, "itemsize", 1):',
           ("test_seqio.py",)),
    # each window's rows are written from its own distinct values' texts
    Mutant("texts_of_one_window_reused_for_the_next", "writer.py",
           "        distinct = w._distinct\n",
           "        distinct = w._distinct if count == 1 else distinct\n",
           ("test_seqio.py",)),
    # a CSV block's indices are checked a thousand at a time: runs that
    # share their thousands end at the next multiple of 1000
    Mutant("index_text_thousands_boundary_off_by_one", "seqio.py",
           "        j = min(1000, i + stop - start)\n",
           "        j = min(1001, i + stop - start)\n",
           ("test_seqio.py",)),
    # the walk asks where to skip from the first time every open search covers
    Mutant("scan_asks_from_min_first", "relations.py",
           "ready = leave = max((s.first for s, d in zip(searches, done) if not d), default=start)",
           "ready = leave = min((s.first for s, d in zip(searches, done) if not d), default=start)",
           ("test_relations.py",)),
    # a skip starts only once one whole common period has been scanned
    Mutant("scan_jumps_one_time_early", "orbits.py",
           "        return t + period, leave\n",
           "        return t + period - 1, leave\n",
           ("test_relations.py",)),
    # the block scan hands each search its best so far, which a later
    # block must strictly beat
    Mutant("scan_without_passing_the_best", "relations.py",
           "best=best[i] and best[i][1].lo)",
           "best=None)",
           ("test_relations.py", "test_search_kernels.py")),
    # _fixed_min drops a time only once its head reaches the best
    Mutant("fixed_min_drops_at_best_minus_one", "brackets.py",
           "compress(times, map((-(-ceiling >> shift)).__gt__, merged))",
           "compress(times, map((-(-ceiling >> shift) - 1).__gt__, merged))",
           ("test_search_kernels.py", "test_relations.py")),
    # the head's bound is the best in head units rounded up, not down
    Mutant("fixed_min_floor_for_the_ceiling", "brackets.py",
           "compress(times, map((-(-ceiling >> shift)).__gt__, merged))",
           "compress(times, map((ceiling >> shift).__gt__, merged))",
           ("test_search_kernels.py", "test_relations.py")),
    # only a strictly smaller sum replaces the best, so ties keep the first time
    Mutant("fixed_min_later_tie_wins", "brackets.py",
           "            if n < ceiling:\n",
           "            if n <= ceiling:\n",
           ("test_search_kernels.py", "test_relations.py")),
    # a time's sum is the largest over its sides
    Mutant("fixed_min_sides_merged_by_min", "brackets.py",
           "n = max(sum(map(mul, map(abs, map(sub, xi[j:j + k], yi)), weights)) for xi, yi in sides)",
           "n = min(sum(map(mul, map(abs, map(sub, xi[j:j + k], yi)), weights)) for xi, yi in sides)",
           ("test_search_kernels.py", "test_relations.py")),
    # a window file named on both sides of a pair is read once
    Mutant("orbit_sources_without_dedupe", "relations_cli.py",
           "for token in dict.fromkeys(tokens)}",
           "for token in tokens}",
           ("test_cli.py",)),
    # every report is written with its keys sorted
    Mutant("report_emitter_without_sort_keys", "report.py",
           "json.dumps(doc, sort_keys=True, indent=2)",
           "json.dumps(doc, indent=2)",
           ("test_cli.py",)),
    # a bad window file is a usage error (exit 2), which the CLI catches as a
    # ValueError without importing the window code, not a crash (exit 3)
    Mutant("window_format_error_not_a_usage_error", "seqio.py",
           "class WindowFormatError(ValueError):",
           "class WindowFormatError(Exception):",
           ("test_cli.py",)),
    # thmB's and thmC's front doors hand their arguments on in order
    Mutant("thmB_front_door_horizon_and_k_swapped", "relations.py",
           "return thmB_witnesses(x, fixed_point, pairs, horizon, k, tau)",
           "return thmB_witnesses(x, fixed_point, pairs, k, horizon, tau)",
           ("test_relations.py", "test_cli.py")),
    Mutant("thmC_front_door_arguments_swapped", "relations.py",
           "return thmC_witnesses(x, q, delta, horizon, k, tau)",
           "return thmC_witnesses(x, q, delta, k, horizon, tau)",
           ("test_relations.py", "test_cli.py")),
    # the parsers' reference cycles are collected before a command runs
    Mutant("parser_left_for_the_collector", "argparser.py",
           "    gc.collect(0)\n",
           "    pass\n",
           ("test_cli.py",)),
    # the flag table's reader leaves a repeated flag to argparse, where the
    # last value wins
    Mutant("reader_takes_a_repeated_flag_first_value_wins", "flags.py",
           "            if flag in given or i + 1 == len(argv)",
           "            if flag in given:\n"
           "                i += 2\n"
           "                continue\n"
           "            if i + 1 == len(argv)",
           ("test_flags.py",)),
    # a value outside the flag's choices is argparse's error to report
    Mutant("reader_without_the_choice_check", "flags.py",
           '            if value not in kw.get("choices", (value,)):\n',
           "            if False:\n",
           ("test_flags.py",)),
    # a required flag left out is argparse's error to report
    Mutant("reader_without_required_flags", "flags.py",
           '        if any(kw.get("required") and flag not in given for flag, kw in flags.items()):\n',
           "        if False:\n",
           ("test_flags.py",)),
    # a global flag after the command words is an unrecognized argument
    Mutant("reader_takes_global_flags_after_the_command", "flags.py",
           "        while i < len(argv) and argv[i] in flags:\n"
           "            flag, kw = argv[i], flags[argv[i]]\n",
           "        merged = {**FLAGS[()], **flags}\n"
           "        while i < len(argv) and argv[i] in merged:\n"
           "            flag, kw = argv[i], merged[argv[i]]\n",
           ("test_flags.py",)),
    # a tile holds one period from -p[m], so a point x sits at x + p[m] mod 2p[m]
    Mutant("tile_index_without_its_shift", "walker.py",
           "j, cycle = (r.start + period // 2) % period,",
           "j, cycle = r.start % period,",
           ("test_kernel.py", "test_certify.py")),
    # the plateau summary fuses a's last run and b's first where they meet
    Mutant("join_without_fusing_at_the_seam", "runs.py",
           "self.merge(xa, self.long(la - ta, la + hb - 1), xb)",
           "self.merge(xa, self.long(la - ta, la - 1), self.long(la, la + hb - 1), xb)",
           ("test_certify.py",)),
    # whole periods of a memoised level are summarised as all their repeats
    Mutant("repeat_one_copy_short", "walker.py",
           "out = alg.repeat(memo[key], (r.stop - r.start) // (2 * half))",
           "out = alg.repeat(memo[key], (r.stop - r.start) // (2 * half) - 1)",
           ("test_certify.py",)),
    # a period summarised from one phase is not read at another
    Mutant("memo_keyed_without_its_phase", "walker.py",
           "key = alg, m, 0 if alg.cut else (r.start + half) % (2 * half)",
           "key = alg, m, 0",
           ("test_certify.py",)),
    # the runs are folded exactly down to level 0, whose ones extend runs
    # of the levels above: no prune floor reads a level as zeros
    Mutant("runs_fold_with_level_0_read_as_zeros", "walker.py",
           "    if m < 0:  # level 0 reads a level -1 that is 0 everywhere\n",
           "    if m < (alg is not VALUES):\n",
           ("test_certify.py",)),
    # a slice holds a block when the step to it is at most window - required + 1
    Mutant("verdict_coverage_bound_off_by_one", "runs.py",
           "max(u + 1, worst) <= window - self.required + 1 and",
           "max(u + 1, worst) <= window - self.required + 2 and",
           ("test_certify.py",)),
    # the first slice, from 0, needs the first block as much as any other
    Mutant("verdict_without_the_lead_in_from_zero", "runs.py",
           "covered = max(u + 1, worst) <= window",
           "covered = worst <= window",
           ("test_certify.py",)),
    # the last slice needs a block that starts at or past its start
    Mutant("verdict_last_block_one_past_the_last_slice", "runs.py",
           "last - self.required >= end - window",
           "last - self.required > end - window",
           ("test_certify.py",)),
    # a rational flag of 4300 digits or more would make a report that Python
    # cannot print, after its search
    Mutant("rational_flags_without_the_digit_cap", "flags.py",
           "        if not (far and value) and max(abs(value.numerator), value.denominator) < 10**4300:\n",
           "        if not (far and value):\n",
           ("test_flags.py",)),
    # a run of 4300 digits is refused before Fraction reads it, so the
    # refusal does not depend on Python's integer string limit
    Mutant("rational_flags_parse_long_digit_runs", "flags.py",
           '    if not re.search(r"\\d{4300}", text.replace("_", "")):\n',
           "    if True:\n",
           ("test_flags.py",)),
    # a block of times ends once its common denominator passes the bound,
    # so many coprime denominators do not make every sum grow
    Mutant("block_denominator_without_its_bound", "brackets.py",
           "BLOCK_DEN_BITS = 1024\n",
           "BLOCK_DEN_BITS = 1 << 40\n",
           ("test_search_kernels.py",)),
    # a returns grid is scanned in ascending order, and its end point last
    Mutant("returns_end_point_scanned_before_the_range", "certify.py",
           "    for part in (points, tail):\n",
           "    for part in (tail, points):\n",
           ("test_certify.py",)),
    # a sliding block's extreme is its first time that reaches it
    Mutant("sliding_block_extreme_at_its_last_tie", "brackets.py",
           "j = sums.index(n) if",
           "j = len(sums) - 1 - sums[::-1].index(n) if",
           ("test_relations.py", "test_search_kernels.py")),
    # at an occurrence of thmC's word each of the k terms differs from its
    # q-shift by 1: the separation bracket is [2 - 2^(1-k), 2]
    Mutant("thmC_separation_width_halved", "thmc.py",
           "DistBracket(2 - Fraction(2) ** (1 - k), Fraction(2))",
           "DistBracket(2 - Fraction(2) ** -k, Fraction(2))",
           ("test_relations.py", "test_search_kernels.py")),
    # only alpha's source reads the walker, so a window file's search
    # never compiles it
    Mutant("orbits_imports_the_walker_at_module_level", "orbits.py",
           "from .sequence import SeqWindow\n",
           "from .sequence import SeqWindow\nfrom .walker import eval_block, pieces\n",
           ("test_cli.py",)),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(mutant: Mutant, tree: Path) -> str:
    """What became of one mutant: killed, survived, stale or broken."""
    path = tree / "src" / "wkseq" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    module = "wkseq." + mutant.path.removesuffix(".py")
    # the copy must import, and be what is imported, ahead of any installed wkseq
    probe = f"import {module}; assert {module}.__file__.startswith({str(tree)!r})"
    if subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True).returncode:
        return "broken"
    status = run_tests(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(status, f"broken (pytest exit {status})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tests = tuple(sorted({t for m in chosen for t in m.tests}))
        copy_tree(Path(tmp) / "baseline")
        if run_tests(Path(tmp) / "baseline", tests):
            print(f"the unmutated tree fails {', '.join(tests)}", file=sys.stderr)
            return 1
        failed = 0
        for i, mutant in enumerate(chosen):
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            outcome = check(mutant, tree)
            shutil.rmtree(tree)
            failed += outcome != "killed"
            print(f"{mutant.name:<45} {outcome}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
