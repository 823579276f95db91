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
    Mutant("csv_block_without_quoted_field_lines", "readers.py",
           "        while reader.line_num > ended:\n", "        while False:\n",
           ("test_seqio.py",)),
    # each CSV block is completed to the end of its last line
    Mutant("csv_block_without_completing_its_last_line", "readers.py",
           "            text += stream.readline()\n", "            pass\n",
           ("test_seqio.py",)),
    # the period str.find proposes is checked before it is followed back
    Mutant("tail_period_without_candidate_check", "orbits.py",
           "    if p < 1 or text[p:] != text[:m - p]:\n", "    if p < 1:\n",
           ("test_relations.py",)),
    # equal values share one code whatever their text
    Mutant("codes_keyed_by_text", "readers.py",
           "self[key] = self[reduced] = self.get(reduced, len(self.table))",
           "self[key] = self[reduced] = len(self.table)",
           ("test_seqio.py", "test_relations.py")),
    # codes widen to two bytes at the 257th distinct value, not later
    Mutant("widening_one_value_late", "readers.py",
           'if len(self.table) > 256 ** getattr(self.codes, "itemsize", 1):',
           'if len(self.table) > 257 ** getattr(self.codes, "itemsize", 1):',
           ("test_seqio.py",)),
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
