"""The flag table's reader (`wkseq.flags.read`) against argparse's parser,
which `wkseq.argparser` builds from the same table: on any argv the reader
returns None, or exactly the namespace argparse returns."""
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkseq
from wkseq import flags
from wkseq.argparser import build_parser

PARSER = build_parser()
LEAVES = [path for path in flags.FLAGS if path not in flags.GROUPS]
#: Values the flags' converters and choices refuse, or that argparse reads
#: as a flag, besides some they take.
ODD_VALUES = ["-5", "-1/2", "1/0", "xml", "bogus", "", "0", "abc", "1_000", " 7", "٣", "-", "--",
              "1e3", "3.5", "gen", "plateau", "json", "1e-4300", "1e-4299"]
#: Tokens that are not a pair of the command's own: every flag of every
#: command, its prefixes and `=` forms, help, the separator, command words.
EVERY_FLAG = sorted({flag for table in flags.FLAGS.values() for flag in table})
NOISE = [*EVERY_FLAG, *(f[:k] for f in EVERY_FLAG for k in range(3, len(f))), *(f"{f}=1" for f in EVERY_FLAG),
         "-h", "--help", "--", "gen", "verify", "ones", "relations", "thmB"]


def argparse_reads(argv: list[str]) -> dict | None:
    """argparse's namespace as a dict, or None where it exits."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def valid(keywords: dict) -> st.SearchStrategy[str]:
    """Values the flag's converter and choices take."""
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    low = {flags._nonneg_int: 0, flags._positive_int: 1}.get(keywords.get("type"))
    if low is not None:
        return st.integers(low, 10**30).map(str)
    if keywords.get("type") is flags._fraction_arg:
        return st.builds("{}/{}".format, st.integers(0, 10**9), st.integers(1, 10**9)) | st.integers(0, 99).map(str)
    return st.text("abc019:,./_ =", max_size=8)


@st.composite
def canonical(draw) -> tuple[tuple[str, ...], list[list[list[str]]]]:
    """A command path and, for each of its levels, `--flag value` pairs in
    any order: every required flag and some others, each once, never
    --config."""
    path, levels = draw(st.sampled_from(LEAVES)), []
    for depth in range(len(path) + 1):
        table = flags.FLAGS.get(path[:depth], {})
        chosen = [flag for flag, kw in table.items()
                  if flag != "--config" and (kw.get("required") or draw(st.booleans()))]
        levels.append([[flag, draw(valid(table[flag]))] for flag in draw(st.permutations(chosen))])
    return path, levels


def flatten(path: tuple[str, ...], levels: list[list[list[str]]]) -> list[str]:
    argv = [token for pair in levels[0] for token in pair]
    for word, pairs in zip(path, levels[1:]):
        argv += [word, *(token for pair in pairs for token in pair)]
    return argv


@settings(max_examples=300, deadline=None)
@given(canonical())
def test_reader_takes_canonical_argv_as_argparse_does(case):
    argv = flatten(*case)
    fast = flags.read(argv)
    assert fast is not None, argv
    assert vars(fast) == argparse_reads(argv), argv


def _pick(data, levels):
    """A level and the position of a `--flag value` pair in it, or (None, None)."""
    pairs = [(i, j) for i, level in enumerate(levels) for j, pair in enumerate(level) if len(pair) == 2]
    return data.draw(st.sampled_from(pairs)) if pairs else (None, None)


def repeat(path, levels, data):  # a flag given again, with a value it takes
    i, j = _pick(data, levels)
    keywords = i is not None and {**flags.FLAGS[()], **flags.FLAGS.get(path[:i], {})}.get(levels[i][j][0])
    if keywords:
        pair = [levels[i][j][0], data.draw(valid(keywords))]
        levels[i].insert(data.draw(st.integers(0, len(levels[i]))), pair)


def misplace(path, levels, data):  # a global pair after a command word
    if levels[0] and data.draw(st.booleans()):
        pair = levels[0].pop(data.draw(st.integers(0, len(levels[0]) - 1)))
    else:
        table = flags.FLAGS[()]
        flag = data.draw(st.sampled_from([f for f in table if f != "--config"]))
        pair = [flag, data.draw(valid(table[flag]))]
    i = data.draw(st.integers(1, len(levels) - 1))
    levels[i].insert(data.draw(st.integers(0, len(levels[i]))), pair)


def drop(path, levels, data):  # a pair left out, perhaps a required one
    i, j = _pick(data, levels)
    if i is not None:
        del levels[i][j]


def odd_value(path, levels, data):
    i, j = _pick(data, levels)
    if i is not None:
        levels[i][j][1] = data.draw(st.sampled_from(ODD_VALUES))


def off_choice(path, levels, data):  # a flag with choices, given any value
    i, flag = data.draw(st.sampled_from([(i, flag) for i in range(len(levels))
                                         for flag, kw in flags.FLAGS.get(path[:i], {}).items() if "choices" in kw]))
    levels[i] = [pair for pair in levels[i] if pair[0] != flag]
    levels[i].insert(data.draw(st.integers(0, len(levels[i]))), [flag, data.draw(st.sampled_from(ODD_VALUES))])


def equals(path, levels, data):  # --flag=value
    i, j = _pick(data, levels)
    if i is not None:
        levels[i][j] = ["=".join(levels[i][j])]


def abbreviate(path, levels, data):
    i, j = _pick(data, levels)
    if i is not None and len(levels[i][j][0]) > 3:
        levels[i][j][0] = levels[i][j][0][:data.draw(st.integers(3, len(levels[i][j][0]) - 1))]


def noise(path, levels, data):  # a flag of another command, help, a bare word
    i = data.draw(st.integers(0, len(levels) - 1))
    j = data.draw(st.integers(0, len(levels[i])))
    token = data.draw(st.sampled_from(NOISE))
    levels[i].insert(j, [token, data.draw(st.sampled_from(ODD_VALUES))] if data.draw(st.booleans()) else [token])


@settings(max_examples=400, deadline=None)
@given(canonical(), st.data())
def test_reader_returns_argparses_namespace_or_none(case, data):
    path, levels = case
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from([repeat, misplace, drop, odd_value, off_choice, equals, abbreviate, noise]))
        edit(path, levels, data)
    argv = flatten(path, levels)
    fast = flags.read(argv)
    if fast is not None:
        assert vars(fast) == argparse_reads(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        "gen --len 1 --len 2",  # argparse takes the last
        "--format json --format csv gen --len 1",
        "--format xml gen --len 1",
        "verify ones --n 1 --window 10 --mode bogus",
        "gen",
        "relations thmB --orbit alpha --pairs 0:1 --horizon 3 --k 1 --tau 1",
        "gen --format json --len 1",
        "verify --decimals 2 wm --n 0",
        "gen --le 1",
        "gen --len=1",
        "--config run.ini gen --len 1",
        "gen --len 1 --out -",
        "verify wm --n 0 --eps 1/0",
        "gen --help",
        "-h",
        "verify",
        "gen --len 1 extra",
    ],
)
def test_reader_leaves_other_shapes_to_argparse(argv):
    assert flags.read(argv.split()) is None


#: sha256 of the help of all 12 parsers at 80 columns: the bytes the
#: parser printed when its flags were written out by hand.
HELP_SHA256 = "3ae6af15d59a4571eb345a290196cb0bdfae3515524688c35eb2ed17494fff6b"


def test_help_texts_keep_their_bytes():
    env = {**os.environ, "PYTHONPATH": str(Path(wkseq.__file__).parents[1]), "COLUMNS": "80"}
    paths = ["", "gen", "verify", "relations", *(f"verify {lemma}" for lemma in flags.GROUPS[("verify",)][1]),
             *(f"relations {name}" for name in flags.GROUPS[("relations",)][1])]
    digest = hashlib.sha256()
    for path in paths:
        proc = subprocess.run([sys.executable, "-m", "wkseq", *path.split(), "--help"], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b""), path
        digest.update(proc.stdout)
    assert digest.hexdigest() == HELP_SHA256



@pytest.mark.parametrize("limit", [None, 0], ids=["default", "unlimited"])
def test_rational_flags_stay_under_4300_digits(capsys, monkeypatch, limit):
    # A report writes each rational as num/den, which Python refuses past
    # `sys.int_max_str_digits`.  So a rational flag is refused before any
    # search from 4300 digits on, and one just under keeps its verdict,
    # whatever that limit is.
    import wkseq.relations_cli

    if limit is not None and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string limit")
    saved = limit is not None and sys.get_int_max_str_digits()
    argv = "relations classify --a alpha --b ones --delta 1 --horizon 400 --k 8 --tau".split()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        assert wkseq.console_main([*argv, "1e-4000"]) == 1
        assert len(capsys.readouterr().out.encode()) == 4342
        monkeypatch.setattr(wkseq.relations_cli, "run", lambda *args: pytest.fail("searched"))
        with pytest.raises(SystemExit) as exc:
            wkseq.console_main([*argv, "1e-5000"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --tau: numerator or denominator of 4300 digits or more" in err
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(saved)


def test_a_long_digit_run_is_refused_alike_under_any_digit_limit(capsys, monkeypatch):
    # Under Python's default limit Fraction itself would refuse a literal of
    # 4400 digits, and the refusal would read "not a rational"; without the
    # limit it would parse.  A run of 4300 digits is refused before either.
    import wkseq.relations_cli

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string limit")
    monkeypatch.setattr(wkseq.relations_cli, "run", lambda *args: pytest.fail("searched"))
    argv = "relations classify --a alpha --b ones --delta 1 --horizon 400 --k 8 --tau".split()
    saved, errs = sys.get_int_max_str_digits(), []
    try:
        for limit in (saved, 0):
            sys.set_int_max_str_digits(limit)
            for tau in ("1/1" + "0" * 4400, "1" * 4300, "1_" * 4300 + "1"):
                with pytest.raises(SystemExit) as exc:
                    wkseq.console_main([*argv, tau])
                assert exc.value.code == 2
                out, err = capsys.readouterr()
                assert out == "" and "argument --tau: numerator or denominator of 4300 digits or more" in err
                errs.append(err)
    finally:
        sys.set_int_max_str_digits(saved)
    assert errs[:3] == errs[3:]


def test_a_far_exponent_is_refused_before_its_power_is_built(capsys, monkeypatch):
    # Fraction would build 10**100000000 first, which takes minutes.  From
    # 8600 on, a nonzero decimal's exponent alone makes 4300 digits, so such
    # a value is refused at once; a zero mantissa reads as 0 at any exponent.
    from argparse import ArgumentTypeError

    import wkseq.relations_cli

    monkeypatch.setattr(wkseq.relations_cli, "run", lambda *args: pytest.fail("searched"))
    argv = "relations classify --a alpha --b ones --delta 1 --horizon 400 --k 8 --tau".split()
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        wkseq.console_main([*argv, "1e-100000000"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --tau: numerator or denominator of 4300 digits or more" in err
    for text in ("1e-100000000", "-2.5E+100000000", "1e8600", "0.001e-8600", "1_0e-9_000"):
        with pytest.raises(ArgumentTypeError, match="4300 digits or more"):
            flags._fraction_arg(text)
    assert flags._fraction_arg("0e-100000000") == flags._fraction_arg(" -0.0E99999999999 ") == 0
    # below the far exponents, the values and refusals of Fraction's own reading
    assert flags._fraction_arg("1e-4299") == Fraction(1, 10**4299)
    assert flags._fraction_arg("1e4299") == 10**4299
    for text in ("1e-8599", "1e4300"):
        with pytest.raises(ArgumentTypeError, match="4300 digits or more"):
            flags._fraction_arg(text)
    for text in ("1/2e9000", "1e", "e9000", "1e9000x"):
        with pytest.raises(ArgumentTypeError, match="not a rational"):
            flags._fraction_arg(text)
