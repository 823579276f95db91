import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import tokenize
from fractions import Fraction as F
from pathlib import Path

import pytest

import wkseq
from fixtures import full_shift_transitive_point
from wkseq import (
    alpha_window,
    console_main,
    dumps_csv,
    ladder_new,
    load_window,
    loads_csv,
    loads_json,
)


def run_cli(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gen", "--from", "30", "--len", "40")
    assert code == 0
    lad = ladder_new("default-minimal")
    assert loads_csv(out) == alpha_window(lad, 30, 40)


def test_gen_known_value(capsys):
    code, out, _ = run_cli(capsys, "gen", "--from", "41", "--len", "1")
    assert code == 0
    assert out.splitlines()[1] == "41,14,27"


def test_gen_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "gen", "--len", "5")
    assert code == 0
    w = loads_json(out)
    assert w.values == (0, 0, 1, 1, 1)


def test_gen_decimals_column(capsys):
    code, out, _ = run_cli(
        capsys, "--decimals", "3", "gen", "--from", "41", "--len", "1"
    )
    assert code == 0
    assert out.splitlines()[1] == "41,14,27,0.518"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            "verify ones --n 0 --window 5",
            "usage: wkseq verify ones [-h] --n N --window WINDOW\n"
            "                         [--mode {auto,scan,plateau}]\n"
            "wkseq verify ones: error: argument --n: must be at least 1\n",
        ),
        (
            "verify",
            "usage: wkseq verify [-h] {rigidity,returns,ones,wm,shift-defect} ...\n"
            "wkseq verify: error: the following arguments are required: lemma\n",
        ),
        (
            "relations",
            "usage: wkseq relations [-h] {classify,thmB,thmC} ...\n"
            "wkseq relations: error: the following arguments are required: subcommand\n",
        ),
        (
            "bogus",
            "usage: wkseq [-h] [--config PATH] [--ladder-schedule PATH]\n"
            "             [--format {csv,json}] [--decimals DECIMALS]\n"
            "             [--parallelism PARALLELISM]\n"
            "             {gen,verify,relations} ...\n"
            "wkseq: error: argument command: invalid choice: 'bogus' "
            "(choose from 'gen', 'verify', 'relations')\n",
        ),
    ],
)
def test_usage_errors_keep_their_bytes(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        console_main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_the_parser_is_freed_before_a_command_runs(capsys, monkeypatch, tmp_path):
    # the parsers' objects hold reference cycles; left for the collector's
    # next run, they would sit under the command's peak memory.  Canonical
    # argv builds no parser, so the run reads a config file, which argparse
    # reads.
    import gc

    import wkseq.cli as cli

    def parsers() -> int:  # pytest holds parsers of its own
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    gc.collect()  # parsers an earlier test's usage error left behind
    ladder, before, left = cli.Ladder, parsers(), []

    def first_step_of_the_command(schedule):
        left.append(parsers() - before)
        return ladder(schedule)

    monkeypatch.setattr(cli, "Ladder", first_step_of_the_command)
    (tmp_path / "run.ini").write_text("[run]\nformat = json\n")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            code, _, _ = run_cli(capsys, "--config", str(tmp_path / "run.ini"), "gen", "--len", "1")
            assert code == 0 and left[-1] == 0 and gc.isenabled() == enabled
    finally:
        gc.enable()


def test_gen_len_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        console_main(["gen", "--len", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [[], ["--decimals", "5"], ["--format", "json"]])
def test_gen_streams_the_bytes_of_one_document(capsys, flags):
    # 9000 values from 200: three streamed blocks, and the step from level 1
    # to level 2 at 243
    code, out, _ = run_cli(capsys, *flags, "gen", "--from", "200", "--len", "9000")
    assert code == 0
    values = alpha_window(ladder_new("default-minimal"), 200, 9000).values
    if flags == ["--format", "json"]:
        doc = {"schema": "wk-window/1", "offset": 200,
               "values": [f"{v.numerator}/{v.denominator}" for v in values]}
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        return
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["index", "value_num", "value_den"] + (["value_decimal"] if flags else []))
    for i, v in enumerate(values, 200):
        digits = v.numerator * 10**5 // v.denominator
        decimal = [f"{digits // 10**5}.{digits % 10**5:05d}"] if flags else []
        writer.writerow([i, v.numerator, v.denominator] + decimal)
    assert out == text.getvalue()


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "w.csv"
    code, out, _ = run_cli(capsys, "gen", "--len", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert loads_csv(target.read_text()).values == (0, 0, 1)


def test_verify_returns_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "returns", "--n", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["schema"] == "wk-report/1"
    assert doc["left_shift"] == 162


def test_verify_rigidity_level_zero_is_parameter_error(capsys):
    code, _, err = run_cli(capsys, "verify", "rigidity", "--n", "0", "--count", "5")
    assert code == 2
    assert "error" in err


def test_ladder_too_deep_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "rigidity", "--n", "30", "--count", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "level 13 would take about" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # reads alpha at 2p[12], which lies in level 13
        ("rigidity --n 12 --count 1", "level 13 would take about 6377290 bits, past the limit of 4194304"),
        ("wm --n 12", "level 13 would take about 6377290 bits, past the limit of 4194304"),
        ("returns --n 12", "scan of more than 2000001 points refused"),
        ("ones --n 12 --window 5", "window_end must cover at least one full window"),
        # reads levels 1 and 12 only, so the scan limit refuses it first
        ("shift-defect --n 1 --m 12 --step 1", "scan of more than 2000001 points refused"),
    ],
)
def test_deep_level_refusals(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_failed_certificate_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "wm", "--n", "0", "--eps", "1/8")
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_verify_wm_refuses_a_tolerance_that_is_not_positive(capsys, eps):
    code, out, err = run_cli(capsys, "verify", "wm", "--n", "0", f"--eps={eps}")
    assert (code, out, err) == (2, "", "error: tolerance must be positive\n")


def test_verify_ones(capsys):
    code, out, _ = run_cli(capsys, "verify", "ones", "--n", "1", "--window", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["first_run"] == [54, 111]


def test_verify_shift_defect(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "shift-defect", "--n", "1", "--m", "1", "--step", "1/2"
    )
    assert code == 0
    assert json.loads(out)["max_defect"] == "0/1"


def test_explicit_schedule_flag(capsys, tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("# growth factors, one per line\n10\n")
    code, out, _ = run_cli(
        capsys, "--ladder-schedule", str(sched), "gen", "--from", "41", "--len", "1"
    )
    assert code == 0
    assert out.splitlines()[1] == "41,11,30"


def test_undersized_schedule_is_rejected(capsys, tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("8\n")
    code, _, err = run_cli(
        capsys, "--ladder-schedule", str(sched), "gen", "--len", "5"
    )
    assert code == 2 and "error" in err
    # the call's one ladder is built before any command runs, also one
    # that never reads alpha
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    code, out, err = run_cli(
        capsys, "--ladder-schedule", str(sched), "relations", "classify", "--a", str(path),
        "--b", "ones", "--delta", "1", "--horizon", "300", "--k", "8", "--tau", "1/100",
    )
    assert (code, out) == (2, "")
    assert err == "error: schedule entry L[1]=8 is below the minimum p[0]^2=9\n"


def test_config_file_settings(capsys, tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("10\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "ladder_policy = explicit\n"
        f"ladder_schedule = {sched}\n"
        "format = json\n"
        "parallelism = 2\n"
    )
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "gen", "--from", "41", "--len", "1"
    )
    assert code == 0
    assert loads_json(out).values == (F(11, 30),)
    # a schedule under the default policy is refused, not silently dropped
    cfg.write_text(f"[run]\nladder_schedule = {sched}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "gen", "--len", "1")
    assert (code, out) == (2, "") and "ladder_policy = explicit" in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("decimals = -1", "argument --decimals: must be nonnegative"),
        ("decimals = abc", "argument --decimals: invalid _nonneg_int value: 'abc'"),
        ("parallelism = 0", "argument --parallelism: must be at least 1"),
    ],
)
def test_config_values_pass_the_flags_checks(capsys, tmp_path, setting, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{setting}\n")
    with pytest.raises(SystemExit) as exc:
        console_main(["--config", str(cfg), "gen", "--len", "1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"wkseq: error: {message}\n")


def test_config_format_is_checked(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nformat = xml\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "gen", "--len", "1")
    assert (code, out, err) == (2, "", "error: unknown output format 'xml'\n")


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nformat = json\n")
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "--format", "csv", "gen", "--len", "2"
    )
    assert code == 0
    assert out.startswith("index,")


def test_config_without_run_section(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[other]\nx = 1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--len", "2")
    assert code == 2 and "run" in err


def test_classify_identical_files(capsys, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    base = [
        "relations", "classify", "--a", str(path), "--b", str(path),
        "--delta", "1", "--horizon", "300", "--k", "8", "--tau", "1/100",
    ]
    code, out, _ = run_cli(capsys, *base)
    assert code == 1  # separation cannot be witnessed for identical points
    doc = json.loads(out)
    assert "proximal-witnessed" in doc["labels"]
    assert "inconclusive" in doc["labels"]
    code, _, _ = run_cli(capsys, *base, "--require", "proximal-witnessed")
    assert code == 0


def test_classify_unknown_required_label(capsys):
    code, _, err = run_cli(
        capsys, "relations", "classify", "--a", "alpha", "--b", "ones",
        "--delta", "1", "--horizon", "50", "--k", "4", "--tau", "1/4",
        "--require", "bogus-label",
    )
    assert code == 2 and "unknown labels" in err


def test_malformed_orbit_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value_num,value_den\n0,x,1\n")
    code, _, err = run_cli(
        capsys, "relations", "classify", "--a", str(path), "--b", "ones",
        "--delta", "1", "--horizon", "10", "--k", "4", "--tau", "1/4",
    )
    assert code == 2 and "line 2" in err


def test_thmB_command(capsys):
    code, out, _ = run_cli(
        capsys, "relations", "thmB", "--orbit", "alpha", "--fixed-point", "ones",
        "--pairs", "0:1,2:5", "--horizon", "300", "--k", "8", "--tau", "1/100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "pair-verdict-list"
    assert [v["pair"] for v in doc["verdicts"]] == [[0, 1], [2, 5]]


def test_thmB_bad_pairs(capsys):
    code, _, err = run_cli(
        capsys, "relations", "thmB", "--orbit", "alpha", "--fixed-point", "ones",
        "--pairs", "0-1", "--horizon", "50", "--k", "4", "--tau", "1/4",
    )
    assert code == 2 and "m:n" in err


def test_thmC_not_found_emits_error_report(capsys, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    code, out, _ = run_cli(
        capsys, "relations", "thmC", "--orbit", str(path), "--q", "3",
        "--delta", "2", "--horizon", "40", "--k", "16", "--tau", "1/1024",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "not-found-in-horizon"


@pytest.mark.parametrize(
    "argv",
    [
        "verify wm --n 0",
        "relations classify --a alpha --b ones --delta 1 --horizon 40 --k 8 --tau 1/100",
        "relations thmB --orbit alpha --fixed-point ones --pairs 0:1 --horizon 40 --k 8 --tau 1/100",
        "relations thmC --orbit ones --q 1 --delta 1 --horizon 40 --k 8 --tau 1/100",
    ],
)
def test_reports_are_written_with_sorted_keys(capsys, argv):
    # every report, verdict and error document, nested objects included
    _, out, _ = run_cli(capsys, *argv.split())
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_thmC_refuses_a_horizon_past_the_file(capsys, tmp_path):
    # an occurrence reads coordinates up to the horizon, so 399 is the
    # largest horizon a 400-row file allows
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    argv = ["relations", "thmC", "--orbit", str(path), "--q", "1", "--delta", "1",
            "--k", "8", "--tau", "1/4", "--horizon"]
    for horizon in ("400", "20000"):
        code, out, err = run_cli(capsys, *argv, horizon)
        assert (code, out) == (2, "")
        assert f"horizon {horizon} exceeds available data (max 399)" in err
    code, out, _ = run_cli(capsys, *argv, "399")
    doc = json.loads(out)
    assert code == 0 and doc["horizon"] == [0, 399] and doc["sep_witness"]["time"] == 384


def test_parallelism_does_not_change_output(capsys, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(2000)))
    argv = [
        "relations", "classify", "--a", str(path), "--b", str(path),
        "--shift-b", "1", "--delta", "2", "--horizon", "1900", "--k", "12",
        "--tau", "1/512",
    ]
    _, out1, _ = run_cli(capsys, "--parallelism", "1", *argv)
    _, out8, _ = run_cli(capsys, "--parallelism", "8", *argv)
    assert out1 == out8


def test_unexpected_crash_exits_three(capsys, monkeypatch):
    import wkseq.certify as certify

    def boom(*_args, **_kwargs):
        raise RuntimeError("simulated fault")

    # the CLI imports the certificate layer when a verify runs
    monkeypatch.setattr(certify, "check_wm_returns", boom)
    code, _, err = run_cli(capsys, "verify", "wm", "--n", "0")
    assert code == 3
    assert "unexpected failure" in err


def _imported(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run Python with -X importtime, which lists every module the run
    imports on stderr, and return the run and those modules.  The run skips
    `site` (-S), whose imports differ between installs, and finds wkseq
    through PYTHONPATH instead."""
    env = {**os.environ, "PYTHONPATH": str(Path(wkseq.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv],
        capture_output=True, text=True, env=env,
    )
    lines = (line for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return proc, {line.rsplit("|", 1)[1].strip() for line in lines}


#: Modules each command must not import, besides the dataclasses machinery,
#: shutil, and argparse with the gettext and locale it loads (argv in
#: canonical shape is read from the flag table): the layers and readers it
#: does not run.  The settings files' readers (`wkseq.config`, and
#: configparser with it) are only for --config and --ladder-schedule.  Only
#: `verify ones` compiles the ones-run walk (`wkseq.runs`); no `verify`, and
#: no search on α, compiles the window-file code; `gen` compiles no report
#: or relations code; and only thmC compiles its pattern search
#: (`wkseq.thmc`).
SETTINGS = " configparser wkseq.config"
WINDOW_FILES = " wkseq.seqio wkseq.readers csv"
WINDOW_AND_SEARCH = ("wkseq.sequence wkseq.orbits wkseq.brackets wkseq.relations wkseq.relations_cli"
                     " wkseq.thmc wkseq.plfunc" + WINDOW_FILES + SETTINGS)
ALPHA_SEARCH = "wkseq.certify wkseq.runs wkseq.plfunc wkseq.thmc" + WINDOW_FILES + SETTINGS
NOT_IMPORTED = {
    "gen --len 6": "json csv wkseq.certify wkseq.runs wkseq.relations wkseq.plfunc wkseq.report"
    " wkseq.relations_cli wkseq.thmc" + SETTINGS,
    "verify wm --n 1": "wkseq.runs " + WINDOW_AND_SEARCH,
    "verify rigidity --n 1 --count 486": "wkseq.runs " + WINDOW_AND_SEARCH,
    "verify returns --n 1": "wkseq.runs " + WINDOW_AND_SEARCH,
    "verify shift-defect --n 1 --m 2 --step 143489313": "wkseq.runs " + WINDOW_AND_SEARCH,
    "verify ones --n 1 --window 1000": WINDOW_AND_SEARCH,
    "verify ones --n 2 --window 300000000 --mode plateau": WINDOW_AND_SEARCH,
    "relations classify --a alpha --b ones --delta 1 --horizon 400 --k 8"
    " --tau 1/100 --require proximal-witnessed": ALPHA_SEARCH,
    "relations thmB --orbit alpha --fixed-point ones --pairs 0:1,2:5 --horizon 300"
    " --k 8 --tau 1/100": ALPHA_SEARCH,
}


def test_installed_entry_point_runs():
    _, bare = _imported("-c", "pass")  # what the interpreter loads anyway
    for argv, banned in NOT_IMPORTED.items():
        proc, modules = _imported("-m", "wkseq", *argv.split())
        assert proc.returncode == 0, argv
        assert "wkseq.cli" in modules
        unwanted = {"dataclasses", "inspect", "shutil", "argparse", "gettext", "locale", *banned.split()}
        unwanted &= modules - bare
        assert not unwanted, (argv, unwanted)
        command = argv.split()[0]
        if command == "gen":
            assert proc.stdout.splitlines()[0] == "index,value_num,value_den"
        elif command == "verify":
            lemma = {"wm": "wm-returns", "ones": "ones-runs"}.get(argv.split()[1], argv.split()[1])
            assert json.loads(proc.stdout)["lemma"] == lemma, argv
        else:
            kind = {"classify": "pair-verdict", "thmB": "pair-verdict-list"}[argv.split()[1]]
            assert json.loads(proc.stdout)["kind"] == kind, argv


def test_help_and_usage_errors_go_through_argparse():
    for argv, code in (("verify ones --help", 0), ("gen --len 0", 2)):
        proc, modules = _imported("-m", "wkseq", *argv.split())
        assert proc.returncode == code and "argparse" in modules, argv
        assert proc.stdout.startswith("usage: ") == (code == 0), argv


#: CPython's compile peak for a module jumps by about 120 KB once the module
#: passes about this many tokenize tokens (Python 3.11), and without a
#: bytecode cache every CLI call compiles each module it imports.
COMPILE_CLIFF = 2048


def _tokens(module: str) -> int:
    """A module's tokenize token count, as tools/bench_scale.py counts it."""
    with open(importlib.util.find_spec(module).origin, "rb") as fh:
        return sum(1 for _ in tokenize.tokenize(fh.readline))


def test_no_command_compiles_a_module_past_the_compile_cliff(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    (tmp_path / "sched.txt").write_text("10\n")
    (tmp_path / "run.ini").write_text(
        f"[run]\nladder_policy = explicit\nladder_schedule = {tmp_path / 'sched.txt'}\n"
    )
    searches = {
        "classify": ["--a", str(path), "--b", "ones", "--delta", "1"],
        "thmB": ["--orbit", str(path), "--fixed-point", "ones", "--pairs", "0:1"],
        "thmC": ["--orbit", str(path), "--q", "1", "--delta", "1"],
    }
    commands = [
        *map(str.split, NOT_IMPORTED),
        *(["relations", name, *args, "--horizon", "300", "--k", "8", "--tau", "1/100"]
          for name, args in searches.items()),
        ["--config", str(tmp_path / "run.ini"), "verify", "rigidity", "--n", "1", "--count", "5"],
    ]
    for argv in commands:
        proc, modules = _imported("-m", "wkseq", *argv)
        assert proc.returncode in (0, 1), (argv, proc.stderr[-300:])
        counts = {m: _tokens(m) for m in modules if m.split(".")[0] == "wkseq"}
        assert "wkseq.cli" in counts and ("wkseq.thmc" in counts) == ("thmC" in argv), argv
        past = {m: n for m, n in counts.items() if n >= COMPILE_CLIFF}
        assert not past, (argv, past)


@pytest.mark.parametrize(
    "argv",
    [
        "wm --n 2",
        "shift-defect --n 2 --m 2 --step 1",
        "rigidity --n 1 --count 2000002",
        "ones --n 1 --window 2000001 --mode scan",
        "returns --n 2",
        "returns --n 2 --samples 1000000000",
    ],
)
def test_oversized_scan_is_refused(argv):
    # the timeout turns a scan that starts anyway into a failure, not a hang
    proc = subprocess.run(
        [sys.executable, "-m", "wkseq", "verify", *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "2000001" in proc.stderr


def test_thmB_short_fixed_point_is_usage_error(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(3)))
    code, out, err = run_cli(
        capsys, "relations", "thmB", "--orbit", "alpha", "--fixed-point", str(path),
        "--pairs", "0:1", "--horizon", "50", "--k", "8", "--tau", "1/4",
    )
    assert code == 2 and out == ""
    assert "fewer than k = 8" in err


def test_repeated_window_file_is_loaded_once(capsys, tmp_path, monkeypatch):
    import wkseq.seqio as seqio

    path = tmp_path / "w.csv"
    path.write_text(dumps_csv(full_shift_transitive_point(400)))
    loads = []

    def counted(p):
        loads.append(p)
        return load_window(p)

    monkeypatch.setattr(seqio, "load_window", counted)
    code, _, _ = run_cli(
        capsys, "relations", "classify", "--a", str(path), "--b", str(path),
        "--shift-b", "1", "--delta", "1", "--horizon", "300", "--k", "8",
        "--tau", "1/100", "--require", "proximal-witnessed",
    )
    assert code == 0 and loads == [str(path)]
    loads.clear()
    code, _, _ = run_cli(
        capsys, "relations", "thmB", "--orbit", str(path), "--fixed-point", str(path),
        "--pairs", "0:1", "--horizon", "300", "--k", "8", "--tau", "1/100",
    )
    assert code == 1 and loads == [str(path)]  # proximity stays unwitnessed


def test_window_file_commands_never_build_the_values(tmp_path, capsys, monkeypatch):
    # SeqWindow.values builds a tuple of every value; gen, the readers and
    # every search on a window file read the codes instead
    csv_path, json_path = tmp_path / "w.csv", tmp_path / "w.json"
    commands = [
        ["gen", "--from", "4860", "--len", "5000", "--out", str(csv_path)],
        ["--format", "json", "gen", "--from", "25000000", "--len", "5000", "--out", str(json_path)],
        ["relations", "classify", "--a", str(csv_path), "--b", "ones", "--delta", "1",
         "--horizon", "4968", "--k", "32", "--tau", "1/100"],
        ["relations", "classify", "--a", str(csv_path), "--b", str(json_path), "--shift-b", "1", "--delta", "1",
         "--horizon", "4900", "--k", "32", "--tau", "1/100"],
        ["relations", "thmB", "--orbit", str(json_path), "--fixed-point", "ones", "--pairs", "0:1,2:5",
         "--horizon", "4000", "--k", "32", "--tau", "1/100"],
        ["relations", "thmC", "--orbit", str(csv_path), "--q", "1", "--delta", "1",
         "--horizon", "4900", "--k", "8", "--tau", "1/100"],
    ]
    expected = [run_cli(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 0, 1]

    def values(self):
        raise AssertionError("SeqWindow.values was read")

    monkeypatch.setattr(wkseq.SeqWindow, "values", property(values))
    for argv, result in zip(commands, expected):
        assert run_cli(capsys, *argv) == result
