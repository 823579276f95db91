import csv
import json
import os
import random
import threading
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_readers

from wkseq import (
    SeqWindow,
    WindowFormatError,
    dumps_csv,
    dumps_json,
    ladder_new,
    load_window,
    loads_csv,
    loads_json,
    render_decimal,
)
from wkseq import readers
from wkseq.seqio import CSV_HEADER, index_text, window_chunks
from wkseq.sequence import alpha_windows

SAMPLE = SeqWindow(41, (F(14, 27), F(0), F(1), F(2, 3)))


def test_csv_shape():
    text = dumps_csv(SAMPLE)
    lines = text.splitlines()
    assert lines[0] == "index,value_num,value_den"
    assert lines[1] == "41,14,27"
    assert lines[4] == "44,2,3"
    assert len(lines) == 5


def test_window_chunks_stream():
    def windows():
        yield SeqWindow(7, (F(1), F(1, 2)))
        raise AssertionError("read past the first window")

    chunks = window_chunks(windows())
    assert next(chunks) == "index,value_num,value_den\n7,1,1\n8,1,2\n"


def _plain_text(offset, values, fmt, decimals=0):
    """A window file's text written one row or entry at a time, as the
    README documents the formats."""
    if fmt == "json":
        entries = ",".join(f'"{v.numerator}/{v.denominator}"' for v in values)
        return f'{{"offset":{offset},"schema":"wk-window/1","values":[{entries}]}}\n'
    rows = ["index,value_num,value_den" + (",value_decimal" if decimals else "")]
    for i, v in enumerate(values, offset):
        row = f"{i},{v.numerator},{v.denominator}"
        if decimals:
            digits = v.numerator * 10**decimals // v.denominator
            row += f",{digits // 10**decimals}.{digits % 10**decimals:0{decimals}d}"
        rows.append(row)
    return "\n".join(rows) + "\n"


def _assert_same_text(got, expected):
    """got == expected, reported at the first character that differs: a
    diff of two long texts would take minutes."""
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    same = got == expected
    assert same, f"at {at}: {got[at - 30:at + 30]!r} against {expected[at - 30:at + 30]!r}"


FORMATS = [("csv", 0), ("csv", 6), ("json", 0)]


@pytest.mark.parametrize("fmt, decimals", FORMATS)
@pytest.mark.parametrize("start, length, block", [
    (5000, 3000, None),  # alpha's 486-period: 80 value objects a window
    (25_000_000, 4096 + 700, None),  # level 2's ramp, mostly distinct, across a block edge
    (200, 1000, 64),  # many blocks, and the step from level 1 to level 2 at 244
])
def test_gen_writes_the_plain_per_row_text(fmt, decimals, start, length, block, capsys, monkeypatch):
    from wkseq import console_main, sequence, walker

    if block:
        monkeypatch.setattr(walker, "STREAM_BLOCK", block)
    flags = ["--format", fmt, "--decimals", str(decimals)]
    assert console_main([*flags, "gen", "--from", str(start), "--len", str(length)]) == 0
    values = sequence.alpha_window(ladder_new("default-minimal"), start, length).values
    _assert_same_text(capsys.readouterr().out, _plain_text(start, values, fmt, decimals))


@pytest.mark.parametrize("fmt, decimals", FORMATS)
def test_window_chunks_write_distinct_and_repeated_objects_alike(fmt, decimals):
    distinct = [F(i, 1009) for i in range(1000)]
    repeated = [distinct[i % 5] for i in range(1000)]
    equal_copies = [F(i % 5, 1009) for i in range(1000)]  # equal values, distinct objects
    for values in (distinct, repeated, equal_copies, distinct[:300] + repeated, repeated[:300] + distinct):
        window = SeqWindow(7, tuple(values))
        _assert_same_text("".join(window_chunks([window], fmt, decimals)), _plain_text(7, values, fmt, decimals))


@pytest.mark.parametrize("decimals", [0, 6])
def test_csv_chunks_hold_at_most_write_rows_rows(decimals):
    from wkseq.seqio import WRITE_ROWS

    distinct = tuple(F(i, 3 * WRITE_ROWS) for i in range(2 * WRITE_ROWS + 5))
    repeated = tuple(distinct[i % 5] for i in range(WRITE_ROWS + 1))
    chunks = list(window_chunks([SeqWindow(7, distinct), SeqWindow(2 * WRITE_ROWS + 12, repeated)], "csv", decimals))
    assert [c.count("\n") for c in chunks] == [WRITE_ROWS + 1, WRITE_ROWS, 5, WRITE_ROWS, 1]
    _assert_same_text("".join(chunks), _plain_text(7, distinct + repeated, "csv", decimals))


@pytest.mark.parametrize("fmt, decimals", FORMATS)
def test_window_chunks_memo_lives_one_window(fmt, decimals):
    # each window's objects are freed once it is written, so a later window's
    # objects may take their ids; its text must still be its own
    def windows():
        for w in range(40):
            unit = [F((w * 7 + j) % 1009, 1009) for j in range(3)]
            yield SeqWindow(100 * w, tuple(unit[i % 3] for i in range(100)))

    expected = [v for w in windows() for v in w.values]
    _assert_same_text("".join(window_chunks(windows(), fmt, decimals)), _plain_text(0, expected, fmt, decimals))


def test_csv_round_trip():
    assert loads_csv(dumps_csv(SAMPLE)) == SAMPLE


def test_csv_decimal_column_is_ignored_on_load():
    text = dumps_csv(SAMPLE, decimals=4)
    assert text.splitlines()[0].endswith(",value_decimal")
    assert ",0.5185" in text
    assert loads_csv(text) == SAMPLE


def test_render_decimal_truncates():
    assert render_decimal(F(14, 27), 4) == "0.5185"
    assert render_decimal(F(2, 3), 2) == "0.66"
    assert render_decimal(F(1), 3) == "1.000"
    with pytest.raises(ValueError):
        render_decimal(F(1), 0)


def test_csv_errors_carry_line_numbers():
    with pytest.raises(WindowFormatError, match="line 1"):
        loads_csv("a,b,c\n1,2,3\n")
    with pytest.raises(WindowFormatError, match="line 3"):
        loads_csv("index,value_num,value_den\n0,1,2\n0,x,2\n")
    with pytest.raises(WindowFormatError, match="line 3"):
        loads_csv("index,value_num,value_den\n0,1,2\n5,1,2\n")
    with pytest.raises(WindowFormatError, match="line 2"):
        loads_csv("index,value_num,value_den\n0,1,0\n")
    with pytest.raises(WindowFormatError, match="outside"):
        loads_csv("index,value_num,value_den\n0,3,2\n")


def test_json_round_trip():
    text = dumps_json(SAMPLE)
    assert '"schema":"wk-window/1"' in text
    assert '"14/27"' in text
    assert loads_json(text) == SAMPLE


def test_json_errors():
    with pytest.raises(WindowFormatError):
        loads_json("{}")
    with pytest.raises(WindowFormatError):
        loads_json('{"schema": "other/9", "offset": 0, "values": ["1/2"]}')
    with pytest.raises(WindowFormatError):
        loads_json('{"schema": "wk-window/1", "offset": 0, "values": ["x"]}')
    with pytest.raises(WindowFormatError):
        loads_json("not json")


def test_load_window_dispatches_on_content(tmp_path):
    c = tmp_path / "w.csv"
    c.write_text(dumps_csv(SAMPLE))
    j = tmp_path / "w.json"
    j.write_text(dumps_json(SAMPLE))
    assert load_window(c) == SAMPLE
    assert load_window(j) == SAMPLE
    # the first non-blank character decides, past blank lines and spaces
    j.write_text("\n \t\n\n  " + dumps_json(SAMPLE))
    assert load_window(j) == SAMPLE
    c.write_text("\n\n" + dumps_csv(SAMPLE))
    with pytest.raises(WindowFormatError, match="line 1: expected header"):
        load_window(c)


def test_csv_file_is_read_as_a_stream(tmp_path):
    # 100 000 rows of alpha, as the benchmark's window file.  The window
    # holds one byte per row, a code into its 24 distinct values, once as it
    # is read and once more as the window is built; with one block's
    # strings that peaked at about 3.8 bytes per row (Python 3.11).  The
    # text of the file (about 1 MB), or a copy of it, is never held whole.
    rows = 100_000
    path = tmp_path / "w.csv"
    with open(path, "w") as fh:
        fh.writelines(window_chunks(alpha_windows(ladder_new(), 4860, rows)))
    tracemalloc.start()
    try:
        window = load_window(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(window) == rows and window.offset == 4860
    assert peak < 6 * rows, peak


def test_json_file_is_read_in_slices(tmp_path):
    # The same 100 000 rows as JSON.  The array is read off the file one
    # slice at a time, so neither the text nor the entries' strings are held
    # whole, and the window holds one byte per row, twice while it is
    # built: that peaked at about 2.2 bytes per row (Python 3.11).  Holding
    # the text took 6 more, a tuple of the values 8 more, and parsing the
    # whole array at once a str per entry, about 66.
    rows = 100_000
    path = tmp_path / "w.json"
    with open(path, "w") as fh:
        fh.writelines(window_chunks(alpha_windows(ladder_new(), 4860, rows), "json"))
    tracemalloc.start()
    try:
        window = load_window(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(window) == rows and window.offset == 4860
    assert peak < 4 * rows, peak


windows = st.builds(
    SeqWindow,
    st.integers(min_value=0, max_value=1000),
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=997),
        min_size=1,
        max_size=40,
    ).map(tuple),
)


@given(w=windows)
def test_round_trips_are_bit_exact(w):
    assert loads_csv(dumps_csv(w)) == w
    assert loads_json(dumps_json(w)) == w
    assert loads_csv(dumps_csv(w, decimals=3)) == w


# -- differential tests against the per-row readers -------------------------

#: Values with repeats, unreduced pairs and both ends of [0, 1].
PAIRS = [(0, 1), (1, 1), (1, 2), (2, 4), (2, 27), (4, 54), (0, 5), (3, 3), (1, 9)]
CSV_FAULTS = ["bad_int", "den_zero", "neg_den", "gap", "out_of_range", "short"]
#: Faults the JSON reader reports as the per-row reader did.
JSON_FAULTS = ["bad_int", "out_of_range", "no_slash", "non_string", "neg_offset"]
#: Faults the JSON reader now rejects with a message of its own.
JSON_FIXES = ["den_zero", "neg_den", "float_offset", "bool_offset", "str_offset", "values_not_array",
              "array_with_slash"]


def _outcome(load, text):
    try:
        w = load(text)
    except WindowFormatError as exc:
        return "error", str(exc), exc.line
    except csv.Error as exc:  # the csv module's own field limit
        return "csv.Error", str(exc), None
    return "window", w.offset, w.values


def _at_block_size(load, text, **sizes):
    """The outcome of `load(text)` with the readers' block sizes set."""
    with pytest.MonkeyPatch.context() as mp:
        for name, size in sizes.items():
            mp.setattr(readers, name, size)
        return _outcome(load, text)


@st.composite
def _rows(draw):
    offset = draw(st.integers(min_value=0, max_value=1000))
    pairs = draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=30))
    at = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    return offset, pairs, at


@given(
    rows=_rows(),
    fault=st.sampled_from([None, *CSV_FAULTS]),
    column=st.integers(min_value=0, max_value=2),
    bad=st.sampled_from(["x", "1.5", "", "0x1"]),
    decimals=st.booleans(),
    blanks=st.sets(st.integers(min_value=0, max_value=30), max_size=4),
    block=st.integers(min_value=1, max_value=4),
)
@settings(deadline=None)
def test_csv_reader_matches_per_row_reader(rows, fault, column, bad, decimals, blanks, block):
    offset, pairs, at = rows
    lines = [",".join(CSV_HEADER + ("value_decimal",) * decimals)]
    for i, (num, den) in enumerate(pairs):
        fields = [str(offset + i), str(num), str(den)]
        if i == at:
            if fault == "bad_int":
                fields[column] = bad
            elif fault == "den_zero":
                fields[2] = "0"
            elif fault == "neg_den":
                fields[1:] = ["-1", "-2"]
            elif fault == "gap":
                fields[0] = str(offset + i + 1)
            elif fault == "out_of_range":
                fields[1:] = ["3", "2"] if column else ["-1", "2"]
            elif fault == "short":
                fields = fields[:1 + column % 2]
        if decimals and len(fields) == 3:
            fields.append("0.500")
        lines.append(",".join(fields))
    for b in sorted(blanks, reverse=True):
        lines.insert(1 + min(b, len(lines) - 1), "")
    text = "\n".join(lines) + "\n"
    got = _outcome(loads_csv, text)
    assert got == _outcome(reference_readers.loads_csv, text)
    # blocks of a few rows put block edges, and faults, past the first block
    assert _at_block_size(loads_csv, text, CSV_BLOCK=block) == got
    # a one-row file has no index to break contiguity with
    assert (got[0] == "window") == (fault is None or (fault == "gap" and len(pairs) == 1))


@given(
    rows=_rows(),
    fault=st.sampled_from([None, *JSON_FAULTS, *JSON_FIXES]),
    bad=st.sampled_from(["x/2", "1/x", "1.5/2", "/2", "1/"]),
    entry=st.sampled_from([5, 0.5, None, True, [1, 2], {"a": 1}]),
    compact=st.booleans(),
    piece=st.integers(min_value=1, max_value=16),
)
@settings(deadline=None)
def test_json_reader_matches_per_row_reader(rows, fault, bad, entry, compact, piece):
    offset, pairs, at = rows
    values = [f"{num}/{den}" for num, den in pairs]
    fault_value = {"bad_int": bad, "out_of_range": "3/2", "no_slash": "1",
                   "non_string": entry, "den_zero": "1/0", "neg_den": "-1/-2",
                   "array_with_slash": ["1/2"]}
    if fault in fault_value:
        values[at] = fault_value[fault]
    doc = {"schema": "wk-window/1", "offset": offset, "values": values}
    doc["offset"] = {"neg_offset": -1 - offset, "float_offset": offset + 0.5,
                     "bool_offset": True, "str_offset": str(offset)}.get(fault, offset)
    if fault == "values_not_array":
        doc["values"] = values[0]
    text = json.dumps(doc, separators=(",", ":") if compact else None)
    got = _outcome(loads_json, text)
    # slices of 1 to 16 characters hold one to a few entries each
    assert _at_block_size(loads_json, text, JSON_SLICE=piece) == got
    if fault not in JSON_FIXES:
        assert got == _outcome(reference_readers.loads_json, text)
        assert (got[0] == "window") == (fault is None)
        return
    # the per-row reader crashed on "1/0", read "-1/-2" as 1/2, truncated
    # a float offset, read true as 1 and a string offset as its integer,
    # iterated the characters of a string in place of an array, and parsed
    # the text of an array entry that held a slash
    message = {
        "den_zero": "denominator must be positive",
        "neg_den": "denominator must be positive",
        "float_offset": f"offset must be an integer, got {offset + 0.5!r}",
        "bool_offset": "offset must be an integer, got True",
        "str_offset": f"offset must be an integer, got {str(offset)!r}",
        "values_not_array": '"values" must be an array',
        "array_with_slash": "expected num/den, got ['1/2']",
    }[fault]
    assert got == ("error", message, None)
    if fault == "den_zero":
        with pytest.raises(ZeroDivisionError):
            reference_readers.loads_json(text)
    elif fault == "array_with_slash":
        message = "invalid literal for int() with base 10: " + repr("['1")
        assert _outcome(reference_readers.loads_json, text) == ("error", message, None)
    elif fault != "values_not_array":
        assert _outcome(reference_readers.loads_json, text)[0] == "window"


@pytest.mark.parametrize("block", [None, 2])
def test_readers_report_the_first_value_outside_the_range(block, monkeypatch):
    # each distinct value is checked once, in the order of its first row
    if block:
        monkeypatch.setattr(readers, "CSV_BLOCK", block)
        monkeypatch.setattr(readers, "JSON_SLICE", block)
    texts = ["1/2", "1/3", "5/4", "1/2", "3/2", "5/4", "1/3"]
    rows = "".join(f"{i},{t.replace('/', ',')}\n" for i, t in enumerate(texts))
    doc = {"schema": "wk-window/1", "offset": 0, "values": texts}
    for load, text in ((loads_csv, "index,value_num,value_den\n" + rows), (loads_json, json.dumps(doc)),
                       # the exact paths
                       (loads_csv, "index,value_num,value_den\n\n" + rows), (loads_json, json.dumps(doc, indent=1))):
        with pytest.raises(WindowFormatError, match=r"^window value 5/4 outside \[0, 1\]$"):
            load(text)


def test_readers_share_one_code_per_distinct_value():
    w = loads_csv("index,value_num,value_den\n0,1,2\n1,0,1\n2,1,2\n3,2,4\n4,0,1\n")
    assert w.values == (F(1, 2), 0, F(1, 2), F(1, 2), 0)
    # "2,4" is other text for the same value: it shares the code of "1,2"
    assert w._codes == bytes([0, 1, 0, 0, 1]) and w._distinct == (F(1, 2), 0)
    assert w.values[0] is w.values[3]
    # the writer formats the shared values once each and writes every row
    assert dumps_csv(w) == "index,value_num,value_den\n0,1,2\n1,0,1\n2,1,2\n3,1,2\n4,0,1\n"
    w = loads_json('{"schema": "wk-window/1", "offset": 0, "values": ["0/1", "1/3", "0/1", "2/6"]}')
    assert w._codes == bytes([0, 1, 0, 1])
    assert dumps_json(w) == '{"offset":0,"schema":"wk-window/1","values":["0/1","1/3","0/1","1/3"]}\n'


# -- the block paths against the exact path ---------------------------------

HEADER = "index,value_num,value_den\n"
ROWS = "".join(f"{i},{i % 3},3\n" for i in range(7, 13))
#: (CSV text, whether every block of it takes the block path)
CSV_SHAPES = {
    "canonical": (HEADER + ROWS, True),
    "decimals": (dumps_csv(SAMPLE, decimals=4), True),
    "trailing_comma": (HEADER + ROWS.replace("\n", ",\n"), True),
    "quoted": (HEADER + ROWS.replace("9,0,3", '9,"0",3'), False),
    "crlf": (HEADER + ROWS.replace("\n", "\r\n"), False),
    "spaces": (HEADER + ROWS.replace(",", ", "), False),
    "underscore": (HEADER + ROWS.replace("10,1,3", "10,1_0,30"), False),
    "arabic_indic": (HEADER + ROWS.replace("11,2,3", "11,2,\u0663"), False),
    "leading_zero": (HEADER + ROWS.replace("12,0,3", "012,0,3"), False),
    "no_final_newline": (HEADER + ROWS.rstrip("\n"), False),
    "blank_lines": (HEADER + "\n" + ROWS.replace("9,0,3\n", "9,0,3\n\n\n") + "\n", False),
    "ragged": (HEADER + ROWS.replace("9,0,3", "9,0,3,0.0,x"), False),
    "sign": (HEADER + ROWS.replace("8,2,3", "8,+2,3"), False),
    "empty_field": (HEADER + ROWS.replace("8,2,3", "8,,3"), False),
    "decimal_point": (HEADER + ROWS.replace("8,2,3", "8,2.0,3"), False),
    "den_zero": (HEADER + ROWS.replace("9,0,3", "9,0,0"), False),
    "gap": (HEADER + ROWS.replace("10,1,3", "11,1,3"), False),
    "out_of_range": (HEADER + ROWS.replace("11,2,3", "11,4,3"), True),
    "huge_numerator": (HEADER + ROWS.replace("11,2,3", "11," + "1" * 5000 + ",3"), False),
    "huge_index": (HEADER + "1" * 5000 + ",1,3\n" + ROWS, False),
    "field_limit": (HEADER + ROWS.replace("11,2,3", "11,2,3,1." + "5" * csv.field_size_limit()), False),
}


def _block_paths(monkeypatch, name):
    """Record each call's result of readers.`name`; None means the exact path."""
    results = []
    block = getattr(readers, name)

    def spy(*args):
        results.append(block(*args))
        return results[-1]

    monkeypatch.setattr(readers, name, spy)
    return results


@pytest.mark.parametrize("shape", CSV_SHAPES)
def test_csv_block_path_matches_the_exact_path(shape, tmp_path, monkeypatch):
    text, canonical = CSV_SHAPES[shape]
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    blocks = _block_paths(monkeypatch, "_csv_block")
    got = _outcome(loads_csv, text)
    assert all(blocks) == canonical and len(blocks) > 0
    for size in (1, 2, 3, 4):
        assert _at_block_size(loads_csv, text, CSV_BLOCK=size) == got
    # a file on disk is read with universal newlines: CRLF lines take the
    # block path there, to the same window
    del blocks[:]
    assert _outcome(load_window, path) == got
    assert all(blocks) == (canonical or shape == "crlf")
    monkeypatch.setattr(readers, "_csv_block", lambda *args: None)
    assert _outcome(loads_csv, text) == got
    assert _outcome(reference_readers.loads_csv, text) == got
    expected_window = {"canonical", "decimals", "trailing_comma", "quoted", "crlf", "spaces",
                       "underscore", "arabic_indic", "leading_zero", "no_final_newline",
                       "blank_lines", "ragged", "sign"}
    assert (got[0] == "window") == (shape in expected_window), got


@pytest.mark.parametrize("start", [0, 1, 998, 999, 1000, 1001, 9_999, 10_000, 999_999, 10**6,
                                   10**20 - 1001, 10**20 - 1, 10**20, 10**20 + 999, -1001, -1])
@pytest.mark.parametrize("count", [0, 1, 2, 999, 1000, 1001, 2001])
def test_index_text_matches_a_plain_join(start, count):
    assert index_text(start, count) == ",".join(map(str, range(start, start + count)))


@given(start=st.one_of(st.integers(0, 10**7), st.integers(10**20 - 3000, 10**20 + 3000)),
       count=st.integers(0, 3000))
@settings(deadline=None)
def test_index_text_matches_a_plain_join_anywhere(start, count):
    assert index_text(start, count) == ",".join(map(str, range(start, start + count)))


#: Rows 990 .. 2010 as gen writes them, and with one index in another text:
#: those take the exact path, which reads a leading zero and refuses a
#: decimal point or a gap.
ACROSS_1000 = HEADER + "".join(f"{i},{i % 3},3\n" for i in range(990, 2011))
INDEX_TEXTS = {"canonical": "1000", "leading_zero": "01000", "decimal": "1000.0", "point": "1000.",
               "leading_zero_2000": "02000", "off_by_one": "1001"}


@pytest.mark.parametrize("name", INDEX_TEXTS)
def test_csv_block_indices_across_thousands(name, monkeypatch):
    old = "2000" if name.endswith("2000") else "1000"
    text = ACROSS_1000.replace(f"\n{old},", f"\n{INDEX_TEXTS[name]},", 1)
    blocks = _block_paths(monkeypatch, "_csv_block")
    got = _outcome(loads_csv, text)
    assert all(blocks) == (name == "canonical")
    assert got == _outcome(reference_readers.loads_csv, text)
    assert (got[0] == "window") == (name in {"canonical", "leading_zero", "leading_zero_2000"})
    for size in (1, 7, 64, 1000):  # block edges on and around each thousand
        assert _at_block_size(loads_csv, text, CSV_BLOCK=size) == got


def test_csv_errors_keep_their_line_past_the_first_blocks():
    text = HEADER + "".join(f"{i},1,2\n" for i in range(40)) + "40,1,0\n"
    for size in (1, 3, 1024):
        assert _at_block_size(loads_csv, text, CSV_BLOCK=size) == (
            "error", "line 42: denominator must be positive", 42)


DOC = {"schema": "wk-window/1", "offset": 3, "values": ["1/2", "0/1", "1/2", "2/4", "1/1"]}
#: (JSON text, whether it takes the block path)
JSON_SHAPES = {
    "gen": (dumps_json(SeqWindow(3, (F(1, 2), F(0), F(1, 2), F(2, 4), F(1)))), True),
    "dumps": (json.dumps(DOC), True),
    "compact": (json.dumps(DOC, separators=(",", ":")), True),
    "key_order": (json.dumps(dict(reversed(DOC.items()))), True),
    "mixed_separators": (json.dumps(DOC).replace('"0/1", "1/2"', '"0/1","1/2"'), False),
    "indent": (json.dumps(DOC, indent=1), False),
    "escape": (json.dumps(DOC).replace('"1/2"', '"\\u0031/2"', 1), False),
    "values_twice": ('{"schema": "wk-window/1", "offset": 3, "values": 5, "values": ["1/2"]}', True),
    "values_twice_last_not_array": (
        '{"schema": "wk-window/1", "offset": 3, "values": ["1/2"], "values": 5}', False),
    "bracket_in_string": (json.dumps({"note": "[", **DOC}), False),
    "close_bracket_in_string": (json.dumps({"note": "]", **DOC}), True),
    "open_bracket_after_array": (json.dumps({**DOC, "note": "["}), True),
    "brackets_only_in_strings": ('{"schema": "wk-window/1", "offset": 3, "values": "[", "x": "]"}', False),
    "extra_array": (json.dumps({**DOC, "extra": [1]}), False),
    "empty_array": (json.dumps({**DOC, "values": []}), False),
    "trailing_comma": (json.dumps(DOC).replace('"1/1"]', '"1/1",]'), False),
    "missing_comma": (json.dumps(DOC).replace('"0/1", ', '"0/1" '), False),
    "den_zero": (json.dumps({**DOC, "values": ["1/2", "1/0"]}), False),
    "no_slash": (json.dumps({**DOC, "values": ["1/2", "12"]}), False),
    "two_slashes": (json.dumps({**DOC, "values": ["1/2", "1/2/3"]}), False),
    "out_of_range": (json.dumps({**DOC, "values": ["3/2"]}), False),
    "huge_numerator": (json.dumps({**DOC, "values": ["1/2", "1" * 5000 + "/3"]}), False),
    "bad_offset": (json.dumps({**DOC, "offset": 1.5}), False),
    # the array's syntax error comes first, as json.loads reads the text
    "huge_offset_after_bad_array": (
        '{"schema": "wk-window/1", "values": ["1/2", x], "offset": 1' + "0" * 5000 + "}", False),
    "no_schema": (json.dumps({"offset": 3, "values": ["1/2"]}), False),
}


@pytest.mark.parametrize("shape", JSON_SHAPES)
def test_json_block_path_matches_the_exact_path(shape, monkeypatch):
    text, canonical = JSON_SHAPES[shape]
    blocks = _block_paths(monkeypatch, "_json_blocks")
    got = _outcome(loads_json, text)
    assert (blocks[0] is not None) == canonical
    for size in (1, 4, 8, 12):
        assert _at_block_size(loads_json, text, JSON_SLICE=size) == got
    monkeypatch.setattr(readers, "_json_blocks", lambda text: None)
    assert _outcome(loads_json, text) == got
    expected_window = {"gen", "dumps", "compact", "key_order", "mixed_separators", "indent",
                       "escape", "values_twice", "bracket_in_string", "close_bracket_in_string",
                       "open_bracket_after_array", "extra_array"}
    assert (got[0] == "window") == (shape in expected_window), got


# -- a CSV block that fails, then blocks again ------------------------------

LONG_ROWS = "".join(f"{i},{i % 3},3\n" for i in range(400))
#: CSV texts in canonical shape but for one or two lines
CSV_DETOURS = {
    "blank_after_header": HEADER + "\n" + LONG_ROWS,
    "quoted": HEADER + LONG_ROWS.replace("\n30,0,3\n", '\n30,"0",3\n'),
    # the quoted field spans two lines, so a block may end inside it
    "quoted_newline": HEADER + LONG_ROWS.replace("\n30,0,3\n", '\n30,"0\n",3\n'),
    "crlf_row": HEADER + LONG_ROWS.replace("\n30,0,3\n", "\n30,0,3\r\n"),
    "unterminated_quote": HEADER + LONG_ROWS + '400,"1,3\n401,1,3\n',
    "bad_row_after_detour": HEADER + "\n" + LONG_ROWS.replace("\n300,0,3\n", "\n300,0,x\n"),
    "gap_after_detour": HEADER + "\n" + LONG_ROWS.replace("\n300,0,3\n", "\n301,0,3\n"),
    "blank_and_ragged_later": HEADER + LONG_ROWS.replace("\n200,2,3\n", "\n\n200,2,3,x\n\n"),
}


@pytest.mark.parametrize("shape", CSV_DETOURS)
def test_csv_blocks_resume_after_a_detour(shape, tmp_path, monkeypatch):
    # the rows of a block that is not in canonical shape go to the exact
    # path; the next block tries the block path again, to the same window,
    # error and line number as the exact path over the whole file
    text = CSV_DETOURS[shape]
    expected = _outcome(reference_readers.loads_csv, text)
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    blocks = _block_paths(monkeypatch, "_csv_block")
    for size in (*range(1, 40), 64, 100, 256, 1 << 14):
        assert _at_block_size(loads_csv, text, CSV_BLOCK=size) == expected, size
        assert _at_block_size(load_window, path, CSV_BLOCK=size) == expected, size
    if expected[0] != "window":
        return
    # some 30 rows a block: only the block that holds the detour fails (or
    # two, where it spans a block end), and the blocks after it pass
    del blocks[:]
    assert _at_block_size(loads_csv, text, CSV_BLOCK=256) == expected
    failed = [i for i, b in enumerate(blocks) if b is None]
    assert len(blocks) > 10 and 1 <= len(failed) <= 2 and failed[-1] - failed[0] == len(failed) - 1


def test_csv_detour_at_the_top_costs_one_block():
    # a blank line after the header sends one block to the exact path
    text = HEADER + "\n" + "".join(f"{i},{i % 7},7\n" for i in range(5000))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        block = readers._csv_block
        mp.setattr(readers, "_csv_block", lambda *a: calls.append(block(*a)) or calls[-1])
        mp.setattr(readers, "CSV_BLOCK", 1024)
        got = _outcome(loads_csv, text)
    assert got == _outcome(reference_readers.loads_csv, text)
    assert calls[0] is None and all(calls[1:]) and len(calls) > 40


# -- coded windows ----------------------------------------------------------


def _csv_text(pairs, sep=","):
    return HEADER + "".join(f"{i}{sep}{n}{sep}{d}\n" for i, (n, d) in enumerate(pairs))


def _json_text(pairs, sep=", ", indent=None):
    if indent is not None:
        return json.dumps({"schema": "wk-window/1", "offset": 0, "values": [f"{n}/{d}" for n, d in pairs]},
                          indent=indent)
    entries = sep.join(f'"{n}/{d}"' for n, d in pairs)
    return f'{{"offset": 0, "schema": "wk-window/1", "values": [{entries}]}}'


@pytest.mark.parametrize("distinct", [255, 256, 257, 300])
def test_codes_widen_past_256_distinct_values(distinct):
    # each distinct value first appears in order, and then at random, so the
    # codes past 255 fall anywhere in a block, on the block and exact paths
    rng = random.Random(distinct)
    values = [F(i, distinct) for i in range(distinct)]
    values += [rng.choice(values) for _ in range(600)]
    pairs = [v.as_integer_ratio() for v in values]
    texts = [(loads_csv, reference_readers.loads_csv, _csv_text(pairs)),
             (loads_csv, reference_readers.loads_csv, _csv_text(pairs, ", ")),
             (loads_json, reference_readers.loads_json, _json_text(pairs)),
             (loads_json, reference_readers.loads_json, _json_text(pairs, indent=1))]
    for load, reference, text in texts:
        expected = _outcome(reference, text)
        assert expected[0] == "window" and _outcome(load, text) == expected
        for size in (1, 7, 64, 700):
            assert _at_block_size(load, text, CSV_BLOCK=size, JSON_SLICE=size) == expected, size
        w = load(text)
        assert len(w._distinct) == distinct
        assert isinstance(w._codes, bytearray) if distinct <= 256 else w._codes.typecode == "H"
    # the constructor codes objects: here one per value
    w = SeqWindow(0, values)
    assert w.values == tuple(values) and len(w._distinct) == distinct
    assert isinstance(w._codes, bytearray) if distinct <= 256 else w._codes.typecode == "H"


@pytest.mark.parametrize("distinct", [1 << 16, (1 << 16) + 1])
def test_codes_widen_past_65536_distinct_values(distinct):
    values = [F(i, distinct) for i in range(distinct)] + [F(0), F(1, distinct), F(distinct - 1, distinct)]
    text = _json_text([v.as_integer_ratio() for v in values], ",")
    w = loads_json(text)
    assert w == reference_readers.loads_json(text) and len(w._distinct) == distinct
    assert w._codes.typecode == ("H" if distinct <= 1 << 16 else "I")
    assert list(w._codes[-3:]) == [0, 1, distinct - 1]


#: 1/2 and 0 written several ways each, and 1/3 twice
EQUAL_TEXTS = ["1/2", "0/1", "2/4", "01/2", "0/5", "50/100", "1/3", "2/6", "00/7"]


@pytest.mark.parametrize("exact", [False, True])
def test_equal_values_share_a_code_whatever_their_text(exact, monkeypatch):
    texts = EQUAL_TEXTS * 40
    csv_text = HEADER + "\n" * exact + "".join(f"{i},{t.replace('/', ',')}\n" for i, t in enumerate(texts))
    doc = {"schema": "wk-window/1", "offset": 0, "values": texts}
    json_text = json.dumps(doc, indent=1 if exact else None)
    for load, reference, text, name in ((loads_csv, reference_readers.loads_csv, csv_text, "_csv_block"),
                                        (loads_json, reference_readers.loads_json, json_text, "_json_blocks")):
        blocks = _block_paths(monkeypatch, name)
        w = load(text)
        # a blank line after the header, or an indented array, takes the exact path
        assert (None in blocks) == exact and blocks
        assert ("window", w.offset, w.values) == _outcome(reference, text)
        assert w._distinct == (F(1, 2), F(0), F(1, 3))
        assert w._codes == bytes([0, 1, 0, 0, 1, 0, 2, 2, 1]) * 40


@pytest.mark.parametrize("sep", [",", ", "])
def test_json_slices_cut_at_every_entry_boundary(sep, monkeypatch):
    # entries of 5 to 9 characters: with every slice size from 1 to 40, a
    # slice ends at every character of an entry and of its separator, right
    # after `",` among them, and every slice takes the block path
    pairs = [(i % 7, 7) if i % 3 else (i % 97, 97) if i % 2 else (i % 997, 997) for i in range(120)]
    text = _json_text(pairs, sep)
    expected = _outcome(reference_readers.loads_json, text)
    assert expected[0] == "window"
    blocks = _block_paths(monkeypatch, "_json_blocks")
    for size in range(1, 41):
        assert _at_block_size(loads_json, text, JSON_SLICE=size) == expected, size
        assert blocks[-1] is not None, size


@pytest.mark.parametrize("tail", ['"note": "]"', '"extra": [1]', '"note": "a]b", "x": []', '"x": {"y": "]"}'])
def test_json_tail_with_another_bracket_takes_the_exact_path(tail, tmp_path, monkeypatch):
    text = '{"schema": "wk-window/1", "offset": 2, "values": ["1/2", "1/3", "2/4"], ' + tail + "}"
    path = tmp_path / "w.json"
    path.write_text(text)
    expected = _outcome(reference_readers.loads_json, text)
    assert expected[0] == "window"
    blocks = _block_paths(monkeypatch, "_json_blocks")
    for size in (1, 4, 9, 4096):
        assert _at_block_size(loads_json, text, JSON_SLICE=size) == expected
        assert _at_block_size(load_window, path, JSON_SLICE=size) == expected
    assert blocks == [None] * 8


@pytest.mark.parametrize("lead", ["\n", "\n\n\n", " \t\n", "\n" * 100, " " * 70 + "\n", " " * 200])
def test_leading_blank_lines_before_a_header_or_a_document(lead, tmp_path):
    # the first non-blank character decides, however far in it is
    path = tmp_path / "w"
    for text, reference in ((lead + dumps_csv(SAMPLE), reference_readers.loads_csv),
                            (lead + dumps_json(SAMPLE), reference_readers.loads_json),
                            (lead + json.dumps({"schema": "wk-window/1", "offset": 41, "values": ["1/2"]}, indent=1),
                             reference_readers.loads_json)):
        path.write_text(text)
        assert _outcome(load_window, path) == _outcome(reference, text)
    path.write_text(lead)
    assert _outcome(load_window, path) == _outcome(reference_readers.loads_csv, lead)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_window_reads_a_pipe_whole(tmp_path):
    # the readers go back to a file's start, so a pipe is read whole first:
    # the same window, error and line number as the file
    pipe, path = tmp_path / "pipe", tmp_path / "w"
    os.mkfifo(pipe)
    texts = [dumps_csv(SAMPLE), "\n" + dumps_json(SAMPLE), json.dumps(DOC, indent=1), HEADER + "0,1,2\n1,1,0\n"]
    for text in texts:
        path.write_text(text)
        writer = threading.Thread(target=pipe.write_text, args=(text,))
        writer.start()
        try:
            assert _outcome(load_window, pipe) == _outcome(load_window, path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
