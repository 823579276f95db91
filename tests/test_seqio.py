import json
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
    load_window,
    loads_csv,
    loads_json,
    render_decimal,
)
from wkseq.seqio import CSV_HEADER, window_chunks

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
    return "window", w.offset, w.values


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
)
@settings(deadline=None)
def test_csv_reader_matches_per_row_reader(rows, fault, column, bad, decimals, blanks):
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
    # a one-row file has no index to break contiguity with
    assert (got[0] == "window") == (fault is None or (fault == "gap" and len(pairs) == 1))


@given(
    rows=_rows(),
    fault=st.sampled_from([None, *JSON_FAULTS, *JSON_FIXES]),
    bad=st.sampled_from(["x/2", "1/x", "1.5/2", "/2", "1/"]),
    entry=st.sampled_from([5, 0.5, None, True, [1, 2], {"a": 1}]),
)
@settings(deadline=None)
def test_json_reader_matches_per_row_reader(rows, fault, bad, entry):
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
    text = json.dumps(doc)
    got = _outcome(loads_json, text)
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


def test_readers_share_one_object_per_distinct_text():
    w = loads_csv("index,value_num,value_den\n0,1,2\n1,0,1\n2,1,2\n3,2,4\n4,0,1\n")
    assert w.values == (F(1, 2), 0, F(1, 2), F(1, 2), 0)
    assert w.values[0] is w.values[2] and w.values[1] is w.values[4]
    assert w.values[3] is not w.values[0]  # "2,4" is other text for the same value
    w = loads_json('{"schema": "wk-window/1", "offset": 0, "values": ["0/1", "1/3", "0/1"]}')
    assert w.values[0] is w.values[2]
