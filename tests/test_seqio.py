from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from wkseq.seqio import window_chunks

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
