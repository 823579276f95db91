from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import full_shift_rigidity_witness, full_shift_transitive_point
from wkseq import DistBracket, SeqWindow, alpha, alpha_window, ladder_new
from wkseq.brackets import bracket_scan


@pytest.fixture(scope="module")
def lad():
    return ladder_new("default-minimal")


def test_window_validation():
    with pytest.raises(ValueError):
        SeqWindow(0, ())
    with pytest.raises(ValueError):
        SeqWindow(-1, (F(0),))
    with pytest.raises(ValueError):
        SeqWindow(0, (F(3, 2),))


def test_bracket_validation():
    DistBracket(F(0), F(2))
    with pytest.raises(ValueError):
        DistBracket(F(1), F(1, 2))
    with pytest.raises(ValueError):
        DistBracket(F(-1), F(1))
    with pytest.raises(ValueError):
        DistBracket(F(1), F(5, 2))


def test_alpha_first_indices(lad):
    assert [alpha(lad, i) for i in range(10)] == [0, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    assert alpha(lad, 41) == F(14, 27)
    with pytest.raises(Exception):
        alpha(lad, -1)


def test_alpha_matches_limit_evaluator(lad):
    for i in range(0, 600, 7):
        assert alpha(lad, i) == oracles.seq_value(i)


def test_alpha_window_basic(lad):
    w = alpha_window(lad, 54, 28)
    assert w.offset == 54
    assert set(w.values) == {F(1)}
    assert alpha_window(lad, 0, 1).values == (F(0),)
    w2 = alpha_window(lad, 161, 4)
    assert w2.values == (0, 0, 1, 1)
    assert w2.values[0] == alpha(lad, 0 + 161)


def bracket(x, y):
    """The distance bracket of two prefixes, compared on the shorter length."""
    return bracket_scan([(x, y)], 1, min(len(x), len(y)), True)[1]


def test_bracket_of_identical_windows():
    w = (F(1, 3),) * 6
    br = bracket(w, w)
    assert br.lo == 0 and br.hi == F(2) ** -5


def test_bracket_of_opposite_constants():
    br = bracket((F(0),) * 9, (F(1),) * 9)
    assert br.lo == 2 - F(2) ** -8
    assert br.hi == 2


def test_bracket_single_difference():
    br = bracket((F(1),) + (F(0),) * 7, (F(0),) * 8)
    assert br.lo == 1 and br.hi == 1 + F(1, 128)


def test_bracket_uses_shorter_length():
    assert bracket((F(0),) * 3, (F(0),) * 10).hi == F(2) ** -2


def test_transitive_fixture_prefix():
    assert full_shift_transitive_point(6).values == (0, 1, 0, 0, 0, 1)


def test_transitive_fixture_contains_all_short_words():
    bits = "".join(
        str(int(v)) for v in full_shift_transitive_point(100).values
    )
    for length in (1, 2, 3):
        for w in range(2**length):
            assert format(w, f"0{length}b") in bits


def test_transitive_fixture_contains_ten_zeros():
    bits = "".join(
        str(int(v)) for v in full_shift_transitive_point(12000).values
    )
    assert bits.find("0" * 10) == 258


def test_rigidity_witness_pattern():
    assert full_shift_rigidity_witness(1, 6).values == (0, 1, 0, 1, 0, 1)
    w = full_shift_rigidity_witness(2, 32)
    assert w.values[:8] == (0, 0, 1, 1, 0, 0, 1, 1)
    br = bracket(w.values[:30], w.values[2:])
    assert br.lo == 2 - F(2) ** -29
    with pytest.raises(ValueError):
        full_shift_rigidity_witness(3, 5)


def test_rigidity_witness_every_coordinate_flips():
    for n in (1, 2, 4):
        w = full_shift_rigidity_witness(n, 8 * n)
        assert all(
            abs(w.values[i + n] - w.values[i]) == 1
            for i in range(len(w.values) - n)
        )


values01 = st.fractions(min_value=0, max_value=1, max_denominator=16)
windows = st.lists(values01, min_size=1, max_size=24).map(tuple)


@given(x=windows, y=windows)
def test_bracket_symmetry_and_width(x, y):
    k = min(len(x), len(y))
    br = bracket(x, y)
    rev = bracket(y, x)
    assert br == rev
    assert br.hi - br.lo == F(2) ** (1 - k)
    assert br.lo == oracles.naive_bracket_lo(x.__getitem__, y.__getitem__, 0, k)


@given(x=windows, y=windows, z=windows)
@settings(max_examples=60)
def test_bracket_lo_triangle_on_common_length(x, y, z):
    k = min(len(x), len(y), len(z))
    xy = bracket(x[:k], y[:k]).lo
    yz = bracket(y[:k], z[:k]).lo
    xz = bracket(x[:k], z[:k]).lo
    assert xz <= xy + yz
