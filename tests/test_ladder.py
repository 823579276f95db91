from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import profile
from wkseq import (
    DomainError,
    LadderDepthError,
    ScheduleViolationError,
    eval_ainf,
    eval_b,
    ladder_new,
)

rationals = st.fractions(
    min_value=F(-2000), max_value=F(2000), max_denominator=64
)


@pytest.fixture
def lad():
    return ladder_new("default-minimal", depth=2)


def test_default_minimal_sizes():
    lad = ladder_new("default-minimal", depth=4)
    assert [lad.L(n) for n in range(1, 5)] == [
        9,
        59049,
        129140163**2,
        19383245667680019896796723**2,
    ]
    assert [lad.p(n) for n in range(3)] == [3, 243, 129140163]
    assert lad.p(3) == 19383245667680019896796723
    p_ref, _ = oracles.tower(4)
    assert lad.p(4) == p_ref[4]


def test_growth_rule_holds_at_every_level():
    lad = ladder_new("default-minimal", depth=4)
    for n in range(1, 5):
        assert lad.L(n) >= lad.p(n - 1) ** 2
        assert lad.p(n) == 9 * lad.L(n) * lad.p(n - 1)


def test_explicit_schedule_is_honored_then_extended():
    lad = ladder_new([10, 100000], depth=3)
    assert lad.L(1) == 10
    assert lad.p(1) == 270
    assert lad.L(2) == 100000
    assert lad.L(3) == lad.p(2) ** 2


def test_undersized_schedule_entry_is_rejected():
    with pytest.raises(ScheduleViolationError):
        ladder_new([8], depth=1)
    with pytest.raises(ScheduleViolationError):
        ladder_new([9, 243**2 - 1], depth=2)


def test_depth_is_lazy_and_require_raises(lad):
    assert lad.depth == 2
    with pytest.raises(LadderDepthError):
        lad.require(3)
    lad.ensure(3)
    lad.require(3)


def test_epsilon_and_splice(lad):
    assert lad.epsilon(1) == 1
    assert lad.epsilon(2) == F(1, 2)
    with pytest.raises(DomainError):
        lad.epsilon(0)
    assert lad.splice(1) == 81
    assert lad.splice(2) == 43046721
    assert lad.stretch(1) == 27


def test_base_profile_cases(lad):
    assert profile(lad, 0, 0) == 0
    assert profile(lad, 0, 1) == 0
    assert profile(lad, 0, F(3, 2)) == F(1, 2)
    assert profile(lad, 0, 2) == 1
    assert profile(lad, 0, 3) == 1
    assert profile(lad, 0, 4) == 0
    assert profile(lad, 0, F(-5, 2)) == 1


def test_periodized_base_cases(lad):
    assert eval_b(lad, 0, 4) == 1
    assert eval_b(lad, 0, 6) == 0
    assert eval_b(lad, 0, -7) == 0
    assert eval_b(lad, 0, 83) == 0
    assert eval_b(lad, 0, F(9, 2)) == F(1, 2)


def test_copy_level_is_a_stretch(lad):
    # level n lays the periodized base, stretched by stretch(n), over the
    # periodized level below, so the profile is at least the copy there
    for n, t, copy in ((1, 54, 1), (1, 27, 0), (2, 2 * lad.stretch(2), 1)):
        assert eval_b(lad, 0, F(t, lad.stretch(n))) == copy
        assert profile(lad, n, t) >= copy
    with pytest.raises(DomainError):
        lad.stretch(0)


def test_level_evaluation_spec_points(lad):
    assert profile(lad, 1, 4) == 1
    assert profile(lad, 1, 82) == 1
    assert profile(lad, 1, 243) == 1
    assert profile(lad, 1, -243) == 1
    assert profile(lad, 0, F(3, 2)) == F(1, 2)


def test_periodized_levels(lad):
    assert eval_b(lad, 0, 83) == 0
    assert eval_b(lad, 1, -243) == 1
    assert eval_b(lad, 1, 486) == 0
    assert eval_b(lad, 1, 487) == eval_b(lad, 1, 1)


def test_limit_matches_oracle_on_a_window():
    lad = ladder_new("default-minimal")
    for t in range(-300, 301):
        assert eval_ainf(lad, t) == oracles.limit_value(t)


def test_limit_auto_deepens_for_huge_arguments():
    lad = ladder_new("default-minimal")
    assert eval_ainf(lad, 10**30) == 1
    assert lad.depth == 4
    assert eval_ainf(lad, 10**30) == oracles.limit_value(10**30)


def test_localization_across_levels(lad):
    lad.ensure(3)
    for t in range(-243, 244):
        v = profile(lad, 1, t)
        assert profile(lad, 2, t) == v
        assert profile(lad, 3, t) == v
        assert eval_ainf(lad, t) == v


def test_seam_values_are_one(lad):
    for n in range(3):
        assert profile(lad, n, lad.p(n)) == 1
        assert profile(lad, n, -lad.p(n)) == 1


@given(t=rationals)
def test_base_range_and_symmetry(t):
    lad = ladder_new("default-minimal")
    v = profile(lad, 0, t)
    assert 0 <= v <= 1
    assert profile(lad, 0, -t) == v


@given(t=rationals)
def test_periodized_base_has_period_six(t):
    lad = ladder_new("default-minimal")
    assert eval_b(lad, 0, t + 6) == eval_b(lad, 0, t)
    assert eval_b(lad, 0, t) == oracles.periodized_base(t)


@given(t=rationals, n=st.integers(min_value=0, max_value=1))
@settings(max_examples=60)
def test_period_identity_per_level(t, n):
    lad = ladder_new("default-minimal", depth=2)
    assert eval_b(lad, n, t + 2 * lad.p(n)) == eval_b(lad, n, t)
    assert 0 <= eval_b(lad, n, t) <= 1


@given(
    u=rationals, v=rationals, u2=rationals, v2=rationals
)
def test_max_is_nonexpansive(u, v, u2, v2):
    assert abs(max(u, v) - max(u2, v2)) <= max(abs(u - u2), abs(v - v2))


@given(t=st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_fold_agrees_with_stepping(t):
    assert oracles.wrap(t, 3) == oracles.wrap_by_stepping(t, 3)
    lad = ladder_new("default-minimal")
    assert eval_b(lad, 0, t) == eval_b(lad, 0, oracles.wrap(t, 3))
