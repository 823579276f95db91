import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import profile
from wkseq import (
    DomainError,
    LadderError,
    ScheduleViolationError,
    check_shift_defect,
    eval_ainf,
    eval_b,
    ladder_new,
)
from wkseq.ladder import MAX_LEVEL_BITS

rationals = st.fractions(
    min_value=F(-2000), max_value=F(2000), max_denominator=64
)


@pytest.fixture
def lad():
    return ladder_new("default-minimal")


def test_default_minimal_sizes():
    lad = ladder_new("default-minimal")
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
    lad = ladder_new("default-minimal")
    for n in range(1, 5):
        assert lad.L(n) >= lad.p(n - 1) ** 2
        assert lad.p(n) == 9 * lad.L(n) * lad.p(n - 1)


def test_explicit_schedule_is_honored_then_extended():
    lad = ladder_new([10, 100000])
    assert lad.L(1) == 10
    assert lad.p(1) == 270
    assert lad.L(2) == 100000
    assert lad.L(3) == lad.p(2) ** 2


@pytest.mark.parametrize("entry", [9.5, F(19, 2), "10"])
def test_non_integer_schedule_entry_is_refused(entry):
    with pytest.raises(ValueError, match=re.escape(f"schedule entry L[1]={entry!r} is not an integer")):
        ladder_new([entry])
    with pytest.raises(ValueError, match=re.escape(f"L[2]={entry!r}")):
        ladder_new([10, entry])
    assert ladder_new([F(20, 2)]).L(1) == 10


def test_undersized_schedule_entry_is_rejected():
    with pytest.raises(ScheduleViolationError):
        ladder_new([8])
    with pytest.raises(ScheduleViolationError):
        ladder_new([9, 243**2 - 1])


def test_oversized_levels_are_refused_before_growing():
    lad = ladder_new("default-minimal")
    with pytest.raises(LadderError, match="level 13 would take about"):
        lad.ensure(30)
    assert lad.sizes == [3]
    lad.ensure(12)
    assert lad.p(12).bit_length() == 1684627 <= MAX_LEVEL_BITS
    with pytest.raises(LadderError, match="level 13"):
        lad.ensure(13)
    # an explicit entry is bounded by its own bit length
    with pytest.raises(LadderError, match="level 2 would take about"):
        ladder_new([9, 1 << MAX_LEVEL_BITS])


@pytest.mark.parametrize("policy", ["default-minimal", (10, 72901)])
def test_a_refusal_reads_the_same_whatever_was_grown(policy):
    # the estimate starts from the deepest level the schedule fixes, so it
    # does not depend on how far the ladder has grown
    texts = []
    for grown in (0, 12):
        lad = ladder_new(policy)
        lad.ensure(grown)
        with pytest.raises(LadderError) as exc:
            lad.p(13)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("level 13 would take about ")


@pytest.mark.parametrize("t", [0.1, 0.5, "5/2", 2.0, None])
def test_evaluators_take_only_ints_and_fractions(lad, t):
    for read in (lambda: eval_ainf(lad, t), lambda: eval_b(lad, 1, t)):
        with pytest.raises(TypeError, match="int or a Fraction"):
            read()
    assert eval_ainf(lad, F(3, 2)) == eval_b(lad, 0, F(3, 2)) == F(1, 2)


#: Larger than p[10] on both ladders below, so a shift-defect grid of this
#: step over level n <= 10 is the one point -p[n].
ONE_POINT_STEP = 3 ** 3 ** 11

#: Each accessor that grows a ladder, as a read of level n >= 1.
LEVEL_READS = {
    "p": lambda lad, n: lad.p(n),
    "L": lambda lad, n: lad.L(n),
    "splice": lambda lad, n: lad.splice(n),
    "stretch": lambda lad, n: lad.stretch(n),
    "eval_b": lambda lad, n: eval_b(lad, n, F(1, 3)),
    "check_shift_defect": lambda lad, n: check_shift_defect(lad, n // 2, n, ONE_POINT_STEP),
}
POLICIES = st.sampled_from(["default-minimal", (10, 72901)])


@pytest.mark.parametrize("read", LEVEL_READS.values(), ids=list(LEVEL_READS))
@given(policy=POLICIES, n=st.integers(min_value=1, max_value=10))
@settings(max_examples=25, deadline=None)
def test_every_accessor_grows_on_demand(read, policy, n):
    fresh, eager = ladder_new(policy), ladder_new(policy)
    eager.ensure(n)
    grown = list(eager.sizes)
    assert read(fresh, n) == read(eager, n)
    assert fresh.sizes == eager.sizes == grown


@pytest.mark.parametrize("read", LEVEL_READS.values(), ids=list(LEVEL_READS))
@given(policy=POLICIES, grown=st.integers(min_value=0, max_value=8), n=st.integers(min_value=13, max_value=64))
@settings(max_examples=25, deadline=None)
def test_every_accessor_refuses_a_level_past_the_size_bound(read, policy, grown, n):
    # level 13 is the first past MAX_LEVEL_BITS on both ladders
    lad = ladder_new(policy)
    lad.ensure(grown)
    before = list(lad.sizes)
    with pytest.raises(LadderError, match="level 13 would take about"):
        read(lad, n)
    assert lad.sizes == before


def test_splice_and_stretch(lad):
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
    assert len(lad.sizes) == 5
    assert eval_ainf(lad, 10**30) == oracles.limit_value(10**30)


def test_localization_across_levels(lad):
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
    lad = ladder_new("default-minimal")
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
