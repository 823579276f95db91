"""The package's records: immutable, and windows equal by value."""
from fractions import Fraction as F

import pytest

from wkseq import (
    DistBracket,
    OrbitView,
    SeqWindow,
    check_rigidity,
    classify_pair,
    ladder_new,
    ones_source,
)


def test_records_are_immutable():
    view = OrbitView(ones_source(), 2)
    verdict = classify_pair(view, view, F(1), 0, 10, 4, F(1, 4))
    report = check_rigidity(ladder_new(), 1, 10)
    for record, field in [
        (SeqWindow(0, (F(1, 2),)), "offset"),
        (SeqWindow(0, (F(1, 2),)), "values"),
        (DistBracket(F(0), F(1)), "lo"),
        (view, "shift"),
        (verdict, "labels"),
        (report, "max_defect"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        del SeqWindow(0, (F(1, 2),)).offset


def test_window_equality_hash_and_length():
    a = SeqWindow(3, (F(0), F(1, 2)))
    assert a == SeqWindow(3, (F(0), F(1, 2))) and hash(a) == hash(SeqWindow(3, (F(0), F(1, 2))))
    assert a != SeqWindow(4, (F(0), F(1, 2))) and a != (3, (F(0), F(1, 2)))
    assert len(a) == 2 and list(a.values) == [F(0), F(1, 2)]
