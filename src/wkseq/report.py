"""The one `wk-report/1` encoder: certificate reports and pair verdicts as
JSON documents, every rational in the exact "num/den" form.  `gen` never
imports it, and a report needs no window-file code."""
from __future__ import annotations

import sys
from fractions import Fraction

REPORT_SCHEMA = "wk-report/1"


def report_dict(**fields) -> dict:
    """A wk-report/1 document holding `fields`.

    Rationals become "num/den" strings, named tuples become objects keyed
    by their field names, other tuples and lists become arrays, and every
    other value is kept as it is.
    """
    return {"schema": REPORT_SCHEMA, **{k: _jsonable(v) for k, v in fields.items()}}


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def emit(doc: dict) -> None:
    """Write one document to stdout, its keys sorted, as every command does."""
    import json

    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
