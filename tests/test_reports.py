"""Pinned JSON and CSV rendering of check records.

The expected text is written out by hand, so a change to the serializer
that alters a single byte of output fails here.  A differential property
test compares the serializers with a per-field rendering kept here as the
oracle, and reads their output back with `json` and `csv`.
"""

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspectra import CheckRecord, records_to_csv, records_to_json_lines
from flagspectra.reports import _FIELDS, format_float

RECORDS = [
    CheckRecord(
        check="c",
        claim='say "hi", then\nbye',
        instance="naïve – ∞",
        k=3,
        lhs=float("inf"),
        rhs=float("-inf"),
        slack=float("nan"),
        passed=None,
    ),
    CheckRecord(check="d", claim="plain", instance="x", rhs=0.1 + 0.2, slack=-1e-20, passed=True, detail="a,b"),
    CheckRecord(
        check="e",
        claim="",
        instance="",
        k=0,
        lhs=1.0,
        rhs=-0.0,
        slack=123456789012345.0,
        passed=False,
        detail='"quoted"',
    ),
]

JSON_LINES = (
    '{"check": "c", "claim": "say \\"hi\\", then\\nbye", "instance": "na\\u00efve \\u2013 \\u221e", '
    '"k": 3, "lhs": "inf", "rhs": "-inf", "slack": "nan", "pass": null, "detail": ""}\n'
    '{"check": "d", "claim": "plain", "instance": "x", "k": null, "lhs": null, "rhs": 0.3, '
    '"slack": -1e-20, "pass": true, "detail": "a,b"}\n'
    '{"check": "e", "claim": "", "instance": "", "k": 0, "lhs": 1, "rhs": -0, '
    '"slack": 1.23456789012e+14, "pass": false, "detail": "\\"quoted\\""}\n'
)

CSV = (
    "check,claim,instance,k,lhs,rhs,slack,pass,detail\n"
    'c,"say ""hi"", then\nbye",naïve – ∞,3,inf,-inf,nan,,\n'
    'd,plain,x,,,0.3,-1e-20,true,"a,b"\n'
    'e,,,0,1,-0,1.23456789012e+14,false,"""quoted"""\n'
)


def test_json_lines_pinned():
    assert records_to_json_lines(RECORDS) == JSON_LINES


def test_csv_pinned():
    assert records_to_csv(RECORDS) == CSV


def test_empty_record_list():
    assert records_to_json_lines([]) == "\n"
    assert records_to_csv([]) == "check,claim,instance,k,lhs,rhs,slack,pass,detail\n"


def test_carriage_return_is_quoted_in_csv():
    rec = CheckRecord(check="c", claim="x", instance="a\rb", detail="d\r")
    text = records_to_csv([rec])
    assert text == 'check,claim,instance,k,lhs,rhs,slack,pass,detail\nc,x,"a\rb",,,,,true,"d\r"\n'
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[1] == ["c", "x", "a\rb", "", "", "", "", "true", "d\r"]


class TestRecordType:
    def test_fields_defaults_and_keywords(self):
        rec = CheckRecord(check="c", claim="x", instance="i", slack=0.5)
        assert rec == ("c", "x", "i", None, None, None, 0.5, True, "")
        assert CheckRecord._fields == tuple("passed" if name == "pass" else name for name in _FIELDS)
        assert CheckRecord("c", "x", "i", 1, 2.0, 3.0, -1.0, None, "d").detail == "d"

    def test_failed_and_inconclusive(self):
        verdicts = {passed: CheckRecord("c", "x", "i", passed=passed) for passed in (True, False, None)}
        assert [rec.failed for rec in verdicts.values()] == [False, True, False]
        assert [rec.inconclusive for rec in verdicts.values()] == [False, False, True]


# -- differential property test ------------------------------------------------

_ORACLE_KEYS = tuple(json.dumps(name) + ": " for name in _FIELDS)


def _oracle_json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format_float(value)
        return f'"{text}"' if text in ("nan", "inf", "-inf") else text
    return str(value)


def _oracle_json_lines(records) -> str:
    lines = ("{" + ", ".join(key + _oracle_json_value(v) for key, v in zip(_ORACLE_KEYS, rec)) + "}" for rec in records)
    return "\n".join(lines) + "\n"


def _oracle_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n\r"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _decoded(value):
    """What a JSON reader gets back for one field."""
    if isinstance(value, float):
        text = format_float(value)
        return text if text in ("nan", "inf", "-inf") else float(text)
    if isinstance(value, np.integer):
        return int(value)
    return value


# Quotes, backslashes, CSV separators, C0 controls, DEL, line separators,
# non-BMP characters and lone surrogates.  NUL is left out: csv.reader
# rejects it before Python 3.11.
_SPECIAL = ['"', "\\", ",", "\n", "\r", "\t", "\x01", "\x1b", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\U0001f600", "\U0010ffff"]
texts = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters(min_codepoint=1)), max_size=8)
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, math.nan, -math.nan, math.inf, -math.inf]
plain_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True))
int64s = st.integers(-(2**63), 2**63 - 1)
numbers = st.one_of(
    st.none(),
    plain_floats,
    plain_floats.map(np.float64),
    st.integers(-(10**20), 10**20),
    int64s.map(np.int64),
)
records = st.builds(
    CheckRecord,
    check=texts,
    claim=texts,
    instance=texts,
    k=st.one_of(st.none(), st.integers(-(10**20), 10**20), int64s.map(np.int64)),
    lhs=numbers,
    rhs=numbers,
    slack=numbers,
    passed=st.sampled_from([None, True, False]),
    detail=texts,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(records, min_size=1, max_size=2))
def test_serializers_match_oracle_and_read_back(recs):
    text = records_to_json_lines(recs)
    assert text == _oracle_json_lines(recs)
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == len(recs) + 1
    for line, rec in zip(lines, recs):
        assert json.loads(line) == dict(zip(_FIELDS, map(_decoded, rec)))

    table = records_to_csv(recs)
    assert table == "\n".join([",".join(_FIELDS)] + [",".join(map(_oracle_csv_cell, rec)) for rec in recs]) + "\n"
    rows = list(csv.reader(io.StringIO(table, newline="")))
    assert rows[0] == list(_FIELDS) and len(rows) == len(recs) + 1
    for row, rec in zip(rows[1:], recs):
        assert len(row) == 9
        assert [row[i] for i in (0, 1, 2, 8)] == [rec[i] for i in (0, 1, 2, 8)]
