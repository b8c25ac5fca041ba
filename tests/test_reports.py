"""Pinned JSON and CSV rendering of check records.

The expected text is written out by hand, so a change to the serializer
that alters a single byte of output fails here.
"""

from flagspectra import CheckRecord, records_to_csv, records_to_json_lines

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
