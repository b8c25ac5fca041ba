"""Check records and their deterministic JSON / CSV serialization.

Every verifier emits flat records with a fixed field order: check, claim,
instance, k, lhs, rhs, slack, pass, detail.  That order is the JSON key
order and the CSV column order.  A record is a named tuple, so each record
is its own row, and each format renders a row with one template.

Numbers follow `format_float`: floats get 12 significant digits, so
repeated runs produce byte-identical output.  In JSON a non-finite float is
the string "nan", "inf" or "-inf", a missing value is null, and strings are
ASCII-escaped as `json.dumps` escapes them.  In CSV a missing value is an
empty cell, and a text cell is quoted (with inner quotes doubled) when it
holds a comma, a double quote, a line feed or a carriage return, as
`csv.writer` does under QUOTE_MINIMAL with its default line terminator.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite
from typing import NamedTuple

_FIELDS = ("check", "claim", "instance", "k", "lhs", "rhs", "slack", "pass", "detail")


class CheckRecord(NamedTuple):
    """One verified (or inconclusive) assertion.

    `passed` is True/False for decided checks and None when the check could
    not be decided (for example a connectivity bound on a truncated
    enumeration, or a strictness hypothesis inside float noise).  `k` holds
    an int, `lhs`/`rhs`/`slack` an int or a float, or None when absent.
    """

    check: str
    claim: str
    instance: str
    k: int | None = None
    lhs: float | None = None
    rhs: float | None = None
    slack: float | None = None
    passed: bool | None = True
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.passed is False

    @property
    def inconclusive(self) -> bool:
        return self.passed is None


def format_float(x: float) -> str:
    """Fixed 12-significant-digit rendering (also used for JSON payloads)."""
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return f"{x:.12g}"


def _json_number(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, float):
        return f"{x:.12g}" if isfinite(x) else f'"{format_float(x)}"'
    return str(x)


_JSON_PASS = {None: "null", True: "true", False: "false"}


def record_to_json(record: CheckRecord) -> str:
    check, claim, instance, k, lhs, rhs, slack, passed, detail = record
    return (
        f'{{"check": {_json_string(check)}, "claim": {_json_string(claim)}, '
        f'"instance": {_json_string(instance)}, "k": {_json_number(k)}, '
        f'"lhs": {_json_number(lhs)}, "rhs": {_json_number(rhs)}, "slack": {_json_number(slack)}, '
        f'"pass": {_JSON_PASS[passed]}, "detail": {_json_string(detail)}}}'
    )


def records_to_json_lines(records) -> str:
    return "\n".join(map(record_to_json, records)) + "\n"


_CSV_NEEDS_QUOTES = re.compile('[,"\r\n]').search
_CSV_PASS = {None: "", True: "true", False: "false"}


def _csv_text(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _CSV_NEEDS_QUOTES(text) else text


def _csv_number(x) -> str:
    if x is None:
        return ""
    return format_float(x) if isinstance(x, float) else str(x)


def _csv_row(record: CheckRecord) -> str:
    check, claim, instance, k, lhs, rhs, slack, passed, detail = record
    return (
        f"{_csv_text(check)},{_csv_text(claim)},{_csv_text(instance)},{_csv_number(k)},"
        f"{_csv_number(lhs)},{_csv_number(rhs)},{_csv_number(slack)},{_CSV_PASS[passed]},{_csv_text(detail)}"
    )


def records_to_csv(records) -> str:
    return "\n".join([",".join(_FIELDS), *map(_csv_row, records)]) + "\n"
