"""Check records and their deterministic JSON / CSV serialization.

Every verifier emits flat records with a fixed field order.  Floats are
rendered with 12 significant digits so that repeated runs produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_FIELDS = ("check", "claim", "instance", "k", "lhs", "rhs", "slack", "pass", "detail")


@dataclass(frozen=True)
class CheckRecord:
    """One verified (or inconclusive) assertion.

    `passed` is True/False for decided checks and None when the check could
    not be decided (for example a connectivity bound on a truncated
    enumeration, or a strictness hypothesis inside float noise).
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


def _row(record: CheckRecord) -> tuple:
    """The record's values in _FIELDS order."""
    return (record.check, record.claim, record.instance, record.k, record.lhs, record.rhs, record.slack, record.passed, record.detail)


_JSON_KEYS = tuple(json.dumps(name) + ": " for name in _FIELDS)


def _json_value(value) -> str:
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


def record_to_json(record: CheckRecord) -> str:
    return "{" + ", ".join(key + _json_value(value) for key, value in zip(_JSON_KEYS, _row(record))) + "}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records) -> str:
    lines = [",".join(_FIELDS)]
    for rec in records:
        lines.append(",".join(_csv_cell(v) for v in _row(rec)))
    return "\n".join(lines) + "\n"


def records_to_json_lines(records) -> str:
    return "\n".join(record_to_json(rec) for rec in records) + "\n"
