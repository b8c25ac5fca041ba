"""Correctness of one request's output, tolerant of float noise.

A record's decided fields (check, instance, k, pass, detail) carry verdicts,
Betti numbers, exact parameters, witnesses and representatives, and are
compared exactly.  Its lhs, rhs and slack are floats printed to 12
significant digits; a change of numeric backend moves them in the last
digits without changing any verdict, so they are compared within
FLOAT_RTOL relative plus FLOAT_ATOL absolute.
"""

from __future__ import annotations

import hashlib
import json
import math

DECIDED = ("check", "instance", "k", "pass", "detail")
FLOATS = ("lhs", "rhs", "slack")
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-9


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def normalize(records: list[dict], input_dir: str) -> list[dict]:
    """Drop the run's own input directory from labels, so runs compare across directories."""
    prefix = input_dir.rstrip("/") + "/"
    out = []
    for rec in records:
        rec = dict(rec)
        for field in ("instance", "detail"):
            if isinstance(rec.get(field), str):
                rec[field] = rec[field].replace(prefix, "")
        out.append(rec)
    return out


def decided(rec: dict) -> list:
    return [rec.get(field) for field in DECIDED]


def decided_digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(decided(rec), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def output_problems(exit_code, records: list[dict]) -> list[str]:
    """Checks that hold for every seed: exit 0, no failed record, no error record."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not records:
        problems.append("no records")
    for rec in records:
        if rec.get("pass") is False:
            problems.append(f"pass=false: {rec.get('check')} {rec.get('instance')} k={rec.get('k')}")
        if rec.get("check") == "error":
            problems.append(f"error record: {rec.get('instance')}: {rec.get('detail')}")
    return problems


def floats_close(a, b, rtol: float = FLOAT_RTOL, atol: float = FLOAT_ATOL) -> bool:
    """Numbers within tolerance; anything else (None, "inf", "nan") must be equal."""
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool) and not isinstance(b, bool):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
    return a == b


def compare(reference: list[list], records: list[dict]) -> list[str]:
    """Differences between records and a reference of [decided..., lhs, rhs, slack] rows."""
    if len(reference) != len(records):
        return [f"{len(records)} records, reference has {len(reference)}"]
    problems = []
    for i, (ref, rec) in enumerate(zip(reference, records)):
        ref_decided, ref_floats = ref[: len(DECIDED)], ref[len(DECIDED) :]
        if decided(rec) != ref_decided:
            problems.append(f"record {i}: decided fields {decided(rec)} != reference {ref_decided}")
            continue
        for field, want in zip(FLOATS, ref_floats):
            if not floats_close(rec.get(field), want):
                problems.append(f"record {i} {rec.get('check')}: {field} {rec.get(field)!r} != reference {want!r}")
    return problems


def reference_rows(records: list[dict]) -> list[list]:
    return [decided(rec) + [rec.get(field) for field in FLOATS] for rec in records]
