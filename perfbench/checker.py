"""Checks every output of a benchmark op against digests frozen at the commit
that defined the benchmark (digests.json, written by freeze.py).

Each function returns a list of problems; an op fails when any is found.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
_ELAPSED = re.compile(r'^ *"elapsed_ms": -?\d+,?\n', re.MULTILINE)


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def strip_timings(report_text: str) -> str:
    """The report's bytes without its `elapsed_ms` lines."""
    return _ELAPSED.sub("", report_text)


def entry_digest(entry: dict) -> str:
    """Digest of one report entry (as JSON values) without its timing."""
    body = {k: v for k, v in entry.items() if k != "elapsed_ms"}
    return sha256(json.dumps(body, sort_keys=True).encode())


def entry_problems(entry: dict, digests: dict) -> list[str]:
    cid = entry.get("check")
    if entry.get("status") != "pass":
        return [f"{cid}: status {entry.get('status')!r}, observed {entry.get('observed')!r}"]
    if entry_digest(entry) != digests["checks"].get(cid):
        return [f"{cid}: entry differs from its frozen digest"]
    return []


def report_problems(report_text: str, digests: dict) -> list[str]:
    """A `verify` report of all checks must match the frozen report byte for
    byte once `elapsed_ms` is removed."""
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, list) or not all(isinstance(e, dict) for e in report):
        return ["report is not a list of entries"]
    problems = [p for e in report for p in entry_problems(e, digests)]
    if sha256(strip_timings(report_text).encode()) != digests["report"]:
        problems.append("report differs from its frozen digest")
    return problems


def dump_problems(obj: str, data: bytes, digests: dict) -> list[str]:
    if sha256(data) != digests["dumps"][obj]:
        return [f"dump {obj}: bytes differ from the frozen digest"]
    return []
