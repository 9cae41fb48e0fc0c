"""Deterministic JSON encoding: exact values only, canonical ordering.

A golden scalar is already an (a, b) pair in the (1, phi) basis, so it is
emitted as the list [a, b] like any tuple; sets are emitted sorted.  Any
other type raises TypeError.
"""

from __future__ import annotations

import json


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
