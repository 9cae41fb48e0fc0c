"""Deterministic JSON encoding: exact values only, canonical ordering.

Golden integers appear as [a, b] pairs in the (1, phi) basis, rationals as
"p/q" strings (plain ints when integral); sets are emitted sorted.
"""

from __future__ import annotations

import json
from numbers import Rational

from .golden import GoldenInt
from .icosian import IcosianVec


def jsonable(obj):
    if isinstance(obj, GoldenInt):
        return [obj.a, obj.b]
    if isinstance(obj, IcosianVec):
        f = obj.flat
        return [[f[k], f[k + 1]] for k in (0, 2, 4, 6)]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, Rational):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
