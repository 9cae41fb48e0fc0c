"""Writes digests.json: the digests every later run of the benchmark checks.

Run once at the commit whose outputs are the reference, from the repo root:

    python3 perfbench/freeze.py

It runs `h4geom verify` and the six dumps in fresh processes and records
the report bytes without `elapsed_ms`, one digest per report entry, and the
bytes of each dump.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checker
import run
from run import ROOT


def _cli(argv: list[str]) -> None:
    subprocess.run([sys.executable, "-m", "h4geom.cli", *argv], env=run.child_env(), check=True,
                   stdout=subprocess.DEVNULL)


def main() -> None:
    out = {"report": None, "checks": {}, "dumps": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "report.json"
        _cli(["verify", "--report", str(path)])
        text = path.read_text()
        out["report"] = checker.sha256(checker.strip_timings(text).encode())
        for entry in json.loads(text):
            out["checks"][entry["check"]] = checker.entry_digest(entry)
        for obj in run.DUMP_OBJECTS:
            path = Path(tmp) / f"{obj}.json"
            _cli(["dump", obj, "--out", str(path)])
            out["dumps"][obj] = checker.sha256(path.read_bytes())
    checker.DIGESTS_PATH.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
