#!/usr/bin/env python
"""Regenerate the golden JSONL fixtures for the bit-identity suite.

The fixtures pin the exact bytes the pre-refactor fleets streamed
(ISSUE 9); the `Experiment`-compiled fleets must reproduce them
byte-for-byte.  Regenerate ONLY when a record schema change is
deliberate — a diff here is a compatibility break, and resuming
pre-change streams will refuse the new header.

The pinned grids are the golden suite's own ``CASES`` (the two library
fleets on small grids, plus the two bench arms at smoke scale), so the
fixtures and the suite cannot drift apart.

Usage: PYTHONPATH=src python tests/experiments/make_golden.py
"""

from __future__ import annotations

from repro.experiments import run_fleet
from test_golden import CASES, GOLDEN  # run as a script: its dir is on path


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fixture, build in CASES.values():
        run_fleet(build(), jsonl_path=GOLDEN / fixture)
    for path in sorted(GOLDEN.glob("*.jsonl")):
        lines = path.read_text().count("\n")
        print(f"{path.name}: {lines} lines, {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
