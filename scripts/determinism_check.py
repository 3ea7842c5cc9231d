#!/usr/bin/env python
"""Dual-PYTHONHASHSEED determinism gate.

Runs a small census + trajectory-census smoke twice, in fresh
subprocesses pinned to ``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``,
and asserts the streamed JSONL outputs are byte-identical across the
two seeds.  Any hidden dependence on hash-randomised iteration order
(set/dict ordering leaking into worker sharding, record layout, or the
dynamics themselves) shows up as a byte diff here long before it shows
up as an irreproducible paper table.

The R1 lint rule bans set iteration statically; this is the dynamic
half of the same contract (DESIGN.md §11).

Usage: PYTHONPATH=src python scripts/determinism_check.py [--keep DIR]
Exit 0 when both streams match, 1 with a per-file report otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Workload run once per hash seed.  Small enough for a CI lane
#: (seconds, not minutes) but wide enough to cross every surface the
#: hash seed could leak through: worker sharding, JSONL streaming, both
#: census kinds, and the batched audit kernel.
_WORKLOAD = """\
import sys
from repro.core import census_experiment, trajectory_experiment
from repro.experiments import run_fleet

out = sys.argv[1]
run_fleet(census_experiment([12, 14], replicates=2), workers=2,
          jsonl_path=out + "/census.jsonl")
run_fleet(
    trajectory_experiment(
        n_values=[10], families=("tree", "sparse"),
        objectives=("sum", "max"), schedules=("round_robin",),
        replicates=2, max_steps=2000, root_seed=5),
    workers=2, jsonl_path=out + "/trajcensus.jsonl")
"""

_STREAMS = ("census.jsonl", "trajcensus.jsonl")
_HASH_SEEDS = ("0", "1")


def _run_workload(hash_seed: str, out_dir: Path) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-c", _WORKLOAD, str(out_dir)],
        env=env, check=True, timeout=900,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="write the per-seed streams under DIR instead of a tempdir "
        "(kept for inspection)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        root = Path(args.keep) if args.keep else Path(tmp)
        for seed in _HASH_SEEDS:
            print(f"determinism-check: PYTHONHASHSEED={seed} ...", flush=True)
            _run_workload(seed, root / f"seed{seed}")

        failures = []
        for name in _STREAMS:
            blobs = [
                (root / f"seed{seed}" / name).read_bytes()
                for seed in _HASH_SEEDS
            ]
            if blobs[0] != blobs[1]:
                failures.append(name)
                print(f"determinism-check: MISMATCH {name} "
                      f"({len(blobs[0])} vs {len(blobs[1])} bytes)")
            else:
                print(f"determinism-check: ok {name} "
                      f"({len(blobs[0])} bytes, byte-identical)")

    if failures:
        print(f"determinism-check: FAILED for {', '.join(failures)}")
        return 1
    print("determinism-check: all streams byte-identical across hash seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
