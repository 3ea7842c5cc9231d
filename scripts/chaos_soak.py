#!/usr/bin/env python
"""Seeded chaos soak: every injected disk/process fault must heal to bytes.

Runs the golden trajectory grid (the exact grid pinned by
``tests/experiments/golden/trajectory.jsonl``) through a series of
deterministic fault rounds — worker kills, mid-append ``ENOSPC``, torn
checkpoint renames, torn cache-style writes — each followed by the
documented recovery (``resume=True, retry_failed=True``, checkpoints
re-armed), and asserts after every round that the healed stream is
**byte-identical** to a clean uninterrupted run and to the committed
golden fixture.  This is the end-to-end proof of DESIGN.md §13: crashes,
full disks, and lost renames cost wall-clock, never bytes.

Faults are injected via :func:`repro.parallel.faults.injected_env` with a
shared token directory, so each spec fires exactly once across every
process of the round — the soak is deterministic, not a fuzzer.

Usage: PYTHONPATH=src python scripts/chaos_soak.py [--keep DIR] [--workers N]
Exit 0 when every round heals to identical bytes, 1 with a report otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core import trajectory_experiment
from repro.experiments import run_fleet
from repro.io.jsonl_store import FleetFailure
from repro.parallel import injected_env, shutdown_shared_pools

#: The golden grid (tests/experiments/golden/trajectory.jsonl): small
#: enough for a CI lane, wide enough to cross two families, two cost
#: models, streaming, checkpoints, and the retry ladder.
_GRID = dict(
    n_values=[10],
    families=("tree", "sparse"),
    objectives=("sum", "interest-sum:k=3,seed=0"),
    schedules=("round_robin",),
    responders=("best",),
    replicates=2,
    root_seed=5,
    max_steps=2000,
)

#: Fault rounds: (name, REPRO_FAULTS spec armed for the faulted pass).
#: Specs target the stream by path fragment where they can, so the fault
#: lands in the persistence layer under test and nowhere else.
_ROUNDS = (
    ("worker-kill", "kill:task=2"),
    ("poisoned-task", "raise:task=1,times=2"),
    ("enospc-append", "enospc:path=soak.jsonl"),
    ("torn-append", "torn-write:path=soak.jsonl"),
    ("torn-ckpt-rename", "torn-rename:path=.ckpt"),
    ("enospc-ckpt", "enospc:path=.ckpt"),
)


def _run(jsonl_path: Path, ckpt_dir: "Path | None", **kwargs) -> list:
    extra = {}
    if ckpt_dir is not None:
        extra = dict(checkpoint_dir=ckpt_dir, checkpoint_every=1)
    return run_fleet(
        trajectory_experiment(**_GRID), jsonl_path=jsonl_path,
        **extra, **kwargs
    )


def _soak_round(
    name: str, spec: str, root: Path, clean: bytes, workers: int
) -> "str | None":
    """One fault round; returns an error report line or None on success."""
    stream = root / name / "soak.jsonl"
    ckpt = root / name / "ckpt"
    tokens = root / name / "tokens"
    stream.parent.mkdir(parents=True, exist_ok=True)

    with injected_env(spec, tokens):
        try:
            _run(stream, ckpt, workers=workers, retries=0)
        except Exception as exc:  # the heal pass below is the assertion
            print(f"round {name}: faulted pass died: {exc!r}", flush=True)

    # Heal: same arguments, resume the streamed prefix, re-run quarantined
    # slots (resuming their checkpoints where the fault left any).
    healed = _run(
        stream, ckpt, workers=workers, resume=True, retry_failed=True
    )
    if any(isinstance(r, FleetFailure) for r in healed):
        return f"{name}: quarantined slots survived the healing pass"
    got = stream.read_bytes()
    if got != clean:
        return (
            f"{name}: healed stream differs from the clean run "
            f"({len(got)} vs {len(clean)} bytes) — see {stream}"
        )
    leftover = sorted(p.name for p in ckpt.glob("*.ckpt")) if ckpt.exists() else []
    if leftover:
        return f"{name}: finished run left checkpoints behind: {leftover}"
    return None


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", type=Path, default=None, metavar="DIR",
                    help="run inside DIR and keep artifacts (default: "
                         "a temp dir, removed on success)")
    ap.add_argument("--workers", type=int, default=2,
                    help="fleet shards per pass (default: 2)")
    args = ap.parse_args(argv)

    root = args.keep if args.keep is not None else Path(tempfile.mkdtemp(
        prefix="chaos-soak-"
    ))
    root.mkdir(parents=True, exist_ok=True)

    clean_stream = root / "clean.jsonl"
    _run(clean_stream, None, workers=args.workers)
    clean = clean_stream.read_bytes()

    golden = (
        Path(__file__).resolve().parents[1]
        / "tests" / "experiments" / "golden" / "trajectory.jsonl"
    )
    failures: list[str] = []
    if golden.exists() and golden.read_bytes() != clean:
        failures.append(
            "clean run no longer matches the committed golden fixture "
            f"({golden}) — the soak would chase a moving target"
        )

    for name, spec in _ROUNDS:
        if failures:
            break
        print(f"round {name}: {spec!r} ...", flush=True)
        error = _soak_round(name, spec, root, clean, args.workers)
        if error:
            failures.append(error)
        else:
            print(f"round {name}: healed to identical bytes", flush=True)

    shutdown_shared_pools()
    if failures:
        print("chaos soak FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print(f"  artifacts kept in {root}", file=sys.stderr)
        return 1
    print(f"chaos soak OK: {len(_ROUNDS)} fault rounds healed to "
          "byte-identical streams")
    if args.keep is None:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
