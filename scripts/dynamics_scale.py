#!/usr/bin/env python
"""Census-scale dynamics pins: three n=512 sum runs and one n=1024 run to rest.

The registered ``census`` experiment runs swap dynamics to convergence at
n = 512, while ``tests/core/dynamics_pins.json`` pins the engines only on
graphs with n <= 10.  This script pins the census scale.  It runs the sum
dynamics with the default engine, schedule and responder (batched,
round-robin, best response) from ``seed_graph(family, 512, 3)`` for the
tree, sparse and dense families, and from ``random_connected_gnm(1024,
2048, 1)``, all with the dynamics seed ``derive_seed(3, 1)``, and checks
each run's step count, activation count and final ``graph_fingerprint``
against the constants below.  A kernel change that is meant to be
bit-identical must leave all four runs where they are.  Each endpoint is
then re-audited from a fresh APSP (``is_equilibrium(graph, "sum")`` with
no ``base_dm``), which checks the engine's incrementally maintained
matrix at census scale: the dynamics' own certificate reads that matrix.

It prints one JSON line: the size, wall and CPU seconds of each run, the
wall seconds of each re-audit, and the host as perfbench records it
(``perfbench/hostinfo.py``: CPU model, usable cores, Python, numpy and
scipy versions among others).  There is no speed bar, because load on a
shared host moves single runs by 30%; compare timings only between
interleaved runs on one host.  The four runs take about 30 s of CPU on a
2-core host, two thirds of it in the n=1024 run.

Usage: PYTHONPATH=src python scripts/dynamics_scale.py
Exit 0 when every pin holds and every endpoint passes its audit, 1 with a
report of the runs that moved or failed it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import SwapDynamics, is_equilibrium, seed_graph
from repro.graphs import random_connected_gnm
from repro.io import graph_fingerprint
from repro.rng import derive_seed

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from hostinfo import host_fingerprint  # noqa: E402

SEED = 3
MAX_STEPS = 200_000

#: run -> (start, (steps, activations, final graph_fingerprint)) of a
#: converged run.
PINS = {
    "tree": (lambda: seed_graph("tree", 512, SEED),
             (511, 1613, "d9f4ce3b76baabfa")),
    "sparse": (lambda: seed_graph("sparse", 512, SEED),
               (516, 1544, "5a7ee500530e8083")),
    "dense": (lambda: seed_graph("dense", 512, SEED),
              (516, 1541, "06c0ec5c07e536c0")),
    "gnm1024": (lambda: random_connected_gnm(1024, 2048, 1),
                (1023, 3072, "5292a1668f8e9bcb")),
}


def main() -> int:
    runs, moved = {}, []
    for name, (start, pin) in PINS.items():
        initial = start()
        dynamics = SwapDynamics(
            "sum", seed=derive_seed(SEED, 1), max_steps=MAX_STEPS
        )
        wall, cpu = time.perf_counter(), time.process_time()
        result = dynamics.run(initial)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        got = (
            result.steps, result.activations, graph_fingerprint(result.graph)
        )
        audit = time.perf_counter()
        at_rest = is_equilibrium(result.graph, "sum")
        audit = time.perf_counter() - audit
        runs[name] = {
            "n": initial.n, "wall_s": round(wall, 3), "cpu_s": round(cpu, 3),
            "audit_wall_s": round(audit, 3),
        }
        if not result.converged or got != pin:
            moved.append(
                f"{name}: converged={result.converged}, "
                f"(steps, activations, fingerprint) = {got}, pinned {pin}"
            )
        if at_rest is not True:
            moved.append(f"{name}: the endpoint fails a fresh sum audit")
    host = host_fingerprint(ROOT, ROOT)
    print(json.dumps({"runs": runs, "host": host}))
    for line in moved:
        print(f"moved: {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
