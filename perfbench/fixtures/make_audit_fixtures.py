"""Regenerate the ``audit`` workload's committed sum equilibria.

Each fixture is the endpoint of batched sum swap dynamics started from
``random_connected_gnm(512, 1024, start_seed)``: swaps keep the edge count,
so every endpoint is an n=512, m=1024 sum equilibrium on which a full
audit must scan every edge.  The graphs go one per line into
``audit_sum_n512.g6``; ``audit_sum_n512.json`` records each line's start
seed, step and activation counts and fingerprint.  Run from the
repository root (about 15 s per fixture)::

    python3 perfbench/fixtures/make_audit_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core import SwapDynamics  # noqa: E402
from repro.graphs import random_connected_gnm, to_graph6  # noqa: E402
from repro.io import graph_fingerprint  # noqa: E402

N, M = 512, 1024
START_SEEDS = (1, 2, 3)


def main() -> int:
    lines, manifest = [], []
    for start_seed in START_SEEDS:
        start = random_connected_gnm(N, M, start_seed)
        result = SwapDynamics(
            "sum", engine_mode="batched", seed=start_seed
        ).run(start)
        if not result.converged:
            raise SystemExit(f"start seed {start_seed} did not converge")
        lines.append(to_graph6(result.graph))
        manifest.append({
            "line": len(lines) - 1,
            "start": f"random_connected_gnm({N}, {M}, {start_seed})",
            "start_seed": start_seed,
            "dynamics": f"SwapDynamics('sum', engine_mode='batched', "
                        f"seed={start_seed})",
            "steps": result.steps,
            "activations": result.activations,
            "n": result.graph.n,
            "m": result.graph.m,
            "fingerprint": graph_fingerprint(result.graph),
        })
        print(f"start seed {start_seed}: {result.steps} steps", flush=True)
    (HERE / "audit_sum_n512.g6").write_text("\n".join(lines) + "\n")
    (HERE / "audit_sum_n512.json").write_text(
        json.dumps({"fixtures": manifest}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
