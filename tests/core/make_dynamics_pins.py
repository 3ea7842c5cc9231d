#!/usr/bin/env python
"""Regenerate ``dynamics_pins.json``, the pinned swap-dynamics trajectories.

The fixture holds, for every (graph, cost model, schedule, responder,
engine) cell of :data:`GRID`, what one ``SwapDynamics(...).run`` returned:
``converged``, ``cycle_detected``, ``steps``, ``activations``, the applied
moves, both traces and the final edge set.  ``test_dynamics_pins.py``
replays the grid against the fixture, so any change to a trajectory or to
the activation accounting of either engine fails loudly.

Regenerate only when such a change is deliberate, and name the cells that
moved in CHANGES.md.  ``--checkout`` picks the source tree whose ``src/``
is imported, so the fixture can be rebuilt from another checkout (say, the
commit before a refactor that must not move anything).

Usage:
    python tests/core/make_dynamics_pins.py [--checkout DIR] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "dynamics_pins.json"

#: name -> (generator in repro.graphs, its arguments).  ``CSRGraph`` cells
#: are battery graphs on which the two engines' round-robin or random
#: trajectories part, so both trajectories are pinned.
GRAPHS = {
    "single": ("CSRGraph", (1, [])),
    "path3": ("path_graph", (3,)),
    "path8": ("path_graph", (8,)),
    "cycle7": ("cycle_graph", (7,)),
    "tree9": ("random_tree", (9, 4)),
    "gnm9": ("random_connected_gnm", (9, 12, 3)),
    "tree10": ("random_tree", (10, 5)),
    "dense8": ("random_connected_gnm", (8, 20, 11)),
    "part6": ("CSRGraph", (6, [
        (0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
        (3, 5), (4, 5),
    ])),
    "part9": ("CSRGraph", (9, [
        (0, 5), (0, 6), (0, 8), (1, 3), (1, 7), (2, 3), (2, 4), (3, 4),
        (4, 8), (5, 6), (7, 8),
    ])),
    "part7": ("CSRGraph", (7, [
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (2, 3), (3, 4),
        (3, 5),
    ])),
}

MODELS = {
    "sum": "sum",
    "max": "max",
    "interest": "interest-sum:k=3,seed=2",
    "budget": "budget-sum:cap=3",
}

SCHEDULES = ("round_robin", "random", "greedy")
RESPONDERS = ("best", "first")
ENGINES = ("batched", "oracle")

#: Every cell, as (graph, model, schedule, responder, engine) names.
GRID = [
    (graph, model, schedule, responder, engine)
    for graph in GRAPHS
    for model in MODELS
    for schedule in SCHEDULES
    for responder in RESPONDERS
    for engine in ENGINES
]


def cell_key(cell) -> str:
    return "-".join(cell)


def build_graph(name: str):
    import repro.graphs

    generator, args = GRAPHS[name]
    return getattr(repro.graphs, generator)(*args)


def run_cell(cell) -> dict:
    """One dynamics run, reduced to the JSON-ready observables it pins."""
    from repro.core import SwapDynamics

    graph, model, schedule, responder, engine = cell
    res = SwapDynamics(
        objective=MODELS[model],
        schedule=schedule,
        responder=responder,
        max_steps=40,
        record=True,
        seed=3,
        engine_mode=engine,
    ).run(build_graph(graph))
    return {
        "converged": res.converged,
        "cycle_detected": res.cycle_detected,
        "steps": res.steps,
        "activations": res.activations,
        "moves": [[s.vertex, s.drop, s.add] for s in res.moves],
        "diameter_trace": res.diameter_trace,
        "social_cost_trace": res.social_cost_trace,
        "edges": sorted([a, b] for a, b in res.graph.iter_edges()),
    }


def load_pins() -> dict:
    return json.loads(FIXTURE.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkout", type=Path, default=HERE.parents[1],
        help="source tree whose src/ is pinned (default: this repository)",
    )
    parser.add_argument("--out", type=Path, default=FIXTURE)
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    # One cell per line, so a diff of the fixture names the cells it moves.
    lines = [
        f"{json.dumps(cell_key(cell))}: {json.dumps(run_cell(cell))}"
        for cell in GRID
    ]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{args.out}: {len(lines)} cells from {src}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
