"""The differential oracle harness: one fast path and one oracle per operation.

Every mode alias in the library pairs exactly one fast path with exactly one
oracle (DESIGN.md §2, "Oracles").  Each pair is registered here once, in
:data:`PAIRS`, as a function ``answer(graph, mode)`` whose result must be
*exactly* equal — violations, costs, tie-breaks, record order, and the typed
error raised on bad input — between the fast mode and the oracle mode, on
three kinds of input:

* the deterministic 216-graph battery of ``tests/conftest.py`` (trees,
  sparse and dense G(n, m), bridges, disconnecting removals, n ≤ 3);
* a Hypothesis strategy built from the same conftest strategies, biased
  toward n ≤ 3, bridges and disconnecting removals, plus possibly
  disconnected edge lists, on which both sides must raise alike;
* the high-diameter inputs of ``tests/graphs/test_repair.py`` (diameter
  up to 11, long chains of bridges), which the n ≤ 14 battery lacks, and
  the named edge cases of :data:`EDGE_CASES` (n = 2, n = 3, a bridge
  whose severed endpoint rows sit at ``INT_INF``, and that bridge in a
  disconnected graph), so that every pair meets them by name rather than
  by a Hypothesis draw.

The dynamics pair is pinned move for move (and activation for activation)
on the ``greedy`` schedule, where both engines activate every vertex by
construction.  On ``round_robin`` / ``random`` the batched engine skips
vertices its dirty-set heuristic marks quiet, and the oracle does not, so
the two trajectories may part wherever a quiet-marked vertex holds a move;
there the harness pins what must hold instead: every applied move is the
oracle's own best response at that state, the recorded traces are the
oracle's values for the replayed states, and a converged endpoint is
oracle-certified at rest.

Metamorphic relabeling properties ride along: under a vertex permutation,
audit verdicts, gaps and best-response costs are invariant, and a move found
on the relabeled graph, mapped back, is an improving (or optimal) move of
the original graph when scored by the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Swap,
    SwapDynamics,
    best_swap,
    find_deletion_criticality_violation,
    find_swap_violation,
    is_equilibrium,
    removal_distance_matrix,
    resolve_cost_model,
    sum_equilibrium_gap,
    swap_cost_after,
)
from repro.core.costs import lift_distances
from repro.core.moves import swapped_graph
from repro.errors import ConfigurationError, ReproError
from repro.graphs import (
    CSRGraph,
    complete_graph,
    diameter_or_inf,
    distance_matrix,
    path_graph,
    random_connected_gnm,
)

from ..conftest import connected_graphs, edge_lists, graph_battery, trees
from ..graphs.test_repair import AFFECTED_INPUTS, HIGH_DIAMETER

BATTERY = graph_battery()


def _cliques_joined_by_a_bridge(k: int) -> CSRGraph:
    """Two ``K_k`` joined by the bridge ``(k - 1, k)``."""
    left = [(a, b) for a in range(k) for b in range(a + 1, k)]
    right = [(a + k, b + k) for a, b in left]
    return CSRGraph(2 * k, left + right + [(k - 1, k)])


#: Named edge cases, next to ``HIGH_DIAMETER``: the smallest games, a
#: bridge between two blocks — removing it leaves the far side of both
#: endpoint rows at ``INT_INF`` — and the same bridge beside a disjoint K2,
#: where the bridge changes every row of its own component but not the K2's,
#: so the removal takes the row kernel instead of a far side.
EDGE_CASES = {
    "K2": path_graph(2),
    "P3": path_graph(3),
    "K3": complete_graph(3),
    "K4-bridge-K4": _cliques_joined_by_a_bridge(4),
    "K4-bridge-K4+K2": AFFECTED_INPUTS["K4-bridge-K4+K2"],
}

#: Base games plus one interest and one budget variant (DESIGN.md §6).
MODELS = ["sum", "max", "interest-sum:k=3,seed=2", "budget-sum:cap=3"]

#: Models whose cost depends on the graph alone, not on vertex labels
#: (interest sets are drawn per label, so relabeling changes the game).
LABEL_FREE_MODELS = ["sum", "max", "budget-sum:cap=3"]


def _response(br) -> tuple:
    return (br.swap, br.before, br.after, br.is_deletion)


# ---------------------------------------------------------------------------
# The registry: one (fast, oracle, answer) entry per operation
# ---------------------------------------------------------------------------

def _swap_violation(spec):
    return lambda g, mode: find_swap_violation(g, spec, mode=mode)


def _equilibrium(spec):
    return lambda g, mode: is_equilibrium(g, spec, mode=mode)


def _best_responses(spec):
    def answer(g, mode):
        responses = [
            _response(best_swap(g, v, spec, mode=mode)) for v in range(g.n)
        ]
        # Movers outside range(n) must fail alike, with the same typed error.
        for v in (g.n, -1):
            responses.append(
                _outcome(lambda g, m: best_swap(g, v, spec, mode=m), g, mode)
            )
        return responses

    return answer


def _removal_matrices(g, mode):
    return [
        (edge, removal_distance_matrix(g, edge, mode=mode).tolist())
        for edge in g.iter_edges()
    ]


def _swap_costs(g, mode):
    # Every third vertex drops its first edge and tries every add-target.
    out = []
    for v in range(0, g.n, 3):
        nbrs = g.neighbors(v)
        if nbrs.size == 0:
            continue
        w = int(nbrs[0])
        for add in range(g.n):
            if add not in (v, w):
                swap = Swap(v, w, add)
                out.append(
                    (add, swap_cost_after(g, swap, "sum", mode),
                     swap_cost_after(g, swap, "max", mode))
                )
    return out


def _dynamics(schedule, spec):
    def answer(g, mode):
        res = SwapDynamics(
            objective=spec, schedule=schedule, record=True, seed=3,
            max_steps=300, engine_mode=mode,
        ).run(g)
        return {
            "graph": res.graph,
            "converged": res.converged,
            "cycle_detected": res.cycle_detected,
            "steps": res.steps,
            "activations": res.activations,
            "moves": res.moves,
            "diameter_trace": res.diameter_trace,
            "social_cost_trace": res.social_cost_trace,
        }

    return answer


#: name -> (fast mode, oracle mode, answer(graph, mode)).
PAIRS = {
    **{
        f"find_swap_violation[{spec}]": ("batched", "rebuild", _swap_violation(spec))
        for spec in MODELS
    },
    **{
        f"is_equilibrium[{spec}]": ("batched", "rebuild", _equilibrium(spec))
        for spec in MODELS
    },
    "sum_equilibrium_gap": (
        "batched", "rebuild", lambda g, mode: sum_equilibrium_gap(g, mode=mode)
    ),
    "find_deletion_criticality_violation": (
        "batched", "rebuild",
        lambda g, mode: find_deletion_criticality_violation(g, mode=mode),
    ),
    **{
        f"best_swap[{spec}]": ("batched", "oracle", _best_responses(spec))
        for spec in MODELS
    },
    "distance_matrix": (
        "scipy", "numpy", lambda g, mode: distance_matrix(g, mode).tolist()
    ),
    "removal_distance_matrix": ("repair", "rebuild", _removal_matrices),
    "swap_cost_after": ("patched", "copy", _swap_costs),
    **{
        f"SwapDynamics[greedy,{spec}]": ("batched", "oracle", _dynamics("greedy", spec))
        for spec in MODELS
    },
}

#: The static pairs run on every battery graph; the oracle dynamics replay
#: n best responses per step, so the dynamics pairs run on every fourth
#: battery graph, one model per graph in rotation.  (A stride of 4 walks
#: all three battery families, which cycle by index mod 3.)
_DYNAMICS = [name for name in PAIRS if name.startswith("SwapDynamics")]
_STATIC = [name for name in PAIRS if name not in _DYNAMICS]
_DYNAMICS_BATTERY = range(0, len(BATTERY), 4)


def _outcome(answer, g, mode):
    """The answer, or the typed error it raised (both sides must agree)."""
    try:
        return answer(g, mode)
    except ReproError as exc:
        return ("raises", type(exc).__name__)


def _assert_pair_agrees(name, g):
    fast, oracle, answer = PAIRS[name]
    got = _outcome(answer, g, fast)
    want = _outcome(answer, g, oracle)
    assert got == want, (name, g.n, g.edges().tolist())


@pytest.mark.parametrize("name", list(PAIRS))
def test_modes_outside_the_pair_are_rejected(name):
    answer = PAIRS[name][2]
    with pytest.raises(ConfigurationError):
        answer(random_connected_gnm(6, 8, seed=1), "telepathy")


@pytest.mark.parametrize("idx", range(len(BATTERY)))
@pytest.mark.parametrize("name", _STATIC)
def test_pair_agrees_on_battery(name, idx):
    _assert_pair_agrees(name, BATTERY[idx])


@pytest.mark.parametrize("idx", _DYNAMICS_BATTERY)
def test_greedy_dynamics_agree_on_battery(idx):
    _assert_pair_agrees(_DYNAMICS[idx // 4 % len(_DYNAMICS)], BATTERY[idx])


@pytest.mark.parametrize("graph", list(HIGH_DIAMETER))
@pytest.mark.parametrize("name", list(PAIRS))
def test_pair_agrees_on_high_diameter_graphs(name, graph):
    _assert_pair_agrees(name, HIGH_DIAMETER[graph])


@pytest.mark.parametrize("graph", list(EDGE_CASES))
@pytest.mark.parametrize("name", list(PAIRS))
def test_pair_agrees_on_named_edge_cases(name, graph):
    _assert_pair_agrees(name, EDGE_CASES[graph])


# ---------------------------------------------------------------------------
# Hypothesis inputs, biased toward the boundary cases
# ---------------------------------------------------------------------------

@st.composite
def bridged_graphs(draw):
    """A connected block and a tree joined by one bridge."""
    block = draw(connected_graphs(min_n=2, max_n=7))
    tail = draw(trees(min_n=2, max_n=5))
    a = draw(st.integers(0, block.n - 1))
    b = block.n + draw(st.integers(0, tail.n - 1))
    edges = list(block.iter_edges()) + [
        (x + block.n, y + block.n) for x, y in tail.iter_edges()
    ]
    return CSRGraph(block.n + tail.n, edges + [(a, b)])


def _as_graph(n_edges) -> CSRGraph:
    return CSRGraph(*n_edges)


#: Each branch is drawn about equally often, so a third of the examples
#: have n ≤ 3 and most of the rest carry bridges (every tree edge, the
#: joining edge) whose removal disconnects the graph.
ORACLE_INPUTS = st.one_of(
    connected_graphs(min_n=2, max_n=3),
    edge_lists(max_n=3).map(_as_graph),
    trees(min_n=2, max_n=12),
    bridged_graphs(),
    connected_graphs(min_n=4, max_n=12),
    edge_lists(max_n=8).map(_as_graph),
)


@pytest.mark.parametrize("name", _STATIC)
@given(g=ORACLE_INPUTS)
@settings(max_examples=30, deadline=None)
def test_pair_agrees_on_generated_graphs(name, g):
    _assert_pair_agrees(name, g)


@pytest.mark.parametrize("name", _DYNAMICS)
@given(g=ORACLE_INPUTS)
@settings(max_examples=10, deadline=None)
def test_greedy_dynamics_agree_on_generated_graphs(name, g):
    _assert_pair_agrees(name, g)


# ---------------------------------------------------------------------------
# Round-robin and random dynamics: every move is the oracle's best response
# ---------------------------------------------------------------------------

def _oracle_social_cost(graph, model) -> float:
    return model.social_cost(lift_distances(distance_matrix(graph)))


def _check_trajectory_against_oracle(g, spec, schedule):
    res = SwapDynamics(
        objective=spec, schedule=schedule, record=True, seed=3, max_steps=300,
    ).run(g)
    model = resolve_cost_model(spec, g.n)
    state = g
    assert res.diameter_trace[0] == diameter_or_inf(state)
    assert res.social_cost_trace[0] == _oracle_social_cost(state, model)
    for t, move in enumerate(res.moves, start=1):
        oracle = best_swap(state, move.vertex, model, mode="oracle")
        assert oracle.swap == move, (t, move, oracle.swap)
        state = swapped_graph(state, move)
        assert res.diameter_trace[t] == diameter_or_inf(state)
        assert res.social_cost_trace[t] == _oracle_social_cost(state, model)
    assert res.graph == state
    if res.converged:
        assert all(
            best_swap(state, v, model, mode="oracle").swap is None
            for v in range(state.n)
        )


@pytest.mark.parametrize("idx", _DYNAMICS_BATTERY)
@pytest.mark.parametrize("schedule", ["round_robin", "random"])
def test_engine_moves_are_oracle_best_responses(schedule, idx):
    _check_trajectory_against_oracle(
        BATTERY[idx], MODELS[idx // 4 % len(MODELS)], schedule
    )


@pytest.mark.parametrize("spec", MODELS)
@pytest.mark.parametrize("schedule", ["round_robin", "random", "greedy"])
def test_pinned_trajectories_match_the_oracle(spec, schedule):
    # The instance the engines have always been compared on: here the
    # batched engine applies exactly the oracle's moves on every schedule.
    g = random_connected_gnm(10, 16, seed=5)
    fast, oracle = (
        _dynamics(schedule, spec)(g, mode) for mode in ("batched", "oracle")
    )
    for run in (fast, oracle):
        run.pop("activations")  # the oracle activates every vertex
    assert fast == oracle


# ---------------------------------------------------------------------------
# Metamorphic relabeling properties
# ---------------------------------------------------------------------------

def _relabel(g: CSRGraph, perm: "list[int]") -> CSRGraph:
    return CSRGraph(g.n, [(perm[a], perm[b]) for a, b in g.iter_edges()])


def _map_back(swap: Swap, inverse: "list[int]") -> Swap:
    return Swap(inverse[swap.vertex], inverse[swap.drop], inverse[swap.add])


def _oracle_cost_after(g: CSRGraph, swap: Swap, model) -> float:
    mask = model.target_mask(g, swap.vertex, swap.drop)
    assert mask is None or mask[swap.add], ("illegal move", swap)
    return model.bfs_cost(swapped_graph(g, swap), swap.vertex)


def _check_relabeling(g: CSRGraph, perm: "list[int]") -> None:
    h = _relabel(g, perm)
    inverse = [0] * g.n
    for v, pv in enumerate(perm):
        inverse[pv] = v
    assert sum_equilibrium_gap(h) == sum_equilibrium_gap(g)
    for spec in LABEL_FREE_MODELS:
        model = resolve_cost_model(spec, g.n)
        assert is_equilibrium(h, model) == is_equilibrium(g, model), spec
        violation = find_swap_violation(h, model)
        if violation is not None:
            move = _map_back(
                Swap(violation.vertex, violation.drop, violation.add), inverse
            )
            assert violation.before == model.bfs_cost(g, move.vertex)
            after = _oracle_cost_after(g, move, model)
            assert after == violation.after < violation.before, spec
        for v in range(g.n):
            here = best_swap(g, v, model)
            there = best_swap(h, perm[v], model)
            assert (there.before, there.after) == (here.before, here.after)
            if there.swap is not None:
                move = _map_back(there.swap, inverse)
                optimal = best_swap(g, v, model, mode="oracle")
                assert _oracle_cost_after(g, move, model) == optimal.after
    deletion = find_deletion_criticality_violation(h)
    assert (deletion is None) == (find_deletion_criticality_violation(g) is None)
    if deletion is not None:
        v, w = inverse[deletion.vertex], inverse[deletion.drop]
        ecc = resolve_cost_model("max", g.n).bfs_cost(g, v, exclude=(v, w))
        assert ecc == deletion.after <= deletion.before


@pytest.mark.parametrize("idx", range(0, len(BATTERY), 5))
def test_relabeling_invariance_on_battery(idx):
    g = BATTERY[idx]
    perm = [int(x) for x in np.random.default_rng(idx).permutation(g.n)]
    _check_relabeling(g, perm)


@given(
    g=st.one_of(connected_graphs(min_n=2, max_n=10), trees(max_n=10)),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_relabeling_invariance_on_generated_graphs(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    _check_relabeling(g, list(perm))

