"""Batched best-response kernel: bounds, engine scratch, and hot-path costs.

:func:`~repro.core.equilibrium.is_equilibrium` — the dynamics' convergence
certificate — must hold exactly when every vertex's best response is a
no-op, and the engine's cached kernel scratch must follow applied swaps.  The satellites ride along: an already-lifted
``base_dm`` must not be copied per activation, and ``first_improving_swap``
must skip the legality mask for unconstrained models without touching the
rng stream.  Exact agreement of ``best_swap(mode="batched")`` with the
``mode="oracle"`` seed path lives in the differential harness,
``test_oracles.py``.
"""

import math

import numpy as np
import pytest

from repro.core import DistanceEngine, SwapDynamics, best_swap, ensure_lifted
from repro.core import first_improving_swap, is_equilibrium
from repro.core.costmodel import SumCost, resolve_cost_model
from repro.core.costs import lift_distances
from repro.graphs import (
    CSRGraph,
    distance_matrix,
    random_connected_gnm,
    random_tree,
    star_graph,
)

from ..conftest import graph_battery

BATTERY = graph_battery()

MODELS = ["sum", "max", "interest-sum:k=3,seed=2", "budget-sum:cap=3"]

#: Every model kind: ``MODELS`` plus the two max variants, which take no
#: cost-neutral deletions and so demand no deletion-criticality.
ALL_KINDS = [*MODELS, "interest-max:k=3,seed=2", "budget-max:cap=3"]


def _responses_equal(a, b) -> bool:
    return (
        a.swap == b.swap
        and a.before == b.before
        and a.after == b.after
        and a.is_deletion == b.is_deletion
    )


class TestEngineKernel:
    def test_engine_scratch_survives_swaps(self):
        # The cached dm+1 / workspace must follow apply_swap, not go stale.
        g = random_connected_gnm(12, 20, seed=7)
        engine = DistanceEngine(g)
        for _ in range(6):
            moved = False
            for v in range(engine.n):
                br = engine.best_swap(v, "sum")
                oracle = best_swap(engine.graph, v, "sum", mode="oracle")
                assert _responses_equal(br, oracle), v
                if br.swap is not None and not moved:
                    engine.apply_swap(br.swap)
                    moved = True
            if not moved:
                break


#: Named inputs beside the battery: a star, at rest under every model, and
#: the diamond (a 4-cycle with one chord), swap-stable under every model
#: while each degree-2 vertex can drop an edge at no cost to its local
#: diameter — the deletion max agents take, and no other model's.
REST_INPUTS = {
    "star_graph(12)": star_graph(12),
    "diamond": CSRGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
}

#: Every twelfth battery graph, run to rest: the battery holds few
#: equilibria, so the endpoints give every model at-rest inputs.
ENDPOINT_STARTS = range(1, len(BATTERY), 12)


def _at_rest_endpoints(spec):
    for idx in ENDPOINT_STARTS:
        result = SwapDynamics(objective=spec, seed=idx, max_steps=500).run(
            BATTERY[idx]
        )
        if result.converged:
            yield f"endpoint of {idx}", result.graph


class TestIsEquilibriumIsRest:
    """The dynamics' certificate is the audit: at rest exactly when no
    vertex has a best-response move, criticality included under max."""

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_matches_per_vertex_quiescence(self, spec):
        inputs = [
            *((f"battery {idx}", g) for idx, g in enumerate(BATTERY)),
            *REST_INPUTS.items(),
            *_at_rest_endpoints(spec),
        ]
        verdicts = set()
        for name, g in inputs:
            dm = lift_distances(distance_matrix(g))
            quiet = all(
                best_swap(g, v, spec, base_dm=dm).swap is None
                for v in range(g.n)
            )
            assert is_equilibrium(g, spec, base_dm=dm) == quiet, (name, spec)
            verdicts.add(quiet)
        assert verdicts == {True, False}, spec

    def test_only_the_paper_max_demands_deletion_criticality(self):
        g = REST_INPUTS["diamond"]
        assert [is_equilibrium(g, spec) for spec in ALL_KINDS] == [
            True, False, True, True, True, True,
        ]


class TestLiftedInputNotCopied:
    """Satellite: an already-lifted base_dm skips the n×n lifting copy."""

    def _count_lifts(self, monkeypatch):
        from repro.core import costs

        calls = {"n": 0}
        real = lift_distances

        def counting(dm):
            calls["n"] += 1
            return real(dm)

        monkeypatch.setattr(costs, "lift_distances", counting)
        return calls

    def test_ensure_lifted_aliases_lifted_input(self):
        dm = lift_distances(distance_matrix(random_tree(9, seed=1)))
        assert ensure_lifted(dm) is dm
        raw = distance_matrix(random_tree(9, seed=1))
        out = ensure_lifted(raw)
        assert out is not raw and out.dtype == np.int64

    def test_best_swap_skips_copy_for_lifted_base(self, monkeypatch):
        g = random_connected_gnm(10, 16, seed=3)
        lifted = lift_distances(distance_matrix(g))
        calls = self._count_lifts(monkeypatch)
        for v in range(g.n):
            best_swap(g, v, "sum", base_dm=lifted)
        assert calls["n"] == 0, "lifted base_dm was re-lifted (n×n copy)"

    def test_best_swap_lifts_raw_base_once_per_call(self, monkeypatch):
        g = random_connected_gnm(10, 16, seed=3)
        raw = distance_matrix(g)
        calls = self._count_lifts(monkeypatch)
        best_swap(g, 0, "sum", base_dm=raw)
        assert calls["n"] == 1


class TestFirstImprovingMaskShortCircuit:
    """Satellite: no all-True mask for unconstrained models, rng aligned."""

    class _MaskedSum(SumCost):
        """Sum cost that *materializes* the all-True mask explicitly."""

        def target_mask(self, graph, v, w):
            return np.ones(graph.n, dtype=bool)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_none_mask_path_matches_explicit_all_true(self, seed):
        g = random_connected_gnm(11, 18, seed=seed)
        masked = self._MaskedSum()
        for v in range(g.n):
            plain = first_improving_swap(g, v, "sum", seed=seed)
            explicit = first_improving_swap(g, v, masked, seed=seed)
            assert _responses_equal(plain, explicit), (seed, v)

    def test_budget_mask_still_enforced(self):
        g = random_connected_gnm(10, 16, seed=5)
        model = resolve_cost_model("budget-sum:cap=2", g.n)
        degrees = np.diff(g.indptr)
        for v in range(g.n):
            br = first_improving_swap(g, v, model, seed=9)
            if br.swap is None or br.is_deletion:
                continue
            # A non-deletion add-target must be below the cap.
            assert degrees[br.swap.add] < 2 or br.swap.add in set(
                int(x) for x in g.neighbors(v)
            )


class TestBoundSoundness:
    """The level-0 vertex bound must never exceed any exact post-swap cost."""

    @pytest.mark.parametrize("seed", [0, 4, 8])
    @pytest.mark.parametrize("spec", MODELS)
    def test_level0_bound_below_exact(self, seed, spec):
        g = random_connected_gnm(12, 20, seed=seed)
        lifted = lift_distances(distance_matrix(g))
        model = resolve_cost_model(spec, g.n)
        for v in range(0, g.n, 3):
            level0 = model.candidate_costs(
                v, np.minimum(lifted[v][None, :], lifted + 1)
            )
            level0[v] = math.inf
            for w in sorted(int(x) for x in g.neighbors(v)):
                from repro.core.swap_eval import (
                    all_swap_costs_for_drop,
                    removal_distance_matrix,
                )

                exact = all_swap_costs_for_drop(
                    g, v, w, model,
                    removal_distance_matrix(g, (v, w), mode="rebuild"),
                )
                finite = exact < math.inf
                assert (level0[finite] <= exact[finite]).all(), (seed, v, w)
