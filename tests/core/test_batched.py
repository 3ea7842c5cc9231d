"""Batched audit kernel internals + fleet cross-validation.

The removal plan must repair endpoint rows exactly in both layouts,
bridges included, and bound every exact cost from below; its level-set
bound must equal the per-row bound entry for entry; the walk's
``costs(threshold)`` must be exact wherever the exact cost is below the
threshold and at least the threshold elsewhere, with the patch's union BFS
running only the affected candidate rows; a row the walk does not evaluate
must have no exact legal cost below its threshold, so a full audit of a
diameter-2 equilibrium verifies only its first block; and every parallel
surface (audits in fleet workers, census fleet, exhaustive census) must be
bit-identical across worker counts.  Agreement of the batched audits with
the rebuild oracle lives in the differential harness, ``test_oracles.py``.
"""

import functools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    SwapDynamics,
    best_swap,
    census_experiment,
    find_deletion_criticality_violation,
    find_swap_violation,
    is_equilibrium,
    resolve_cost_model,
    sum_equilibrium_gap,
)
from repro.core import batched, equilibrium
from repro.core.batched import BatchedRemovalPlan, LevelSets
from repro.core.costmodel import SUM_COST
from repro.core.costs import INT_INF, lift_distances
from repro.core.exhaustive import exhaustive_equilibrium_census
from repro.core.swap_eval import (
    all_swap_costs_for_drop,
    removal_distance_matrix,
)
from repro.graphs import (
    CSRGraph,
    cycle_graph,
    diameter_or_inf,
    distance_matrix,
    path_graph,
    random_connected_gnm,
    random_tree,
    removal_affected_sources,
    repair,
    star_graph,
)
from repro.errors import GraphError
from repro.experiments import Experiment, run_fleet
from repro.parallel import parallel_map

from ..conftest import graph_battery
from .test_oracles import EDGE_CASES, ORACLE_INPUTS

BATTERY = graph_battery()


def _sweep_point(task) -> dict:
    x, seed = task
    return {"x": x, "value": x * 10 + seed % 7}


#: The serial audits a fleet task may run; each takes only ``mode=``.
AUDITS = [
    "find_swap_violation",
    "is_equilibrium",
    "find_sum_violation",
    "is_sum_equilibrium",
    "sum_equilibrium_gap",
    "find_max_swap_violation",
    "find_deletion_criticality_violation",
    "is_deletion_critical",
    "is_max_equilibrium",
]

#: At-rest and not-at-rest graphs: stars and small trees are equilibria,
#: dense random graphs and long cycles are not.
FLEET_GRAPHS = [
    star_graph(9),
    path_graph(3),
    cycle_graph(9),
    random_tree(10, seed=4),
    random_connected_gnm(14, 24, seed=8),
    random_connected_gnm(12, 18, seed=5),
    random_connected_gnm(10, 16, seed=9),
]


def _audit_task(task):
    # A fleet task is a plain tuple; the audit itself runs serially inside
    # whichever process picks the task up.
    name, mode, graph = task
    return getattr(equilibrium, name)(graph, mode=mode)


def _at_rest(answer) -> bool:
    return answer is None or answer is True or (
        isinstance(answer, float) and answer == 0.0
    )


#: Every ninth battery graph, plus a tree (every edge a bridge) and a cycle
#: (no bridge at all).
ENDPOINT_INPUTS = {
    **{str(idx): BATTERY[idx] for idx in range(0, len(BATTERY), 9)},
    "random_tree(12,seed=3)": random_tree(12, seed=3),
    "cycle_graph(9)": cycle_graph(9),
}


#: Both routes of the exact patch: bridges of a connected graph (far side
#: read off the base matrix) and every other removal, a bridge inside one
#: component of a disconnected graph included (the row kernel).
PATCH_INPUTS = {
    "gnm(12,20)": random_connected_gnm(12, 20, seed=5),
    "tree(10)": random_tree(10, seed=2),
    "K4-bridge-K4": EDGE_CASES["K4-bridge-K4"],
    "K4-bridge-K4+K2": EDGE_CASES["K4-bridge-K4+K2"],
}


class TestBatchedRemovalPlan:
    @pytest.mark.parametrize("name", list(ENDPOINT_INPUTS))
    def test_endpoint_rows_exact(self, name):
        # Both plan layouts, row for row against the rebuild oracle.
        g = ENDPOINT_INPUTS[name]
        if g.n < 2:
            return
        lifted = lift_distances(distance_matrix(g))
        edges = list(g.iter_edges())
        plan = BatchedRemovalPlan(g, lifted, edges)
        mover = BatchedRemovalPlan(g, lifted, edges, sources="mover")
        for i, (a, b) in enumerate(edges):
            oracle = removal_distance_matrix(g, (a, b), mode="rebuild")
            assert np.array_equal(plan.endpoint_row(i, a), oracle[a])
            assert np.array_equal(plan.endpoint_row(i, b), oracle[b])
            assert np.array_equal(mover.endpoint_row(i, a), oracle[a])

    @pytest.mark.parametrize("spec", ["sum", "max", "interest-sum:k=3,seed=2"])
    @pytest.mark.parametrize("name", list(PATCH_INPUTS))
    def test_bound_never_exceeds_exact(self, name, spec):
        g = PATCH_INPUTS[name]
        lifted = lift_distances(distance_matrix(g))
        edges = list(g.iter_edges())
        plan = BatchedRemovalPlan(g, lifted, edges)
        base_plus1 = lifted + 1
        buf = np.empty((g.n, g.n), dtype=np.int64)
        everywhere = np.ones(g.n, dtype=bool)
        for i, (a, b) in enumerate(edges):
            oracle = removal_distance_matrix(g, (a, b), mode="rebuild")
            for v, w in ((a, b), (b, a)):
                bound = plan.bound_costs(i, v, w, spec, base_plus1, buf)
                exact = all_swap_costs_for_drop(g, v, w, spec, oracle)
                assert (bound <= exact).all()
                patched = plan.exact_costs(
                    i, v, w, spec, bound=bound, candidates=everywhere
                )
                assert np.array_equal(patched, exact)


#: Every cost model the level-set bound serves (DESIGN.md §6).
SPECS = [
    "sum", "max",
    "interest-sum:k=3,seed=2", "interest-max:k=3,seed=2",
    "budget-sum:cap=3", "budget-max:cap=3",
]

#: Above the level form's crossover: its distances spread so widely that
#: scans of it bound row by row.
LONG_PATH = path_graph(90)


def _count_row_bounds(monkeypatch) -> list:
    """Record every per-row bound evaluated from here on."""
    calls: list = []
    per_row = batched._bound

    def counting(*args):
        calls.append(args[1])
        return per_row(*args)

    monkeypatch.setattr(batched, "_bound", counting)
    return calls


def _lifted(g):
    return lift_distances(distance_matrix(g))


class TestLevelBound:
    @pytest.mark.parametrize("spec", SPECS)
    def test_level_bound_equals_per_row_bound(self, spec, monkeypatch):
        # The level form forced on every input, the long path included,
        # against the per-row form it replaces: same floats, every entry.
        per_row = batched._bound
        monkeypatch.setattr(batched, "_LEVEL_BUDGET", math.inf)
        calls = _count_row_bounds(monkeypatch)
        for g in [*BATTERY, *EDGE_CASES.values(), LONG_PATH]:
            lifted = _lifted(g)
            if g.m == 0 or (lifted >= INT_INF).any():
                continue  # no edge, or a disconnected base: no levels
            model = resolve_cost_model(spec, g.n)
            plan = BatchedRemovalPlan(
                g, lifted, list(g.iter_edges()), levels=LevelSets(lifted)
            )
            base_plus1 = lifted + 1
            buf = np.empty((g.n, g.n), dtype=np.int64)
            for i, (a, b) in enumerate(plan.edges):
                for v, w in ((a, b), (b, a)):
                    got = plan.bound_costs(i, v, w, model, base_plus1, buf)
                    want = per_row(
                        model, v, plan.endpoint_row(i, v), base_plus1, buf
                    )
                    assert np.array_equal(got, want), (
                        spec, g.edges().tolist(), v, w
                    )
        assert calls == []  # every bound above came from the level form

    def test_bridge_rows_sit_at_the_sentinel(self):
        # The named bridge input does exercise INT_INF endpoint rows.
        g = EDGE_CASES["K4-bridge-K4"]
        plan = BatchedRemovalPlan(g, _lifted(g), [(3, 4)])
        assert (plan.endpoint_row(0, 3)[4:] == INT_INF).all()
        assert (plan.endpoint_row(0, 4)[:4] == INT_INF).all()

    def test_full_scans_of_diameter_2_graphs_bound_by_levels(
        self, monkeypatch
    ):
        # Only the first block (where scans of most non-equilibria stop)
        # bounds row by row; every later block bounds by levels.
        calls = _count_row_bounds(monkeypatch)
        star = star_graph(40)
        dense = random_connected_gnm(20, 90, seed=3)
        assert diameter_or_inf(star) == diameter_or_inf(dense) == 2
        # Both are at rest, so every scan walks every directed edge.
        for g in (star, dense):
            lifted = _lifted(g)
            for scan in (
                lambda: is_equilibrium(g, "sum"),
                lambda: is_equilibrium(g, "sum", base_dm=lifted),
                lambda: sum_equilibrium_gap(g) == 0.0,
            ):
                calls.clear()
                assert scan()
                assert len(calls) == 2 * batched._FIRST_BLOCK, len(calls)

    def test_scans_above_the_crossover_bound_row_by_row(self, monkeypatch):
        assert LevelSets(_lifted(LONG_PATH)).levels is None
        calls = _count_row_bounds(monkeypatch)
        assert sum_equilibrium_gap(LONG_PATH) == sum_equilibrium_gap(
            LONG_PATH, mode="rebuild"
        )
        assert len(calls) == 2 * LONG_PATH.m  # every block, every row
        for spec in SPECS:
            assert find_swap_violation(LONG_PATH, spec) == find_swap_violation(
                LONG_PATH, spec, mode="rebuild"
            ), spec

    def test_a_disconnected_base_has_no_levels(self):
        g = CSRGraph(4, [(0, 1), (2, 3)])
        assert LevelSets(_lifted(g)).levels is None


def _directed(walk):
    """The walk's blocks as ``(v, w, dv, costs(threshold))`` per edge."""
    for block in walk:
        for k, (v, w) in enumerate(zip(block.movers, block.drops)):
            yield (
                int(v), int(w), block.rows[k],
                functools.partial(block.costs, k),
            )


def _assert_costs_contract(g, spec):
    """The batched walk's ``costs(threshold)`` against exact legal costs.

    For every directed edge and each threshold in {inf, the mover's base
    cost, the exact legal minimum, that minimum + 1}: exact wherever the
    exact cost is below the threshold and at least the threshold
    elsewhere, ``None`` only when no exact cost is below it, and at inf
    the full patch bit for bit.
    """
    model = resolve_cost_model(spec, g.n)
    lifted = _lifted(g)
    base = model.base_costs(lifted)
    base_plus1 = lifted + 1
    buf = np.empty((g.n, g.n), dtype=np.int64)
    everywhere = np.ones(g.n, dtype=bool)
    walks = zip(
        _directed(equilibrium._audit_walk(g, lifted, model, "batched", None)),
        _directed(equilibrium._audit_walk(g, lifted, model, "rebuild", None)),
    )
    for (v, w, dv, costs), (_, _, _, rebuilt) in walks:
        exact = rebuilt(math.inf)
        bound = batched._bound(model, v, dv, base_plus1, buf)
        full = batched._legal(
            batched.exact_costs_from_bound(
                g, lifted, v, (v, w), dv, model, bound, everywhere
            ),
            model.target_mask(g, v, w),
            w,
        )
        low = float(np.min(exact))
        for threshold in (math.inf, float(base[v]), low, low + 1):
            got = costs(threshold)
            below = exact < threshold
            where = (spec, g.edges().tolist(), v, w, threshold)
            if got is None:
                assert not below.any(), where
                continue
            assert np.array_equal(got[below], exact[below]), where
            assert (got[~below] >= threshold).all(), where
            if threshold == math.inf:
                assert np.array_equal(got, full), where


class TestCostsContract:
    """``costs(threshold)``: legal costs, exact wherever they are below the
    threshold and at least the threshold elsewhere."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_battery_and_edge_cases(self, spec):
        for g in [*BATTERY, *EDGE_CASES.values()]:
            _assert_costs_contract(g, spec)

    @pytest.mark.parametrize("spec", SPECS)
    @given(g=ORACLE_INPUTS)
    @settings(max_examples=25, deadline=None)
    def test_generated_graphs(self, spec, g):
        _assert_costs_contract(g, spec)

    def test_patch_bfs_runs_only_the_candidate_rows(self, monkeypatch):
        # A non-bridge drop whose affected rows include targets that
        # cannot beat the mover's cost: the patch's union BFS receives
        # exactly the affected candidates.
        g = random_connected_gnm(24, 36, seed=7)
        lifted = _lifted(g)
        base = SUM_COST.base_costs(lifted)
        base_plus1 = lifted + 1
        buf = np.empty((g.n, g.n), dtype=np.int64)
        received = []
        union_bfs = repair.batched_removal_rows_multi

        def recording(graph, jobs_a, jobs_b, sources, **kwargs):
            received.append(np.array(sources))
            return union_bfs(graph, jobs_a, jobs_b, sources, **kwargs)

        monkeypatch.setattr(repair, "batched_removal_rows_multi", recording)
        for v, w, dv, costs in _directed(equilibrium._audit_walk(
            g, lifted, SUM_COST, "batched", None
        )):
            affected = removal_affected_sources(g, lifted, (v, w))
            bound = batched._bound(SUM_COST, v, dv, base_plus1, buf)
            bound[w] = math.inf
            candidates = bound < base[v]
            if affected.all() or not (affected & ~candidates).any():
                continue  # a bridge, or no affected non-candidate
            if not candidates.any():
                continue  # the bound alone settles the drop
            received.clear()
            assert costs(base[v]) is not None
            assert len(received) == 1
            assert np.array_equal(
                received[0], np.flatnonzero(affected & candidates)
            )
            break
        else:
            pytest.fail("no non-bridge drop with an affected non-candidate")


def _levels_everywhere():
    """Level bounds on every block but a one-edge first block."""
    return mock.patch.multiple(
        batched, _FIRST_BLOCK=1, _LEVEL_BUDGET=math.inf
    )


def _assert_survivors_sound(g, spec) -> int:
    """Rows the batched walk does not evaluate cannot beat their threshold.

    At the audits' threshold, the mover's base cost, every directed edge
    whose row the walk leaves out has an exact legal minimum (the rebuild
    engine's, all-exact) at or above it.  Returns how many it left out.
    """
    model = resolve_cost_model(spec, g.n)
    lifted = _lifted(g)
    base = model.base_costs(lifted)
    exact = {
        (v, w): costs(math.inf)
        for v, w, _, costs in _directed(
            equilibrium._audit_walk(g, lifted, model, "rebuild", None)
        )
    }
    skipped = 0
    for block in equilibrium._audit_walk(g, lifted, model, "batched", None):
        evaluated = list(block.evaluate(base))
        assert evaluated == sorted(set(evaluated))
        for k, (v, w) in enumerate(zip(block.movers, block.drops)):
            if k in evaluated:
                continue
            skipped += 1
            assert np.min(exact[v, w]) >= base[v], (
                spec, g.edges().tolist(), v, w
            )
    return skipped


class TestBlockWalk:
    """The batched walk evaluates, per block, only the rows that may win."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_survivors_are_sound_on_battery_and_edge_cases(self, spec):
        with _levels_everywhere():
            skipped = sum(
                _assert_survivors_sound(g, spec)
                for g in [*BATTERY, *EDGE_CASES.values()]
            )
        assert skipped > 0

    @pytest.mark.parametrize("spec", SPECS)
    @given(g=ORACLE_INPUTS)
    @settings(max_examples=25, deadline=None)
    def test_survivors_are_sound_on_generated_graphs(self, spec, g):
        with _levels_everywhere():
            _assert_survivors_sound(g, spec)

    def test_full_scans_of_a_star_verify_only_the_first_block(
        self, monkeypatch
    ):
        # A diameter-2 equilibrium in three blocks: the level bound
        # dismisses every row of the later two, so only the first block's
        # directed edges, bounded row by row, take the per-edge verify step.
        star = star_graph(40)
        lifted = _lifted(star)
        assert diameter_or_inf(star) == 2
        assert len(list(equilibrium._audit_walk(
            star, lifted, SUM_COST, "batched", None
        ))) == 3
        first = list(star.iter_edges())[: batched._FIRST_BLOCK]
        verified = []
        verify = equilibrium._verify

        def recording(plan, i, v, w, *args):
            verified.append((v, w))
            return verify(plan, i, v, w, *args)

        monkeypatch.setattr(equilibrium, "_verify", recording)
        for scan in (
            lambda: is_equilibrium(star, "sum"),
            lambda: find_swap_violation(star, "sum") is None,
            lambda: sum_equilibrium_gap(star) == 0.0,
        ):
            verified.clear()
            assert scan()
            assert verified == [
                edge for a, b in first for edge in ((a, b), (b, a))
            ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_block_row_costs_equal_the_per_row_cost(self, spec):
        for g in [*BATTERY, *EDGE_CASES.values()]:
            model = resolve_cost_model(spec, g.n)
            for block in equilibrium._audit_walk(
                g, _lifted(g), model, "batched", None
            ):
                got = equilibrium._row_costs(model, block.movers, block.rows)
                want = [
                    model.row_cost(v, row)
                    for v, row in zip(block.movers, block.rows)
                ]
                assert got.tolist() == want, (spec, g.edges().tolist())


def _max_endpoint():
    result = SwapDynamics(objective="max", seed=5).run(
        random_connected_gnm(24, 40, seed=5)
    )
    assert result.converged
    return result.graph


class TestOneWalk:
    """A max audit checks swaps and deletion-criticality in one walk."""

    @pytest.mark.parametrize("make", [lambda: star_graph(30), _max_endpoint],
                             ids=["star", "max-endpoint"])
    def test_full_max_audit_plans_each_edge_once(self, make, monkeypatch):
        g = make()
        rows = []
        union_bfs = batched.batched_removal_rows_multi

        def counting(graph, jobs_a, jobs_b, sources):
            rows.append(len(sources))
            return union_bfs(graph, jobs_a, jobs_b, sources)

        monkeypatch.setattr(batched, "batched_removal_rows_multi", counting)
        assert is_equilibrium(g, "max")
        assert sum(rows) == 2 * g.m, (rows, g.m)


class TestWorkerInvariance:
    """Fleet-grain parallel surfaces must be bit-identical across workers."""

    def test_sweep_across_worker_counts(self):
        exp = Experiment(
            name="sweep", point_fn=_sweep_point, grid={"x": [1, 2, 3]},
            task_fields=("x", "seed"), coord_fields=("x", "seed"),
            replicates=2, root_seed=4,
        )
        assert run_fleet(exp, workers=1) == run_fleet(exp, workers=4)

    @pytest.mark.parametrize("mode", ["batched", "rebuild"])
    @pytest.mark.parametrize("name", AUDITS)
    def test_audit_in_fleet_worker_matches_in_process(self, name, mode):
        tasks = [(name, mode, g) for g in FLEET_GRAPHS]
        in_process = [_audit_task(t) for t in tasks]
        assert parallel_map(_audit_task, tasks, workers=2) == in_process
        # The battery must hold both verdicts, or parity proves little.
        assert {_at_rest(r) for r in in_process} == {True, False}


class TestCensusFleet:
    def test_fleet_matches_serial_and_streams_jsonl(self, tmp_path):
        exp = census_experiment(
            [8, 10], families=("tree", "sparse"), replicates=2, root_seed=13,
        )
        serial = run_fleet(exp, jsonl_path=tmp_path / "serial.jsonl")
        fleet = run_fleet(
            exp, workers=4, jsonl_path=tmp_path / "fleet.jsonl"
        )
        assert fleet == serial  # records and record order, bit-identical
        serial_text = (tmp_path / "serial.jsonl").read_text()
        assert serial_text == (tmp_path / "fleet.jsonl").read_text()
        lines = serial_text.splitlines()
        # One run-config header line plus one line per record.
        assert len(lines) == len(serial) + 1 == 9
        header = json.loads(lines[0])
        assert header["objective"] == "sum" and header["root_seed"] == 13
        first = json.loads(lines[1])
        assert first["n"] == 8 and first["family"] == "tree"

    def test_resume_continues_interrupted_stream(self, tmp_path):
        exp = census_experiment(
            [8], families=("tree", "sparse"), replicates=2, root_seed=3,
        )
        path = tmp_path / "census.jsonl"
        full = run_fleet(exp, jsonl_path=path)
        text = path.read_text()
        lines = text.splitlines()
        # Simulate a crash: keep 2 complete records plus a torn third line.
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][:13])
        resumed = run_fleet(exp, jsonl_path=path, resume=True)
        assert resumed == full
        assert path.read_text() == text

    def test_resume_rejects_mismatched_grid(self, tmp_path):
        path = tmp_path / "census.jsonl"
        run_fleet(
            census_experiment([6], families=("tree",), replicates=1),
            jsonl_path=path,
        )
        with pytest.raises(ValueError):
            run_fleet(
                census_experiment(
                    [6], families=("tree",), replicates=1, root_seed=99,
                ),
                jsonl_path=path, resume=True,
            )

    def test_resume_requires_jsonl_path(self):
        with pytest.raises(ValueError):
            run_fleet(census_experiment([6]), resume=True)

    def test_exhaustive_census_sharding_matches_serial(self):
        serial = exhaustive_equilibrium_census(5, "sum")
        sharded = exhaustive_equilibrium_census(5, "sum", workers=4)
        assert sharded.n == serial.n
        assert sharded.connected_graphs == serial.connected_graphs
        assert sharded.audited == serial.audited
        assert set(sharded.by_diameter) == set(serial.by_diameter)
        for d, cell in serial.by_diameter.items():
            other = sharded.by_diameter[d]
            assert (other.graphs, other.equilibria, other.example) == (
                cell.graphs, cell.equilibria, cell.example
            )

    def test_exhaustive_census_workers_with_mask_range_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            exhaustive_equilibrium_census(
                4, "sum", mask_range=(0, 8), workers=2
            )


class TestBestSwapBaseDm:
    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_precomputed_base_dm_matches(self, objective):
        g = random_connected_gnm(11, 18, seed=2)
        dm = distance_matrix(g)
        for v in range(0, g.n, 2):
            plain = best_swap(g, v, objective)
            primed = best_swap(g, v, objective, base_dm=dm)
            lifted = best_swap(g, v, objective, base_dm=lift_distances(dm))
            for other in (primed, lifted):
                assert plain.swap == other.swap
                assert plain.before == other.before
                assert plain.after == other.after
                assert plain.is_deletion == other.is_deletion


# Every entry point that takes a caller's base matrix checks its shape.
@pytest.mark.parametrize("call", [
    lambda g, dm: is_equilibrium(g, base_dm=dm),
    lambda g, dm: best_swap(g, 1, base_dm=dm),
    lambda g, dm: find_deletion_criticality_violation(g, base_dm=dm),
    lambda g, dm: removal_distance_matrix(g, (0, 1), base_dm=dm),
], ids=[
    "is_equilibrium", "best_swap", "find_deletion_criticality_violation",
    "removal_distance_matrix",
])
def test_mismatched_base_dm_is_a_graph_error(call):
    wrong = distance_matrix(path_graph(5))
    with pytest.raises(GraphError, match=r"\(5, 5\).*\(4, 4\)"):
        call(path_graph(4), wrong)
