"""The tracer: self-time arithmetic, wrapping at every binding, absences."""

import numpy as np

import repro.core.batched
import repro.graphs
import repro.graphs.repair
from repro.graphs import CSRGraph, random_connected_gnm
from layers import ABSENT, TARGETS, span_metrics
from tracer import Span, Target, Tracer, self_times


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, thread=0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),
        _span("late", 8.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_span_metrics_sum_self_time_per_layer():
    spans = [
        _span("op", 0.0, 10.0),
        _span("core.batched.best_swap_scan", 1.0, 5.0, parent=0),
        _span("core.batched.plan", 2.0, 4.0, parent=1),
        _span("core.batched.best_swap_scan", 6.0, 7.0, parent=0),
    ]
    metrics = span_metrics(spans, absent=[])
    assert metrics["core.batched.best_swap_scan.calls"] == 2
    assert metrics["core.batched.best_swap_scan.self_s"] == 3.0
    assert metrics["core.batched.plan.self_s"] == 2.0
    assert metrics["core.batched.best_swap_scan.level0_share"] == 0.5


def test_wraps_every_binding_and_restores():
    original = repro.graphs.repair.batched_removal_rows_multi
    assert repro.core.batched.batched_removal_rows_multi is original
    tracer = Tracer([t for t in TARGETS
                     if t.name == "graphs.repair.batched_removal_rows_multi"])
    with tracer:
        for module in (repro.graphs.repair, repro.graphs, repro.core.batched):
            assert module.batched_removal_rows_multi is not original
        graph = random_connected_gnm(12, 20, 3)
        a, b = next(iter(graph.iter_edges()))
        repro.core.batched.batched_removal_rows_multi(
            graph, np.array([a]), np.array([b]), np.array([a])
        )
    for module in (repro.graphs.repair, repro.graphs, repro.core.batched):
        assert module.batched_removal_rows_multi is original
    assert [s.name for s in tracer.spans] == [
        "graphs.repair.batched_removal_rows_multi"
    ]
    assert tracer.spans[0].extra == 1  # one (edge, source) row


def test_methods_are_wrapped_on_their_class():
    from repro.core import is_equilibrium
    from repro.core.batched import BatchedRemovalPlan

    original = BatchedRemovalPlan.__dict__["bound_costs"]
    tracer = Tracer([t for t in TARGETS if t.name.startswith("core.batched.")])
    star = CSRGraph(8, [(0, v) for v in range(1, 8)])
    with tracer:
        assert is_equilibrium(star, "sum", mode="batched")
    assert BatchedRemovalPlan.__dict__["bound_costs"] is original
    metrics = span_metrics(tracer.spans, tracer.absent)
    assert metrics["core.batched.bound_costs.calls"] == 14  # 7 edges, 2 ways
    assert metrics["core.batched.bound_costs.bytes"] == 14 * 3 * 8 * 8 * 8
    assert metrics["core.batched.bound_survival"] == 0.0


def test_missing_names_are_reported_absent():
    targets = [
        Target("gone.function", "repro.graphs.repair", "no_such_function"),
        Target("gone.method", "repro.core.batched", "BatchedRemovalPlan.nope"),
        Target("gone.module", "repro.no_such_module", "anything"),
    ]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["gone.function", "gone.method", "gone.module"]
    metrics = span_metrics([], absent=["core.batched.bound_costs"])
    assert metrics["core.batched.bound_costs.calls"] == ABSENT
    assert metrics["core.batched.bound_costs.bytes"] == ABSENT
    assert metrics["core.batched.bound_survival"] == ABSENT


def test_a_probe_that_no_longer_fits_marks_its_values_unavailable():
    def stale(args, kwargs):
        return args[99]  # the signature changed under the probe

    target = Target("graphs.repair.predecessor_counts", "repro.graphs.repair",
                    "predecessor_counts", stale)
    graph = random_connected_gnm(10, 12, 2)
    from repro.core.costs import lift_distances
    from repro.graphs import distance_matrix

    lifted = lift_distances(distance_matrix(graph))
    with Tracer([target]) as tracer:
        repro.graphs.repair.predecessor_counts(graph, lifted)
    assert tracer.broken == {"graphs.repair.predecessor_counts"}
    assert len(tracer.spans) == 1
