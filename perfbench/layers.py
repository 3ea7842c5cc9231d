"""The traced layers and the per-layer metrics derived from their spans.

Each :class:`~tracer.Target` names one public function (or method) of a
library module; its spans give ``<name>.calls`` and ``<name>.self_s``.
Probes add the per-call quantities some layers report (bytes, rows, hits).
Metrics that come from the workload rather than from spans (dynamics
counters, service latencies, ``/stats``) are filled in by the workloads;
:data:`PER_LAYER` is the complete list a traced run reports.  A value of
:data:`ABSENT` marks a layer the code no longer has.
"""

from __future__ import annotations

import os

from tracer import Span, Target, self_times

__all__ = ["ABSENT", "PER_LAYER", "TARGETS", "span_metrics"]

#: Reported for every metric of a traced name the code no longer defines.
ABSENT = -1.0


def _rows(args, kwargs):
    sources = args[3] if len(args) > 3 else kwargs["sources"]
    return lambda result: len(sources)


def _bound_bytes(args, kwargs):
    # np.minimum reads base_plus1 and writes buf; the row aggregate reads buf.
    base_plus1, buf = args[5], args[6]
    return lambda result: base_plus1.nbytes + 2 * buf.nbytes


def _planned_edges(args, kwargs):
    edges = args[3] if len(args) > 3 else kwargs["edges"]
    return lambda result: len(edges)


def _changed_rows(args, kwargs):
    return lambda result: int(result.sum())


def _file_bytes(args, kwargs):
    return lambda result: os.path.getsize(result)


def _appended_bytes(args, kwargs):
    sink = args[1]
    start = sink.tell()
    return lambda result: sink.tell() - start


def _hit(args, kwargs):
    return lambda result: result is not None


TARGETS = [
    Target("graphs.distance_matrix", "repro.graphs.distances",
           "distance_matrix"),
    Target("graphs.repair.predecessor_counts", "repro.graphs.repair",
           "predecessor_counts"),
    Target("graphs.repair.removal_affected_matrix", "repro.graphs.repair",
           "removal_affected_matrix"),
    Target("graphs.repair.batched_removal_rows_multi", "repro.graphs.repair",
           "batched_removal_rows_multi", _rows),
    Target("graphs.repair.removal_matrix_repair", "repro.graphs.repair",
           "removal_matrix_repair"),
    Target("graphs.adjacency.to_csr", "repro.graphs.adjacency",
           "AdjacencyGraph.to_csr"),
    Target("graphs.adjacency.edge_set", "repro.graphs.adjacency",
           "AdjacencyGraph.edge_set"),
    Target("graphs.graph6.from_graph6", "repro.graphs.graph6", "from_graph6"),
    Target("core.batched.plan", "repro.core.batched",
           "BatchedRemovalPlan.__init__", _planned_edges),
    Target("core.batched.bound_costs", "repro.core.batched",
           "BatchedRemovalPlan.bound_costs", _bound_bytes),
    Target("core.batched.exact_costs", "repro.core.batched",
           "exact_costs_from_bound"),
    Target("core.batched.best_swap_scan", "repro.core.batched",
           "best_swap_scan"),
    Target("core.batched.certify_at_rest", "repro.core.batched",
           "certify_at_rest"),
    Target("core.engine.apply_swap", "repro.core.engine",
           "DistanceEngine.apply_swap", _changed_rows),
    Target("io.checkpoint.save", "repro.io.checkpoint",
           "CheckpointStore.save", _file_bytes),
    Target("io.canonical_json", "repro.io.result_cache", "canonical_json"),
    Target("io.fsutil.publish_replace", "repro.io.fsutil", "publish_replace"),
    Target("io.fsutil.fsync_dir", "repro.io.fsutil", "fsync_dir"),
    Target("io.jsonl_store.append", "repro.io.jsonl_store",
           "JsonlStore.append", _appended_bytes),
    Target("io.result_cache.get", "repro.io.result_cache", "ResultCache.get",
           _hit),
    Target("io.result_cache.put", "repro.io.result_cache", "ResultCache.put"),
    Target("io.hashing.graph_fingerprint", "repro.io.hashing",
           "graph_fingerprint"),
    Target("parallel.map_streamed", "repro.parallel.shared", "map_streamed"),
    Target("parallel.parallel_map", "repro.parallel.pool", "parallel_map"),
    Target("experiments.run_fleet", "repro.experiments.experiment",
           "run_fleet"),
]

#: Span metrics beyond calls/self_s (name -> unit); each sums its layer's
#: probe values.
_EXTRAS = {
    "graphs.repair.batched_removal_rows_multi.rows": "count",
    "core.batched.bound_costs.bytes": "bytes",
    "core.engine.apply_swap.changed_rows": "count",
    "io.checkpoint.save.bytes": "bytes",
    "io.jsonl_store.append.bytes": "bytes",
    "io.result_cache.get.hits": "count",
}

#: Metrics the workloads supply (name -> unit).
WORKLOAD_METRICS = {
    "core.dynamics.steps": "count",
    "core.dynamics.activations": "count",
    "experiments.quarantined": "count",
    "service.handler_ms": "ms",
    "service.transport_ms": "ms",
    "service.stats.hits": "count",
    "service.stats.misses": "count",
    "service.stats.compute_failures": "count",
    "service.stats.store_failures": "count",
    "service.stats.shed": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}

_RATIOS = {
    "core.batched.bound_survival": "ratio",
    "core.batched.best_swap_scan.level0_share": "ratio",
}

_REPORTED = [t.name for t in TARGETS]


def _per_layer() -> "dict[str, str]":
    out: "dict[str, str]" = {}
    for name in _REPORTED:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        for extra, unit in _EXTRAS.items():
            if extra.rsplit(".", 1)[0] == name:
                out[extra] = unit
    out.update(_RATIOS)
    out.update(WORKLOAD_METRICS)
    return out


#: Every per-layer metric a traced run reports: name -> unit.
PER_LAYER = _per_layer()


def span_metrics(
    spans: "list[Span]", absent: "list[str]", broken=()
) -> "dict[str, float]":
    """``calls``/``self_s``/extras per target, plus the two kernel ratios.

    ``bound_survival`` divides exact fallbacks (``exact_costs_from_bound``
    calls) by per-edge bound evaluations: ``bound_costs`` calls plus the
    edges ``best_swap_scan`` planned, each of which it gates with an inline
    bound.  ``level0_share`` is the share of ``best_swap_scan`` calls that
    built no plan.  Layers in ``absent`` (no such function) report
    :data:`ABSENT` throughout; layers in ``broken`` (a probe that no longer
    fits the call) for their probe values.
    """
    selfs = self_times(spans)
    calls = {t.name: 0 for t in TARGETS}
    self_s = {t.name: 0.0 for t in TARGETS}
    extra = {t.name: 0.0 for t in TARGETS}
    planned = set()  # span indices of best_swap_scan calls that built a plan
    scan_edges = 0.0
    for i, span in enumerate(spans):
        if span.name not in calls:
            continue
        calls[span.name] += 1
        self_s[span.name] += selfs[i]
        extra[span.name] += span.extra
        if span.name == "core.batched.plan" and span.parent >= 0:
            if spans[span.parent].name == "core.batched.best_swap_scan":
                planned.add(span.parent)
                scan_edges += span.extra
    out: "dict[str, float]" = {}
    for name in _REPORTED:
        gone = name in absent
        out[f"{name}.calls"] = ABSENT if gone else float(calls[name])
        out[f"{name}.self_s"] = ABSENT if gone else self_s[name]
    gone = set(absent) | set(broken)
    for metric in _EXTRAS:
        name = metric.rsplit(".", 1)[0]
        out[metric] = ABSENT if name in gone else extra[name]
    bounds = calls["core.batched.bound_costs"] + scan_edges
    scans = calls["core.batched.best_swap_scan"]
    out["core.batched.bound_survival"] = (
        ABSENT if gone & {"core.batched.bound_costs", "core.batched.exact_costs",
                          "core.batched.plan"}
        else calls["core.batched.exact_costs"] / bounds if bounds else 0.0
    )
    out["core.batched.best_swap_scan.level0_share"] = (
        ABSENT if gone & {"core.batched.best_swap_scan", "core.batched.plan"}
        else (scans - len(planned)) / scans if scans else 0.0
    )
    return out
