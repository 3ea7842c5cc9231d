"""The five workloads, each driven from one thread through the public API.

A workload builds its inputs from the seed in :meth:`Workload.setup`
(repeatable: the runner sets up several times and keeps the last), then
runs *units* — one audit, one rotation of trajectories, one fleet, one
request — each of which times its ops and checks their answers outside
the timed interval.  :meth:`Workload.finish` runs the end-of-phase checks.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import (
    SwapDynamics,
    best_swap,
    find_deletion_criticality_violation,
    find_swap_violation,
    is_equilibrium,
    seed_graph,
)
import repro.experiments as experiments
from repro.graphs import CSRGraph, from_graph6, random_connected_gnm, to_graph6
from repro.io import FleetFailure
from repro.rng import derive_seed
from repro.service import build_server

__all__ = ["WORKLOADS", "Op", "Workload"]

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "audit_sum_n512.g6"
FAMILIES = ("tree", "sparse", "dense")
MODELS = ("sum", "max")
#: Trajectory settings of the registered ``trajectory`` experiment.
TRAJECTORY = {"max_steps": 20_000, "record": True, "engine_mode": "batched"}
QUERY_KINDS = ("find_swap_violation", "is_equilibrium", "best_swap",
               "criticality")


@dataclasses.dataclass
class Op:
    """One timed op: its latency, and whether its answer checked out."""

    latency_s: float
    ok: bool
    detail: str = ""


class Workload:
    name: str
    #: Percentile reported as ``op_tail_ms`` (fixed per workload).
    tail_pct: int

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        #: Per-layer metrics read from the results (dynamics counters).
        self.layer: "dict[str, float]" = {}
        #: Extra facts for the report line.
        self.notes: dict = {}

    def setup(self, index: int) -> None:
        """Build inputs and warm up; ``index`` numbers repeated set-ups."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built (servers, directories)."""

    def before_replay(self) -> None:
        """Reset state so a replay of the same units does the same work."""

    def unit(self, i: int) -> "list[Op]":
        raise NotImplementedError

    def finish(self) -> "list[str]":
        """End-of-phase checks; returns the problems found."""
        return []


# ---------------------------------------------------------------------------
# audit — full batched audits of committed sum equilibria
# ---------------------------------------------------------------------------

class AuditWorkload(Workload):
    """``is_equilibrium(g, "sum", mode="batched")`` on relabeled fixtures."""

    name = "audit"
    tail_pct = 25

    def setup(self, index: int) -> None:
        lines = FIXTURES.read_text().split()
        self.fixtures = [from_graph6(line) for line in lines]
        if self.smoke:
            self.fixtures = [_smoke_equilibrium()]
        # Warm the audit path (scipy's first call, numpy kernels) off-clock.
        is_equilibrium(_smoke_equilibrium(), "sum", mode="batched")

    def relabeled(self, i: int) -> CSRGraph:
        graph = self.fixtures[i % len(self.fixtures)]
        perm = np.random.default_rng(derive_seed(self.seed, i)).permutation(
            graph.n
        )
        return CSRGraph(
            graph.n, [(perm[a], perm[b]) for a, b in graph.iter_edges()]
        )

    def unit(self, i: int) -> "list[Op]":
        graph = self.relabeled(i)
        start = time.perf_counter()
        answer = is_equilibrium(graph, "sum", mode="batched")
        latency = time.perf_counter() - start
        return [Op(latency, answer is True, "" if answer else "not at rest")]


def _smoke_equilibrium() -> CSRGraph:
    """A small sum equilibrium (a star) for warm-ups and smoke runs."""
    return CSRGraph(24, [(0, v) for v in range(1, 24)])


# ---------------------------------------------------------------------------
# converge — batched swap dynamics to convergence, no I/O
# ---------------------------------------------------------------------------

class ConvergeWorkload(Workload):
    """One unit = one rotation over families × models; one op = one run."""

    name = "converge"
    tail_pct = 55

    def setup(self, index: int) -> None:
        self.n = 24 if self.smoke else 128
        self.layer = {"core.dynamics.steps": 0.0,
                      "core.dynamics.activations": 0.0}
        _run_dynamics("sum", seed_graph("sparse", 16, 0), 0)

    def cells(self, i: int):
        for c, (model, family) in enumerate(
            (m, f) for m in MODELS for f in FAMILIES
        ):
            seed = derive_seed(self.seed, i, c)
            yield model, seed_graph(family, self.n, seed), seed

    def unit(self, i: int) -> "list[Op]":
        ops = []
        for model, initial, seed in self.cells(i):
            start = time.perf_counter()
            result = _run_dynamics(model, initial, seed)
            latency = time.perf_counter() - start
            ok = result.converged and is_equilibrium(
                result.graph, model, mode="batched", base_dm=result.final_dm
            )
            self.layer["core.dynamics.steps"] += result.steps
            self.layer["core.dynamics.activations"] += result.activations
            ops.append(Op(latency, bool(ok), "" if ok else "not converged"))
        return ops


def _run_dynamics(model: str, initial: CSRGraph, seed: int):
    dynamics = SwapDynamics(
        model, seed=derive_seed(seed, 1), **TRAJECTORY
    )
    return dynamics.run(initial)


# ---------------------------------------------------------------------------
# fleet — serial run_fleet of the registered trajectory experiment
# ---------------------------------------------------------------------------

class FleetWorkload(Workload):
    """One unit = one fleet over the families (sum); one op = one slot."""

    name = "fleet"
    # Three equally frequent cells (tree < sparse < dense): p50 and p83 sit
    # in the middle of the second and third.
    tail_pct = 83
    checkpoint_every = 50
    #: Objectives of each fleet.  Sum only: with max too, dense/max slots
    #: (~0.8 s, 200-340 steps) took 40% of the time and put p50 in the gap
    #: between two cells, and fleet medians spread 12-23% across seeds.
    objectives = ("sum",)

    def setup(self, index: int) -> None:
        # n=64, not converge's 128: on a 2-core host a 15 s run then holds
        # ~90 slots rather than 12, whose throughput spread 15% across seeds.
        self.n = 24 if self.smoke else 64
        self.layer = {"core.dynamics.steps": 0.0,
                      "core.dynamics.activations": 0.0,
                      "experiments.quarantined": 0.0}
        self.problems: "list[str]" = []
        self.fleet(f"warmup-{index}", derive_seed(self.seed, 10**6), 12,
                   families=("tree",), objectives=("sum",))

    def fleet(self, tag: str, root_seed: int, n: int, **grid):
        """Run one fleet in fresh directories.

        Returns ``(records, per-slot latencies, problems)``.  A slot's
        latency runs from the previous slot's completion (the first: from
        the fleet's start) to its own, and the last slot's extends to the
        fleet's end, so the latencies sum to the fleet's wall time and
        include the stream appends and checkpoint writes between tasks.
        """
        base = self.workdir / f"fleet-{tag}"
        stream, ckpt = base / "stream.jsonl", base / "checkpoints"
        base.mkdir(parents=True)
        experiment = experiments.build_experiment(
            "trajectory", n_values=[n], replicates=1, root_seed=root_seed,
            **grid,
        )
        stamps: "list[float]" = []
        point_fn = experiment.point_fn

        def stamped(task):
            record = point_fn(task)
            stamps.append(time.perf_counter())
            return record

        experiment = dataclasses.replace(experiment, point_fn=stamped)
        start = time.perf_counter()
        # Looked up at call time, so a traced run sees the call.
        records = experiments.run_fleet(
            experiment, workers=1, jsonl_path=stream,
            checkpoint_dir=ckpt, checkpoint_every=self.checkpoint_every,
        )
        end = time.perf_counter()
        marks = [start] + stamps[:-1] + [end] if stamps else [start, end]
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        problems = self.check(records, stream, ckpt, experiment.total_tasks())
        shutil.rmtree(base)
        return records, latencies, problems

    @staticmethod
    def check(records, stream: Path, ckpt: Path, total: int) -> "list[str]":
        problems = []
        lines = stream.read_text().splitlines()[1:]  # header first
        if len(lines) != total or len(records) != total:
            problems.append(f"stream holds {len(lines)} records, want {total}")
        if any('"fleet_failure"' in line for line in lines):
            problems.append("stream holds fleet_failure records")
        if any(ckpt.iterdir()):
            problems.append("checkpoint directory not empty after the fleet")
        return problems

    def unit(self, i: int) -> "list[Op]":
        records, latencies, problems = self.fleet(
            str(i), derive_seed(self.seed, i), self.n,
            objectives=self.objectives,
        )
        self.problems += problems
        ops = []
        for record, latency in zip(records, latencies):
            if isinstance(record, FleetFailure):
                self.layer["experiments.quarantined"] += 1
                ops.append(Op(latency, False, record.error))
                continue
            ok = record.converged and record.verified_equilibrium is True
            self.layer["core.dynamics.steps"] += record.steps
            self.layer["core.dynamics.activations"] += record.activations
            ops.append(Op(latency, ok, "" if ok else "not verified"))
        return ops

    def finish(self) -> "list[str]":
        return self.problems


# ---------------------------------------------------------------------------
# service-cold / service-warm — one keep-alive client, in-process server
# ---------------------------------------------------------------------------

class _Service:
    """An in-process ``build_server`` with defaults and one keep-alive client."""

    def __init__(self, cache_dir: Path):
        self.server = build_server(port=0, cache_dir=str(cache_dir))
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-server"
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str, body: "dict | None" = None):
        """``(status, decoded body, client latency in seconds)``."""
        blob = None if body is None else json.dumps(body).encode()
        headers = {} if blob is None else {"Content-Type": "application/json"}
        start = time.perf_counter()
        self.conn.request(method, path, body=blob, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        latency = time.perf_counter() - start
        return response.status, json.loads(raw) if raw else None, latency

    def stats(self) -> dict:
        status, body, _ = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return {
            "service.stats.hits": body["cache"]["hits"],
            "service.stats.misses": body["cache"]["misses"],
            "service.stats.compute_failures": body["compute_failures"],
            "service.stats.store_failures": body["store_failures"],
            "service.stats.shed": body["admission"]["shed_count"],
        }

    def close(self) -> None:
        self.conn.close()
        self.server.close()
        self.thread.join()


def _query(i: int, seed: int, n: int, m: int) -> "tuple[dict, CSRGraph]":
    """Request ``i``: a fresh random graph, kinds cycling, models alternating."""
    graph = random_connected_gnm(n, m, derive_seed(seed, i))
    body = {
        "query": QUERY_KINDS[i % len(QUERY_KINDS)],
        "model": MODELS[(i // len(QUERY_KINDS)) % len(MODELS)],
        "graph6": to_graph6(graph),
    }
    if body["query"] == "best_swap":
        body["vertex"] = int(derive_seed(seed, i, 1) % n)
    return body, graph


def _inf(value):
    return value if math.isfinite(value) else ("inf" if value > 0 else "-inf")


def _violation(violation) -> dict:
    if violation is None:
        return {"violation": None}
    return {"violation": {
        "kind": violation.kind, "vertex": int(violation.vertex),
        "drop": None if violation.drop is None else int(violation.drop),
        "add": violation.add, "before": _inf(float(violation.before)),
        "after": _inf(float(violation.after)),
    }}


def direct_answer(body: dict, graph: CSRGraph) -> dict:
    """The library's own answer to a service query, encoded like the service.

    Library defaults throughout: every audit mode answers bit-identically.
    """
    kind, model = body["query"], body["model"]
    if kind == "is_equilibrium":
        return {"is_equilibrium": bool(is_equilibrium(graph, model))}
    if kind == "find_swap_violation":
        return _violation(find_swap_violation(graph, model))
    if kind == "criticality":
        return _violation(find_deletion_criticality_violation(graph))
    response = best_swap(graph, body["vertex"], model)
    swap = response.swap
    return {
        "swap": None if swap is None else [swap.vertex, swap.drop, swap.add],
        "before": _inf(float(response.before)),
        "after": _inf(float(response.after)),
        "is_deletion": bool(response.is_deletion),
    }


class _ServiceWorkload(Workload):
    def setup(self, index: int) -> None:
        self.n, self.m = (32, 64) if self.smoke else (128, 256)
        self.phase_counts = {"setup": _counts(), "timed": _counts()}
        self.handler_ms: "list[float]" = []
        self.transport_ms: "list[float]" = []
        self.service = None
        self.start_service(index)

    def start_service(self, tag) -> None:
        if self.service is not None:
            self.service.close()
        cache = self.workdir / f"cache-{tag}"
        if cache.exists():
            shutil.rmtree(cache)
        self.service = _Service(cache)
        # Warm the server thread, the pool rung and the audit path.
        warm = {"query": "is_equilibrium", "model": "sum",
                "graph6": to_graph6(random_connected_gnm(16, 20, 0))}
        self._send(warm, "setup")

    def _send(self, body: dict, phase: str):
        counts = self.phase_counts[phase]
        counts["sent"] += 1
        status, answer, latency = self.service.request("POST", "/audit", body)
        ok = status == 200 and bool(answer) and answer.get("ok") is True
        counts["succeeded" if ok else "failed"] += 1
        return ok, answer, latency

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def timed_request(self, body: dict):
        ok, answer, latency = self._send(body, "timed")
        if ok:
            elapsed = float(answer["elapsed_ms"])
            self.handler_ms.append(elapsed)
            self.transport_ms.append(latency * 1e3 - elapsed)
        return ok, answer, latency


def _counts() -> dict:
    return {"sent": 0, "succeeded": 0, "failed": 0}


class ServiceColdWorkload(_ServiceWorkload):
    """Every request is a new graph: admission, pool rung, audit, cache put."""

    name = "service-cold"
    # p90, not the p95 the sample count allows: with ~250 requests per run
    # on a 2-core host the p95 median moved 27% between two ten-run sets of
    # identical code.
    tail_pct = 90
    #: Share of requests re-answered by direct library calls afterwards.
    sample_share = 0.1

    def setup(self, index: int) -> None:
        super().setup(index)
        self.sampled: "list[tuple[dict, CSRGraph, dict]]" = []

    def before_replay(self) -> None:
        # A replay must miss the cache again: a fresh server and cache dir.
        self.start_service("replay")

    def unit(self, i: int) -> "list[Op]":
        body, graph = _query(i, self.seed, self.n, self.m)
        ok, answer, latency = self.timed_request(body)
        if ok and answer["cached"]:
            return [Op(latency, False, "cold request answered from cache")]
        if ok and np.random.default_rng(
            derive_seed(self.seed, i, 2)
        ).random() < self.sample_share:
            self.sampled.append((body, graph, answer["result"]))
        return [Op(latency, ok, "" if ok else f"request {i} failed")]

    def finish(self) -> "list[str]":
        problems = []
        for body, graph, result in self.sampled:
            if direct_answer(body, graph) != result:
                problems.append(f"service answer differs for {body['query']}")
        self.notes["sampled"] = len(self.sampled)
        return problems


class ServiceWarmWorkload(_ServiceWorkload):
    """Setup fills the cache; timed requests re-issue it, all hits."""

    name = "service-warm"
    tail_pct = 96
    #: Distinct queries the set-up caches and the timed phase cycles through.
    distinct = 12

    def setup(self, index: int) -> None:
        super().setup(index)
        self.queries = []
        for i in range(self.distinct):
            body, _ = _query(i, self.seed, self.n, self.m)
            ok, answer, _ = self._send(body, "setup")
            if not ok or answer["cached"]:
                raise RuntimeError(f"cache fill request {i} failed")
            self.queries.append((body, _canonical(answer["result"])))

    def unit(self, i: int) -> "list[Op]":
        body, expected = self.queries[i % len(self.queries)]
        ok, answer, latency = self.timed_request(body)
        if ok and not (answer["cached"]
                       and _canonical(answer["result"]) == expected):
            return [Op(latency, False, "warm answer not the cached one")]
        return [Op(latency, ok, "" if ok else f"request {i} failed")]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


WORKLOADS = {
    w.name: w
    for w in (AuditWorkload, ConvergeWorkload, FleetWorkload,
              ServiceColdWorkload, ServiceWarmWorkload)
}
