"""Load generator for the equilibrium-audit service (DESIGN.md §10).

Starts a real :class:`repro.service.AuditServer` on an ephemeral port and
drives it over HTTP with a deterministic query mix (swap audits, full
equilibrium checks, best responses, criticality) across a grid of random
connected graphs — twice.  The cold pass measures compute-bound
queries/sec; the warm pass re-issues the identical queries and measures
cache-hit throughput, asserting every warm answer is bit-equal to its cold
one.  One ``service`` arm entry is appended to the
``results/checker_scaling.json`` trajectory (label ``pr7-audit-service``).

``REPRO_BENCH_SMOKE=1`` shrinks the grid and writes to the smoke file, as
elsewhere in the bench suite.
"""

import json
import os
import tempfile
import threading
import time
import urllib.request

from repro.graphs import random_connected_gnm
from repro.graphs.graph6 import to_graph6
from repro.service import build_server

_ENTRY_LABEL = "pr7-audit-service"


def _post(base: str, path: str, body: dict) -> dict:
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as response:
        return json.loads(response.read())


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read())


def _workload(n: int, graphs: int) -> list[dict]:
    """The deterministic query mix for one grid size (batch per graph)."""
    requests = []
    for i in range(graphs):
        g6 = to_graph6(random_connected_gnm(n, 2 * n, seed=100 + i))
        requests.append(
            {
                "graph6": g6,
                "model": "sum",
                "timeout_s": 120.0,
                "queries": [
                    {"query": "find_swap_violation"},
                    {"query": "is_equilibrium"},
                    {"query": "best_swap", "vertex": i % n},
                    {"query": "criticality"},
                ],
            }
        )
    return requests


def _drive(base: str, requests: list[dict]) -> tuple[float, list]:
    start = time.perf_counter()
    responses = [_post(base, "/batch", r) for r in requests]
    elapsed = time.perf_counter() - start
    assert all(r["ok"] for r in responses)
    return elapsed, [r["results"] for r in responses]


def _load_history(path) -> list:
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if isinstance(data, dict) and "history" in data:
        return data["history"]
    return []


def test_service_report(results_dir):
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    sizes = [(16, 4)] if smoke else [(24, 6), (48, 6), (96, 4)]
    entry: dict = {
        "label": _ENTRY_LABEL,
        "cpu_count": os.cpu_count(),
        "service": [],
    }

    server = build_server(
        port=0,
        cache_dir=tempfile.mkdtemp(prefix="audit-cache-bench-"),
        capacity=1,
        queue_limit=8,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    base = f"http://{host}:{port}"
    try:
        for n, graphs in sizes:
            requests = _workload(n, graphs)
            queries = sum(len(r["queries"]) for r in requests)
            before = _get(base, "/stats")["cache"]
            t_cold, cold = _drive(base, requests)
            t_warm, warm = _drive(base, requests)
            after = _get(base, "/stats")["cache"]
            # Warm answers must be bit-equal to cold ones, and cached.
            for cold_batch, warm_batch in zip(cold, warm):
                for c, w in zip(cold_batch, warm_batch):
                    assert w["result"] == c["result"]
                    assert w["cached"], w
            hits = after["hits"] - before["hits"]
            lookups = (
                after["hits"] + after["misses"]
                - before["hits"] - before["misses"]
            )
            entry["service"].append(
                {
                    "n": n,
                    "graphs": graphs,
                    "queries": 2 * queries,
                    "queries_per_sec": round(
                        2 * queries / (t_cold + t_warm), 1
                    ),
                    "cold_qps": round(queries / t_cold, 1),
                    "warm_qps": round(queries / t_warm, 1),
                    "cache_hit_rate": round(hits / lookups, 4),
                }
            )
        health = _get(base, "/healthz")
        assert health["ok"] and health["mode"] == "serial"
    finally:
        server.close()
        thread.join(timeout=10)

    name = "checker_scaling_smoke.json" if smoke else "checker_scaling.json"
    out = results_dir / name
    history = [
        e for e in _load_history(out) if e.get("label") != _ENTRY_LABEL
    ]
    history.append(entry)
    out.write_text(json.dumps({"history": history}, indent=2))
    print(json.dumps(entry, indent=2))

    for row in entry["service"]:
        # Every cold answer is re-served from cache on the warm pass, and
        # serving a hit must be far cheaper than computing it.
        assert row["cache_hit_rate"] >= 0.5, row
        assert row["warm_qps"] > row["cold_qps"], row
