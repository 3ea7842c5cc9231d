#!/usr/bin/env python
"""CI smoke of the audit service under injected faults (DESIGN.md §10).

Starts ``repro.cli serve`` as a real subprocess on an ephemeral port with
both cache-write fault sites armed through the environment channel:

* ``torn-write:path=<cache dir>`` — one cache entry is torn in half on
  its final path (the checksum must quarantine it and the answer must be
  recomputed, never served corrupt);
* ``enospc:path=<cache dir>`` — the next cache write fails as if the disk
  were full (the answer is served uncached and counted in
  ``cache_write_failures``).

The load generator then drives a deterministic query mix twice and
asserts: every response is well-formed, warm answers are bit-equal to
cold ones and to direct library computation, the cache hit rate is
nonzero, the tear was quarantined, each fault fired exactly once, and
SIGINT shuts the service down cleanly (exit code 0, port released).

Run from the repository root::

    python scripts/serve_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import find_swap_violation  # noqa: E402
from repro.graphs import random_connected_gnm  # noqa: E402
from repro.graphs.graph6 import to_graph6  # noqa: E402
from repro.service.handlers import _violation_payload  # noqa: E402

#: The server arms SAFE_PID with its own pid, so a fault matching an
#: owner-side site degrades to a raise instead of killing the service.
_BOOT = (
    "import os; "
    "os.environ['REPRO_FAULTS_SAFE_PID'] = str(os.getpid()); "
    "from repro.cli import main; "
    "raise SystemExit(main(["
    "'serve', '--port', '0', '--cache-dir', {cache!r}"
    "]))"
)


def _post(base, path, body):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as response:
        assert response.status == 200, response.status
        return json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read())


def main() -> int:
    # Both directories go on every path out: success, a failed assertion,
    # an interrupt, and SIGTERM (turned into SystemExit below).
    with tempfile.TemporaryDirectory(prefix="audit-smoke-cache-") as cache, \
            tempfile.TemporaryDirectory(prefix="audit-smoke-tokens-") as tokens:
        return _smoke(cache, tokens)


def _smoke(cache_dir: str, token_dir: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    cache_name = os.path.basename(cache_dir)
    env["REPRO_FAULTS"] = (
        f"torn-write:path={cache_name};enospc:path={cache_name}"
    )
    env["REPRO_FAULTS_DIR"] = token_dir

    proc = subprocess.Popen(
        [sys.executable, "-c", _BOOT.format(cache=cache_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert "listening on" in banner, banner
        base = banner.rsplit(" ", 1)[-1]
        print(f"[smoke] {banner}")

        graphs = [random_connected_gnm(24, 48, seed=s) for s in (1, 2, 3)]
        requests = [
            {
                "graph6": to_graph6(g),
                "model": "sum",
                "timeout_s": 120.0,
                "queries": [
                    {"query": "find_swap_violation"},
                    {"query": "is_equilibrium"},
                    {"query": "criticality"},
                ],
            }
            for g in graphs
        ]
        cold = [_post(base, "/batch", r) for r in requests]
        warm = [_post(base, "/batch", r) for r in requests]

        # No corrupted responses: warm == cold == direct library compute.
        for graph, c, w in zip(graphs, cold, warm):
            assert c["ok"] and w["ok"]
            for cr, wr in zip(c["results"], w["results"]):
                assert wr["result"] == cr["result"], (cr, wr)
            expected = _violation_payload(find_swap_violation(graph, "sum"))
            assert c["results"][0]["result"] == expected, (c, expected)

        stats = _get(base, "/stats")
        cache = stats["cache"]
        print(f"[smoke] stats: {json.dumps(stats)}")
        assert cache["hits"] > 0, stats  # nonzero cache hit rate
        assert cache["hit_rate"] > 0, stats
        # The torn write fired, was detected, and was recomputed around;
        # the full-disk write was served uncached and counted.
        assert stats["cache_write_failures"] == 1, stats
        assert stats["store_failures"] >= 2, stats
        assert cache["quarantined"] >= 1, stats
        assert (Path(cache_dir) / "quarantine").is_dir()
        # Each fault consumed exactly its one-shot budget (a token file each).
        assert len(os.listdir(token_dir)) == 2, os.listdir(token_dir)
        health = _get(base, "/healthz")
        assert health["ok"] and health["mode"] == "serial", health

        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=30)
        assert code == 0, f"unclean shutdown: exit {code}"
        tail = proc.stdout.read()
        assert "Traceback" not in tail, tail
        print("[smoke] clean shutdown; service smoke passed")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    code = main()
    print(f"[smoke] total {time.perf_counter() - start:.1f}s")
    sys.exit(code)
