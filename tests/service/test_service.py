"""The audit service end to end: correctness, faults, deadlines, HTTP.

Under injected faults the service returns only bit-correct results (cached
answers equal fresh oracle answers), corrupted cache entries are
quarantined and recomputed, the deadline-exceeded and load-shed responses
are typed, the degradation ladder reaches cache-only and recovers, and
audits run serially in the server process — it forks nothing.
"""

import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.core import best_swap, find_swap_violation
from repro.errors import DeadlineExceeded
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_connected_gnm,
    star_graph,
)
from repro.graphs.graph6 import to_graph6
from repro.io import ResultCache
from repro.parallel import faults, shutdown_shared_pools
from repro.parallel.faults import InjectedFault
from repro.service import (
    AuditEngine,
    ClientError,
    DegradationLadder,
    LoadShed,
    NotModified,
    build_server,
)
from repro.service import handlers
from repro.service.handlers import _json_safe, _violation_payload


@pytest.fixture(autouse=True)
def _clean_runtime():
    faults.clear_hooks()
    yield
    faults.clear_hooks()
    shutdown_shared_pools()


@pytest.fixture
def engine(tmp_path):
    return AuditEngine(ResultCache(tmp_path / "rc"))


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _g6(graph):
    return to_graph6(graph)


class TestEngineBasics:
    def test_audit_then_cached(self, engine):
        request = {"query": "find_swap_violation", "graph6": _g6(path_graph(6))}
        first = engine.handle_audit(request)
        again = engine.handle_audit(request)
        assert first["ok"] and not first["cached"]
        assert again["cached"] and again["compute_mode"] == "cache"
        assert again["result"] == first["result"]

    def test_explicit_edge_list_graph(self, engine):
        response = engine.handle_audit(
            {
                "query": "is_equilibrium",
                "graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
                "model": "sum",
            }
        )
        assert response["result"] == {"is_equilibrium": True}

    def test_model_spec_is_canonicalized(self, engine):
        g6 = _g6(cycle_graph(6))
        a = engine.handle_audit(
            {"query": "is_equilibrium", "graph6": g6,
             "model": "interest-sum:k=2,seed=9"}
        )
        b = engine.handle_audit(
            {"query": "is_equilibrium", "graph6": g6,
             "model": "interest-sum:seed=9,k=2"}
        )
        assert a["model"] == b["model"]
        assert b["cached"]  # same canonical spec, same content address

    def test_elapsed_ms_includes_the_graph_parse(self, engine, monkeypatch):
        # The clock starts when the request is read, so a slow decode is
        # booked to the handler, not to the transport around it.
        decode = handlers.from_graph6

        def slow(text):
            time.sleep(0.02)
            return decode(text)

        monkeypatch.setattr(handlers, "from_graph6", slow)
        g6 = _g6(star_graph(5))
        audit = engine.handle_audit({"query": "is_equilibrium", "graph6": g6})
        batch = engine.handle_batch(
            {"graph6": g6, "queries": [{"query": "is_equilibrium"}]}
        )
        assert audit["elapsed_ms"] >= 20
        assert batch["elapsed_ms"] >= 20

    def test_batch_shares_fingerprint_and_caches(self, engine):
        g6 = _g6(star_graph(7))
        response = engine.handle_batch(
            {
                "graph6": g6,
                "model": "max",
                "queries": [
                    {"query": "is_equilibrium"},
                    {"query": "criticality"},
                    {"query": "best_swap", "vertex": 1},
                ],
            }
        )
        assert response["count"] == 3
        assert all(r["ok"] for r in response["results"])
        again = engine.handle_batch(
            {
                "graph6": g6,
                "model": "max",
                "queries": [{"query": "criticality"}],
            }
        )
        assert again["results"][0]["cached"]
        assert (
            again["results"][0]["result"]
            == response["results"][1]["result"]
        )

    def test_client_errors_are_typed(self, engine):
        g6 = _g6(path_graph(4))
        with pytest.raises(ClientError):
            engine.handle_audit({"query": "nope", "graph6": g6})
        with pytest.raises(ClientError):
            engine.handle_audit({"query": "is_equilibrium"})
        with pytest.raises(ClientError):
            engine.handle_audit({"query": "best_swap", "graph6": g6})
        with pytest.raises(ClientError):
            engine.handle_audit(
                {"query": "is_equilibrium", "graph6": g6, "timeout_s": -1}
            )
        with pytest.raises(ClientError):
            engine.handle_batch({"graph6": g6, "queries": []})

    def test_client_error_never_touches_the_ladder(self, engine):
        with pytest.raises(Exception):
            engine.handle_audit(
                {
                    "query": "is_equilibrium",
                    # Disconnected: an audit-domain error, not an infra one.
                    "graph": {"n": 4, "edges": [[0, 1], [2, 3]]},
                }
            )
        assert engine.ladder.mode == "serial"
        assert engine.compute_failures == 0


class TestOracleEquivalence:
    """Cached answers are bit-equal to fresh oracle-mode answers."""

    GRAPHS = [
        path_graph(7),
        cycle_graph(8),
        star_graph(6),
        random_connected_gnm(12, 18, seed=5),
    ]

    def test_swap_violations_match_rebuild_oracle(self, engine):
        for graph in self.GRAPHS:
            for model in ("sum", "max"):
                request = {
                    "query": "find_swap_violation",
                    "graph6": _g6(graph),
                    "model": model,
                }
                engine.handle_audit(request)  # populate
                cached = engine.handle_audit(request)
                assert cached["cached"]
                oracle = _violation_payload(
                    find_swap_violation(graph, model, mode="rebuild")
                )
                assert cached["result"] == oracle

    def test_best_swap_matches_oracle_mode(self, engine):
        for graph in self.GRAPHS:
            request = {
                "query": "best_swap",
                "graph6": _g6(graph),
                "model": "sum",
                "vertex": 0,
            }
            engine.handle_audit(request)
            cached = engine.handle_audit(request)
            assert cached["cached"]
            oracle = best_swap(graph, 0, "sum", mode="oracle")
            swap = oracle.swap
            assert cached["result"] == _json_safe(
                {
                    "swap": (
                        None if swap is None
                        else [swap.vertex, swap.drop, swap.add]
                    ),
                    "before": float(oracle.before),
                    "after": float(oracle.after),
                    "is_deletion": bool(oracle.is_deletion),
                }
            )


class TestFaultsThroughEngine:
    def test_torn_cache_write_never_corrupts_a_response(
        self, tmp_path, engine, monkeypatch
    ):
        # Fire one torn write at this test's cache only (unique tmp path).
        monkeypatch.setenv(
            faults.ENV_SPEC, f"torn-write:path={tmp_path.name}"
        )
        request = {"query": "find_swap_violation", "graph6": _g6(path_graph(6))}
        first = engine.handle_audit(request)
        assert first["ok"] and not first["cached"]  # answer served anyway
        assert engine.store_failures == 1
        second = engine.handle_audit(request)  # tear detected: recompute
        assert not second["cached"]
        assert second["result"] == first["result"]
        assert engine.cache.stats()["quarantined"] == 1
        third = engine.handle_audit(request)  # recompute was published
        assert third["cached"]
        assert third["result"] == first["result"]

    def test_cache_enospc_still_answers_then_heals(
        self, tmp_path, http, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, f"enospc:path={tmp_path.name}")
        client, server = http
        graph = path_graph(6)
        request = {"query": "find_swap_violation", "graph6": _g6(graph)}
        status, first, _ = client.post("/audit", request)
        assert status == 200 and first["ok"] and not first["cached"]
        assert first["result"] == _json_safe(
            _violation_payload(find_swap_violation(graph, "sum"))
        )
        _, stats, _ = client.get("/stats")
        assert stats["cache_write_failures"] == 1
        assert stats["cache"]["writes"] == 0
        status, second, _ = client.post("/audit", request)  # recomputed
        assert status == 200 and not second["cached"]
        assert second["result"] == first["result"]
        status, third, _ = client.post("/audit", request)  # and cached
        assert status == 200 and third["cached"]
        assert third["result"] == first["result"]
        assert server.engine.cache_write_failures == 1

    def test_single_serial_blip_fails_typed_without_descent(self, engine):
        calls = []

        def poison_first_attempt(site):
            if "query" in site:
                calls.append(site)
                if len(calls) == 1:
                    raise InjectedFault("injected compute failure")

        faults.install_hook(poison_first_attempt)
        request = {"query": "is_equilibrium", "graph6": _g6(cycle_graph(5))}
        with pytest.raises(RuntimeError, match="injected compute failure"):
            engine.handle_audit(request)
        assert engine.compute_failures == 1
        assert engine.ladder.mode == "serial"  # one blip: no descent
        response = engine.handle_audit(request)  # the next request heals
        assert response["ok"] and response["compute_mode"] == "serial"
        assert engine.ladder.snapshot()["consecutive_failures"] == 0


class TestLadderLifecycle:
    def test_reaches_cache_only_and_recovers(self, tmp_path):
        clock = FakeClock()
        engine = AuditEngine(
            ResultCache(tmp_path / "rc"),
            ladder=DegradationLadder(
                threshold=2, recover_after=30.0, clock=clock
            ),
        )
        hot = {"query": "is_equilibrium", "graph6": _g6(path_graph(5))}
        engine.handle_audit(hot)  # prime one answer while healthy

        def poison_all_compute(site):
            if "query" in site:
                raise InjectedFault("injected compute failure")

        faults.install_hook(poison_all_compute)
        cold = {"query": "is_equilibrium", "graph6": _g6(cycle_graph(7))}
        with pytest.raises(RuntimeError):
            engine.handle_audit(cold)
        assert engine.ladder.mode == "serial"  # below the threshold
        with pytest.raises(RuntimeError):  # second failure -> cache-only
            engine.handle_audit(cold)
        assert engine.ladder.mode == "cache-only"

        # Cache-only: hits are still served, misses are shed typed.
        assert engine.handle_audit(hot)["cached"]
        with pytest.raises(LoadShed) as shed:
            engine.handle_audit(cold)
        assert shed.value.retry_after == 30.0

        # Recovery: no probe before the cooldown, then one probe request
        # computes on the serial rung and the ladder ascends.
        faults.clear_hooks()
        clock.now += 29.0
        with pytest.raises(LoadShed):
            engine.handle_audit(cold)
        clock.now += 2.0
        assert engine.handle_audit(cold)["compute_mode"] == "serial"
        assert engine.ladder.mode == "serial"
        fresh = {"query": "is_equilibrium", "graph6": _g6(star_graph(5))}
        assert engine.handle_audit(fresh)["compute_mode"] == "serial"
        assert engine.ladder.snapshot()["recoveries"] == 1


class TestDeadline:
    def test_spent_deadline_is_typed_not_a_hang(self, engine):
        with pytest.raises(DeadlineExceeded):
            engine.handle_audit(
                {
                    "query": "find_swap_violation",
                    "graph6": _g6(random_connected_gnm(20, 30, seed=2)),
                    "timeout_s": 1e-6,
                }
            )
        assert engine.ladder.mode == "serial"  # a spent budget is not infra

    def test_cache_hit_beats_the_deadline(self, engine):
        request = {"query": "is_equilibrium", "graph6": _g6(path_graph(5))}
        engine.handle_audit(request)
        hit = engine.handle_audit({**request, "timeout_s": 1e-6})
        assert hit["cached"]


class TestRequestBudget:
    """``timeout_s`` must be a positive number; NaN is not one."""

    REQUEST = {"query": "is_equilibrium"}

    def _request(self, timeout_s):
        return {**self.REQUEST, "graph6": _g6(star_graph(6)),
                "timeout_s": timeout_s}

    @pytest.mark.parametrize(
        "timeout_s", [float("nan"), "nan", "NaN", "NAN", "-nan"]
    )
    def test_nan_budget_is_a_client_error(self, engine, timeout_s):
        with pytest.raises(ClientError, match="NaN"):
            engine.handle_audit(self._request(timeout_s))
        assert engine.requests == 0  # rejected before any compute
        assert engine.ladder.mode == "serial"

    @pytest.mark.parametrize("timeout_s", [float("inf"), "inf"])
    def test_infinite_budget_clamps_to_max_timeout(self, engine, timeout_s):
        before = time.monotonic()
        deadline = engine._deadline_from({"timeout_s": timeout_s})
        after = time.monotonic()
        assert before + engine.max_timeout <= deadline
        assert deadline <= after + engine.max_timeout
        response = engine.handle_audit(self._request(timeout_s))
        assert response["ok"] and response["result"]["is_equilibrium"]


class TestKSwapAudit:
    """The k_swap_stable query kind: exponential audit behind a deadline."""

    def test_stable_and_unstable_verdicts(self, engine):
        # Under the paper's max objective a star is 1-swap stable (no
        # single move lowers any vertex's eccentricity); a path is not.
        stable = engine.handle_audit(
            {"query": "k_swap_stable", "graph6": _g6(star_graph(6)),
             "k": 1, "model": "max"}
        )
        assert stable["result"] == {"k_swap_stable": True, "k": 1}
        unstable = engine.handle_audit(
            {"query": "k_swap_stable", "graph6": _g6(path_graph(6)),
             "k": 1, "model": "max"}
        )
        assert unstable["result"] == {"k_swap_stable": False, "k": 1}

    def test_k_defaults_to_one_and_keys_the_cache(self, engine):
        g6 = _g6(star_graph(5))
        implicit = engine.handle_audit({"query": "k_swap_stable", "graph6": g6})
        assert implicit["result"]["k"] == 1
        hit = engine.handle_audit(
            {"query": "k_swap_stable", "graph6": g6, "k": 1}
        )
        assert hit["cached"]  # same k, same content address
        other = engine.handle_audit(
            {"query": "k_swap_stable", "graph6": g6, "k": 2}
        )
        assert not other["cached"]  # a different k is a different audit

    def test_bad_k_is_a_client_error(self, engine):
        g6 = _g6(path_graph(4))
        with pytest.raises(ClientError):
            engine.handle_audit(
                {"query": "k_swap_stable", "graph6": g6, "k": 0}
            )
        with pytest.raises(ClientError):
            engine.handle_audit(
                {"query": "k_swap_stable", "graph6": g6, "k": "two"}
            )
        assert engine.ladder.mode == "serial"

    def test_spent_deadline_is_typed(self, engine):
        with pytest.raises(DeadlineExceeded):
            engine.handle_audit(
                {
                    "query": "k_swap_stable",
                    "graph6": _g6(random_connected_gnm(20, 30, seed=2)),
                    "k": 2,
                    "timeout_s": 1e-6,
                }
            )
        assert engine.ladder.mode == "serial"  # a spent budget is not infra


class TestETag:
    REQUEST = {"query": "find_swap_violation"}

    def _request(self):
        return {**self.REQUEST, "graph6": _g6(path_graph(6))}

    def test_every_answer_carries_its_cache_key_as_etag(self, engine):
        first = engine.handle_audit(self._request())
        again = engine.handle_audit(self._request())
        assert first["etag"] and first["etag"] == again["etag"]

    def test_matching_validator_on_cached_answer_raises(self, engine):
        etag = engine.handle_audit(self._request())["etag"]
        with pytest.raises(NotModified) as exc:
            engine.handle_audit(
                self._request(), if_none_match=f'"{etag}"'
            )
        assert exc.value.etag == etag
        assert engine.not_modified == 1
        assert engine.stats()["not_modified"] == 1

    def test_unquoted_weak_and_list_validators_match(self, engine):
        etag = engine.handle_audit(self._request())["etag"]
        for header in (etag, f'W/"{etag}"', f'"zzz", "{etag}"', "*"):
            with pytest.raises(NotModified):
                engine.handle_audit(self._request(), if_none_match=header)

    def test_stale_validator_serves_the_cached_body(self, engine):
        engine.handle_audit(self._request())
        response = engine.handle_audit(
            self._request(), if_none_match='"somebody-elses-answer"'
        )
        assert response["cached"]

    def test_uncached_answer_never_skipped_on_clients_word(self, engine):
        # The validator may name this key, but nothing is cached yet: the
        # service computes and serves the full body regardless.
        response = engine.handle_audit(self._request(), if_none_match="*")
        assert response["ok"] and not response["cached"]
        assert engine.not_modified == 0


class _Client:
    def __init__(self, base):
        self.base = base

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), dict(err.headers)

    def post(self, path, body, headers=None):
        data = (
            body if isinstance(body, bytes) else json.dumps(body).encode()
        )
        merged = {"Content-Type": "application/json", **(headers or {})}
        req = urllib.request.Request(
            self.base + path, data=data, method="POST", headers=merged,
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as r:
                raw = r.read()
                return r.status, json.loads(raw) if raw else None, dict(r.headers)
        except urllib.error.HTTPError as err:
            raw = err.read()
            return err.code, json.loads(raw) if raw else None, dict(err.headers)


@pytest.fixture
def http(tmp_path):
    server = build_server(
        port=0, cache_dir=str(tmp_path / "rc"), capacity=1, queue_limit=4,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield _Client(f"http://{host}:{port}"), server
    finally:
        server.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestHTTP:
    def test_healthz_and_stats(self, http):
        client, _ = http
        status, body, _ = client.get("/healthz")
        assert status == 200 and body["ok"] and body["mode"] == "serial"
        status, body, _ = client.get("/stats")
        assert status == 200
        for section in ("cache", "admission", "degradation"):
            assert section in body
        assert "hit_rate" in body["cache"]
        assert "shed_count" in body["admission"]

    def test_audit_roundtrip_and_hit(self, http):
        client, _ = http
        request = {"query": "find_swap_violation", "graph6": _g6(path_graph(6))}
        status, first, _ = client.post("/audit", request)
        assert status == 200 and first["ok"] and not first["cached"]
        status, again, _ = client.post("/audit", request)
        assert status == 200 and again["cached"]
        assert again["result"] == first["result"]

    def test_etag_header_and_if_none_match_304(self, http):
        client, server = http
        request = {"query": "find_swap_violation", "graph6": _g6(path_graph(6))}
        status, first, headers = client.post("/audit", request)
        assert status == 200
        etag = headers["ETag"]
        assert etag == f'"{first["etag"]}"'
        # A matching validator on the now-cached answer: 304, no body.
        status, body, headers = client.post(
            "/audit", request, headers={"If-None-Match": etag}
        )
        assert status == 304 and body is None
        assert headers["ETag"] == etag
        assert server.engine.not_modified == 1
        # A stale validator still gets the full cached answer.
        status, body, _ = client.post(
            "/audit", request, headers={"If-None-Match": '"stale"'}
        )
        assert status == 200 and body["cached"]
        _, stats, _ = client.get("/stats")
        assert stats["not_modified"] == 1

    def test_not_found_and_bad_json_are_typed(self, http):
        client, _ = http
        status, body, _ = client.get("/nope")
        assert status == 404 and body["error"] == "not-found"
        status, body, _ = client.post("/audit", b"{not json")
        assert status == 400 and body["error"] == "bad-request"
        status, body, _ = client.post("/audit", {"query": "explode"})
        assert status == 400 and body["error"] == "bad-request"

    @pytest.mark.parametrize("request_body", [
        {"query": "is_equilibrium", "graph6": "Dzz{"},
        {"query": "is_equilibrium", "graph": {"n": 3, "edges": [[0]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 4, "edges": [[0, 1], [2, 3]]}},
        {"query": "best_swap", "graph6": _g6(path_graph(5)), "vertex": 5},
        # Ids are JSON integers: never truncated, parsed or read from bools.
        {"query": "is_equilibrium",
         "graph": {"n": 3, "edges": [[0.9, 1], [1, 2]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 3, "edges": [["1", 0], [1, 2]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 3, "edges": [[0, 1], [1, 2.7]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 3, "edges": [[0, True], [1, 2]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 2.5, "edges": [[0, 1]]}},
        {"query": "is_equilibrium",
         "graph": {"n": 3, "edges": ["01", [1, 2]]}},
        {"query": "best_swap", "graph6": _g6(path_graph(5)), "vertex": 1.7},
        {"query": "k_swap_stable", "graph6": _g6(path_graph(5)), "k": 2.9},
        # A boolean is no budget, though float(True) == 1.0.
        {"query": "is_equilibrium", "graph6": _g6(path_graph(5)),
         "timeout_s": True},
    ], ids=["graph6", "edge-list", "disconnected", "vertex", "float-endpoint",
            "string-endpoint", "float-endpoint-late", "bool-endpoint",
            "float-n", "string-edge", "float-vertex", "float-k",
            "bool-timeout"])
    def test_client_errors_are_typed_400s(self, http, request_body):
        client, server = http
        status, body, _ = client.post("/audit", request_body)
        assert status == 400 and body["error"] == "bad-request"
        assert server.engine.compute_failures == 0

    def test_client_errors_never_degrade_the_ladder(self, http):
        client, server = http
        out_of_range = {"query": "best_swap", "graph6": _g6(path_graph(5)),
                        "vertex": 5}
        for _ in range(2):  # the ladder's descent threshold
            status, body, _ = client.post("/audit", out_of_range)
            assert status == 400 and body["error"] == "bad-request"
        _, health, _ = client.get("/healthz")
        assert health["mode"] == "serial"
        assert server.engine.compute_failures == 0
        status, body, _ = client.post(
            "/audit", {"query": "is_equilibrium", "graph6": _g6(cycle_graph(7))}
        )
        assert status == 200 and not body["cached"]

    @pytest.mark.parametrize("path, length, status, error", [
        ("/nope", None, 404, "not-found"),
        ("/audit", "abc", 400, "bad-request"),
        ("/audit", str(8 * 1024 * 1024 + 1), 400, "bad-request"),
    ], ids=["unknown-path", "malformed-length", "oversized-length"])
    def test_unread_body_never_desyncs_keep_alive(
        self, http, path, length, status, error
    ):
        # One client connection: the first request's body is never read,
        # so the server must close rather than parse it as a request line.
        _, server = http
        body = json.dumps(
            {"query": "is_equilibrium", "graph6": _g6(cycle_graph(7))}
        ).encode()
        conn = HTTPConnection(*server.server_address, timeout=30)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length or str(len(body)))
            conn.endheaders(body)
            first = conn.getresponse()
            assert first.status == status
            assert json.loads(first.read())["error"] == error
            conn.request(
                "POST", "/audit", body, {"Content-Type": "application/json"}
            )
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["ok"]
        finally:
            conn.close()

    def test_deadline_exceeded_is_a_typed_504(self, http):
        client, server = http
        status, body, _ = client.post(
            "/audit",
            {
                "query": "find_swap_violation",
                "graph6": _g6(random_connected_gnm(20, 30, seed=2)),
                "timeout_s": 1e-6,
            },
        )
        assert status == 504 and body["error"] == "deadline-exceeded"
        assert server.engine.deadline_exceeded == 1

    def test_k_swap_audit_timeout_is_a_typed_504(self, http):
        client, server = http
        status, body, _ = client.post(
            "/audit",
            {
                "query": "k_swap_stable",
                "graph6": _g6(random_connected_gnm(20, 30, seed=2)),
                "k": 2,
                "timeout_s": 1e-6,
            },
        )
        assert status == 504 and body["error"] == "deadline-exceeded"
        assert server.engine.deadline_exceeded == 1

    def test_load_shed_is_a_typed_503_with_retry_after(self, http):
        client, server = http
        # Saturate admission from the outside: capacity 1, queue 0 left.
        server.engine.gate.queue_limit = 0
        with server.engine.gate.slot():
            status, body, headers = client.post(
                "/audit",
                {"query": "is_equilibrium", "graph6": _g6(cycle_graph(9))},
            )
        assert status == 503 and body["error"] == "load-shed"
        assert "retry_after_s" in body
        assert "Retry-After" in headers

    def test_compute_failure_is_a_typed_500(self, http):
        client, server = http

        def poison_compute(site):
            if "query" in site:
                raise InjectedFault("injected compute failure")

        faults.install_hook(poison_compute)
        status, body, _ = client.post(
            "/audit", {"query": "is_equilibrium", "graph6": _g6(path_graph(5))}
        )
        assert status == 500 and body["error"] == "compute-failed"
        _, health, _ = client.get("/healthz")
        assert health["mode"] == "serial"  # one failure: no descent
        assert server.engine.compute_failures == 1

    def test_nan_literal_budget_is_a_typed_400(self, http):
        client, _ = http
        # Python's json emits (and parses) a bare NaN literal.
        body = json.dumps(
            {"query": "is_equilibrium", "graph6": _g6(cycle_graph(6)),
             "timeout_s": float("nan")}
        ).encode()
        assert b"NaN" in body
        status, answer, _ = client.post("/audit", body)
        assert status == 400 and answer["error"] == "bad-request"
        assert "NaN" in answer["detail"]

    def test_nan_string_budget_is_a_typed_400(self, http):
        client, _ = http
        status, answer, _ = client.post(
            "/audit",
            {"query": "is_equilibrium", "graph6": _g6(cycle_graph(6)),
             "timeout_s": "nan"},
        )
        assert status == 400 and answer["error"] == "bad-request"

    def test_inf_string_budget_still_answers(self, http):
        client, _ = http
        status, answer, _ = client.post(
            "/audit",
            {"query": "is_equilibrium", "graph6": _g6(star_graph(6)),
             "timeout_s": "inf"},
        )
        assert status == 200 and answer["result"] == {"is_equilibrium": True}

    def test_batch_over_http(self, http):
        client, _ = http
        status, body, _ = client.post(
            "/batch",
            {
                "graph6": _g6(star_graph(6)),
                "model": "max",
                "queries": [
                    {"query": "is_equilibrium"},
                    {"query": "criticality"},
                ],
            },
        )
        assert status == 200 and body["count"] == 2
        assert all(r["ok"] for r in body["results"])


class TestServesSerially:
    """A server with its defaults audits in-process and forks nothing."""

    def test_cold_audit_forks_no_workers(self, tmp_path):
        shutdown_shared_pools()  # pools other tests left behind
        assert multiprocessing.active_children() == []
        server = build_server(port=0, cache_dir=str(tmp_path / "rc"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        client = _Client(f"http://{host}:{port}")
        try:
            status, body, _ = client.post(
                "/audit",
                {"query": "is_equilibrium",
                 "graph6": _g6(random_connected_gnm(24, 48, seed=3))},
            )
            assert status == 200 and not body["cached"]
            assert body["compute_mode"] == "serial"
            status, health, _ = client.get("/healthz")
            assert status == 200 and health["mode"] == "serial"
            assert multiprocessing.active_children() == []
        finally:
            server.close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_engine_has_no_worker_knob(self, tmp_path):
        with pytest.raises(TypeError):
            AuditEngine(ResultCache(tmp_path / "rc"), workers=2)

    def test_server_has_no_worker_knob(self, tmp_path):
        with pytest.raises(TypeError):
            build_server(port=0, cache_dir=str(tmp_path / "rc"), workers=2)
