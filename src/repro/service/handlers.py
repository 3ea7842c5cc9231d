"""Request handling for the audit service: parse → cache → compute → store.

:class:`AuditEngine` is the transport-independent core (the HTTP layer in
:mod:`repro.service.server` is a thin adapter; tests drive the engine
directly).  One request is one pure audit question — the graph (graph6
text or an explicit edge list), a cost-model spec string, a query kind,
and a wall-clock budget — and the answer flow is:

1. fingerprint the graph (:func:`repro.io.hashing.graph_fingerprint`),
   derive the content address (:func:`repro.io.result_cache.cache_key`);
2. a verified cache hit is served immediately — no admission, no compute;
3. a miss takes one admission slot (:class:`~repro.service.admission.
   AdmissionGate`; queueing respects the request deadline, overflow is
   shed typed) and computes on the degradation ladder's ``serial`` rung —
   in the owner process, since one audit is a small serial job — or, with
   the ladder at ``cache-only``, is shed typed.  Infra failures feed the
   ladder; client errors and spent deadlines do not;
4. the answer is published to the cache (a torn cache write never corrupts
   the response — the computed answer is served and the torn entry is
   quarantined by the next reader).

Instrumented fault site: every compute attempt calls
``faults.maybe_fault(query=<ordinal>)`` before dispatch, so tests inject
deterministic infra failures into the service without touching the audit
kernels (the site has no ``chunk``/``task``/``batch`` coordinates, so
worker- and store-targeted env specs never match it).

Non-finite floats in answers (disconnection ⇒ infinite cost) are encoded
as the strings ``"inf"``/``"-inf"``/``"nan"`` — cache entries must be
strict JSON for the checksum contract.
"""

from __future__ import annotations

import math
import time

from ..core import (
    best_swap,
    find_deletion_criticality_violation,
    find_swap_violation,
    is_k_swap_stable,
)
from ..core.costmodel import cost_model_spec
from ..core.costs import lift_distances
from ..errors import (
    DeadlineExceeded,
    GraphError,
    MoveError,
    ReproError,
    StoreIntegrityError,
)
from ..graphs import CSRGraph, distance_matrix
from ..graphs.graph6 import from_graph6
from ..io import ResultCache, cache_key, graph_fingerprint
from ..parallel import faults
from .admission import AdmissionGate, LoadShed
from .degradation import DegradationLadder

__all__ = ["AuditEngine", "ClientError", "NotModified", "QUERY_KINDS"]

QUERY_KINDS = (
    "is_equilibrium",
    "find_swap_violation",
    "best_swap",
    "criticality",
    "k_swap_stable",
)

#: Exceptions that are the *caller's* fault: typed 400, never a ladder event.
_CLIENT_ERRORS = (GraphError, MoveError, ValueError, TypeError, KeyError)


class ClientError(ReproError):
    """The request itself is malformed (unknown query, bad graph, ...)."""


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; never truncates a float or parses
    a string, and refuses ``true``/``false`` (a ``bool`` is an ``int``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ClientError(f"{what} must be an integer, got {value!r}")
    return value


class NotModified(Exception):
    """The client's cached answer (``If-None-Match``) is still current.

    Answers are content-addressed: the cache key *is* the ``ETag``, so a
    matching validator means the client already holds this exact answer
    and the transport can reply 304 with no body.  Raised only for
    answers the service itself has cached — a recomputation is never
    skipped on the client's word alone.
    """

    def __init__(self, etag: str):
        super().__init__(etag)
        self.etag = etag


def _etag_matches(if_none_match: "str | None", key: str) -> bool:
    """RFC 9110 ``If-None-Match``: ``*``, quoted, weak, or a list."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        tag = candidate.strip()
        if tag.startswith("W/"):
            tag = tag[2:].strip()
        if tag.strip('"') == key:
            return True
    return False


def _json_safe(value):
    """Recursively encode non-finite floats as strings (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _violation_payload(violation) -> dict:
    if violation is None:
        return {"violation": None}
    return {
        "violation": _json_safe(
            {
                "kind": violation.kind,
                "vertex": int(violation.vertex),
                "drop": None if violation.drop is None else int(violation.drop),
                "add": violation.add,
                "before": float(violation.before),
                "after": float(violation.after),
            }
        )
    }


class AuditEngine:
    """The service core: cache-backed, admission-bounded, ladder-degraded."""

    def __init__(
        self,
        cache: ResultCache,
        *,
        default_timeout: float = 30.0,
        max_timeout: float = 300.0,
        gate: "AdmissionGate | None" = None,
        ladder: "DegradationLadder | None" = None,
    ):
        self.cache = cache
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.gate = gate if gate is not None else AdmissionGate()
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.started_at = time.monotonic()
        self.requests = 0
        self.compute_failures = 0
        self.store_failures = 0
        self.cache_write_failures = 0
        self.deadline_exceeded = 0
        self.not_modified = 0

    # -- request parsing --------------------------------------------------

    def _parse_graph(self, request: dict) -> CSRGraph:
        if "graph6" in request:
            text = request["graph6"]
            if not isinstance(text, str):
                raise ClientError("graph6 must be a string")
            return from_graph6(text)
        if "graph" in request:
            spec = request["graph"]
            if (
                not isinstance(spec, dict)
                or "n" not in spec
                or "edges" not in spec
            ):
                raise ClientError('graph must be {"n": N, "edges": [[a,b],..]}')
            n = _json_int(spec["n"], "n")
            if not isinstance(spec["edges"], list):
                raise ClientError("edges must be a list of [a, b] pairs")
            edges = []
            for edge in spec["edges"]:
                if not isinstance(edge, list) or len(edge) != 2:
                    raise ClientError(f"edge {edge!r} is not an [a, b] pair")
                a, b = (_json_int(x, "an edge endpoint") for x in edge)
                edges.append((a, b))
            return CSRGraph(n, edges)
        raise ClientError('request needs "graph6" or "graph"')

    def _deadline_from(self, request: dict) -> float:
        timeout = request.get("timeout_s", self.default_timeout)
        if isinstance(timeout, bool):  # float(True) == 1.0 is no budget
            raise ClientError(f"timeout_s must be a number, got {timeout!r}")
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ClientError(f"timeout_s must be a number, got {timeout!r}")
        if math.isnan(timeout):
            # NaN compares false with everything: it would pass the > 0
            # check and poison min() into a deadline that never expires.
            raise ClientError("timeout_s must be a number, got NaN")
        if timeout <= 0:
            raise ClientError(f"timeout_s must be > 0, got {timeout}")
        return time.monotonic() + min(timeout, self.max_timeout)

    @staticmethod
    def _parse_query(item: dict) -> tuple[str, dict]:
        kind = item.get("query")
        if kind not in QUERY_KINDS:
            raise ClientError(
                f"unknown query {kind!r}; known: {', '.join(QUERY_KINDS)}"
            )
        params: dict = {}
        if kind == "best_swap":
            if "vertex" not in item:
                raise ClientError('best_swap needs "vertex"')
            params["vertex"] = _json_int(item["vertex"], "vertex")
        elif kind == "k_swap_stable":
            k = _json_int(item.get("k", 1), "k")
            if k < 1:
                raise ClientError(f"k must be >= 1, got {k}")
            params["k"] = k
        return kind, params

    @staticmethod
    def _model_spec_for(kind: str, request: dict) -> str:
        # Deletion-criticality is part of the paper's *max* equilibrium and
        # does not depend on the cost model: pin its cache key to "max" so
        # every client shares one entry per graph.
        if kind == "criticality":
            return "max"
        return cost_model_spec(request.get("model", "sum"))

    # -- compute ----------------------------------------------------------

    def _compute(
        self,
        kind: str,
        graph: CSRGraph,
        model_spec: str,
        params: dict,
        *,
        deadline: float,
        base_dm=None,
    ) -> dict:
        if kind == "is_equilibrium":
            from ..core import is_equilibrium

            flag = is_equilibrium(
                graph, model_spec, base_dm=base_dm, deadline=deadline,
            )
            return {"is_equilibrium": bool(flag)}
        if kind == "find_swap_violation":
            violation = find_swap_violation(
                graph, model_spec, base_dm=base_dm, deadline=deadline,
            )
            return _violation_payload(violation)
        if kind == "criticality":
            violation = find_deletion_criticality_violation(
                graph, base_dm=base_dm, deadline=deadline,
            )
            return _violation_payload(violation)
        if kind == "k_swap_stable":
            # Exponential brute-force audit: the deadline is the only thing
            # standing between a large k and an unbounded request, so it is
            # threaded into every per-vertex enumeration (DESIGN.md §10).
            stable = is_k_swap_stable(
                graph, params["k"], objective=model_spec, deadline=deadline,
            )
            return {"k_swap_stable": bool(stable), "k": params["k"]}
        response = best_swap(
            graph, params["vertex"], model_spec, base_dm=base_dm,
            deadline=deadline,
        )
        swap = response.swap
        return _json_safe(
            {
                "swap": (
                    None if swap is None
                    else [swap.vertex, swap.drop, swap.add]
                ),
                "before": float(response.before),
                "after": float(response.after),
                "is_deletion": bool(response.is_deletion),
            }
        )

    def _compute_degraded(
        self, kind, graph, model_spec, params, *, deadline, base_dm=None
    ) -> tuple[dict, str]:
        """Compute on the ladder's rung; returns ``(payload, mode_used)``.

        At ``cache-only`` (no recovery probe due) the miss is shed typed.
        An infrastructure failure feeds the ladder and surfaces as a
        compute failure; client errors and spent deadlines propagate
        without touching the ladder.
        """
        self.requests += 1
        ordinal = self.requests
        mode = self.ladder.plan()[0]
        if mode == "cache-only":
            raise LoadShed(
                "service degraded to cache-only and this answer is "
                "not cached",
                retry_after=self.ladder.recover_after,
            )
        try:
            faults.maybe_fault(query=ordinal)
            payload = self._compute(
                kind, graph, model_spec, params,
                deadline=deadline, base_dm=base_dm,
            )
        except (DeadlineExceeded, LoadShed):
            raise
        except _CLIENT_ERRORS:
            raise
        except Exception as exc:  # repro-lint: disable=R4 -- any infra failure must feed the degradation ladder, then fail typed
            self.compute_failures += 1
            self.ladder.record_failure(mode)
            raise RuntimeError(
                f"compute failed at the {mode} rung: {exc!r}"
            ) from exc
        self.ladder.record_success(mode)
        return payload, mode

    def _store(self, key: str, payload: dict, meta: dict) -> None:
        """Publish an answer; a failed write must not fail the response.

        Since the disk-fault hardening (DESIGN.md §13) the cache raises
        typed :class:`~repro.errors.StoreIntegrityError` for write
        failures (ENOSPC above all), with the final entry never torn —
        the service serves the computed answer anyway and the next
        request recomputes into a healthier disk.  Torn-*write* injection
        still surfaces as :class:`~repro.parallel.faults.InjectedFault`.
        """
        try:
            self.cache.put(key, payload, meta)
        except StoreIntegrityError:
            self.cache_write_failures += 1
            self.store_failures += 1
        except (faults.InjectedFault, OSError):
            self.store_failures += 1

    # -- endpoints --------------------------------------------------------

    def handle_audit(
        self, request: dict, *, if_none_match: "str | None" = None
    ) -> dict:
        """One query; returns the response body (raises typed errors).

        ``if_none_match`` is the transport's ``If-None-Match`` header:
        when it names this answer's cache key (the ``ETag`` every
        cacheable answer carries) and the answer is cached,
        :class:`NotModified` is raised instead of re-serving the body.
        """
        start = time.monotonic()
        if not isinstance(request, dict):
            raise ClientError("request body must be a JSON object")
        kind, params = self._parse_query(request)
        graph = self._parse_graph(request)
        model_spec = self._model_spec_for(kind, request)
        deadline = self._deadline_from(request)
        fingerprint = graph_fingerprint(graph)
        key = cache_key(fingerprint, model_spec, kind, params)

        def respond(payload, *, cached, mode):
            return {
                "ok": True,
                "query": kind,
                "fingerprint": fingerprint,
                "model": model_spec,
                "cached": cached,
                "compute_mode": mode,
                "etag": key,
                "result": payload,
                "elapsed_ms": round((time.monotonic() - start) * 1e3, 3),
            }

        def serve_cached(payload):
            if _etag_matches(if_none_match, key):
                self.not_modified += 1
                raise NotModified(key)
            return respond(payload, cached=True, mode="cache")

        cached = self.cache.get(key)
        if cached is not None:
            return serve_cached(cached)
        with self.gate.slot(deadline):
            # A queue-mate may have filled it; not a second logical miss.
            cached = self.cache.get(key, count_miss=False)
            if cached is not None:
                return serve_cached(cached)
            payload, mode = self._compute_degraded(
                kind, graph, model_spec, params, deadline=deadline
            )
        self._store(
            key,
            payload,
            {"fingerprint": fingerprint, "model": model_spec, "query": kind,
             "params": params},
        )
        return respond(payload, cached=False, mode=mode)

    def handle_batch(self, request: dict) -> dict:
        """Many queries on ONE graph; the base APSP is computed once."""
        start = time.monotonic()
        if not isinstance(request, dict):
            raise ClientError("request body must be a JSON object")
        items = request.get("queries")
        if not isinstance(items, list) or not items:
            raise ClientError('"queries" must be a non-empty list')
        graph = self._parse_graph(request)
        deadline = self._deadline_from(request)
        fingerprint = graph_fingerprint(graph)
        parsed = []
        for item in items:
            if not isinstance(item, dict):
                raise ClientError("each batch query must be an object")
            kind, params = self._parse_query(item)
            model_spec = self._model_spec_for(kind, {**request, **item})
            parsed.append((kind, params, model_spec))

        results = []
        base_dm = None
        for kind, params, model_spec in parsed:
            key = cache_key(fingerprint, model_spec, kind, params)
            cached = self.cache.get(key)
            if cached is not None:
                results.append(
                    {"ok": True, "query": kind, "cached": True,
                     "compute_mode": "cache", "result": cached}
                )
                continue
            with self.gate.slot(deadline):
                cached = self.cache.get(key, count_miss=False)
                if cached is not None:
                    results.append(
                        {"ok": True, "query": kind, "cached": True,
                         "compute_mode": "cache", "result": cached}
                    )
                    continue
                if base_dm is None:
                    # One APSP amortized across every miss in the batch.
                    base_dm = lift_distances(distance_matrix(graph))
                payload, mode = self._compute_degraded(
                    kind, graph, model_spec, params,
                    deadline=deadline, base_dm=base_dm,
                )
            self._store(
                key, payload,
                {"fingerprint": fingerprint, "model": model_spec,
                 "query": kind, "params": params},
            )
            results.append(
                {"ok": True, "query": kind, "cached": False,
                 "compute_mode": mode, "result": payload}
            )
        return {
            "ok": True,
            "fingerprint": fingerprint,
            "count": len(results),
            "results": results,
            "elapsed_ms": round((time.monotonic() - start) * 1e3, 3),
        }

    # -- introspection ----------------------------------------------------

    def healthz(self) -> dict:
        return {
            "ok": True,
            "mode": self.ladder.mode,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }

    def stats(self) -> dict:
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": self.requests,
            "compute_failures": self.compute_failures,
            "store_failures": self.store_failures,
            "cache_write_failures": self.cache_write_failures,
            "deadline_exceeded": self.deadline_exceeded,
            "not_modified": self.not_modified,
            "cache": self.cache.stats(),
            "admission": self.gate.snapshot(),
            "degradation": self.ladder.snapshot(),
        }
