"""HTTP transport for the audit service (stdlib only, DESIGN.md §10).

A :class:`~http.server.ThreadingHTTPServer` front-ends
:class:`~repro.service.handlers.AuditEngine`:

* ``POST /audit`` — one query (see the handlers module for the schema);
* ``POST /batch`` — many queries on one graph, base APSP amortized;
* ``GET /healthz`` — liveness + current degradation mode;
* ``GET /stats`` — cache hit rate, shed count, queue depth, ladder state.

Every response is a complete JSON body with an explicit Content-Length —
typed errors map to typed statuses (400 client error, 503 shed/degraded
with a ``Retry-After`` header, 504 deadline exceeded, 500 compute failed)
and never a hang or a partial body.  A request answered without reading
its body (an unknown path, a missing, malformed or oversized
Content-Length) closes its connection, so the unread bytes are never
parsed as the next request.  Cacheable answers carry their
content-addressed cache key as an ``ETag`` (also ``"etag"`` in the body);
a ``POST /audit`` with ``If-None-Match`` naming a cached answer's key is
answered 304 with no body.  Start one with::

    python -m repro.cli serve --port 8642 --cache-dir results/audit_cache
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import DeadlineExceeded
from ..io import ResultCache
from .admission import AdmissionGate, LoadShed
from .degradation import DegradationLadder
from .handlers import _CLIENT_ERRORS, AuditEngine, ClientError, NotModified

__all__ = ["AuditServer", "build_server", "serve"]

_MAX_BODY = 8 * 1024 * 1024  # a graph6 line for n=50k is still far below


class AuditServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`AuditEngine`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, engine: AuditEngine, *, quiet: bool = True):
        self.engine = engine
        self.quiet = quiet
        super().__init__(address, AuditRequestHandler)

    def close(self) -> None:
        """Stop accepting, then release the listening socket."""
        self.shutdown()
        self.server_close()


class AuditRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-audit/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------

    def _send_json(self, status: int, body: dict, headers=()) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared or 0)
        except ValueError:
            length = -1
        if not 0 < length <= _MAX_BODY:
            # The body stays unread: close the connection, or its bytes
            # would be parsed as the next request on it.
            self.close_connection = True
            raise ClientError(
                f"request body needs a Content-Length of 1..{_MAX_BODY} "
                f"bytes, got {declared!r}"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClientError(f"request body is not valid JSON: {exc}")

    def _send_not_modified(self, etag: str) -> None:
        # 304 carries validator headers but no body (RFC 9110 §15.4.5).
        self.send_response(304)
        self.send_header("ETag", f'"{etag}"')
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _dispatch(self, handler) -> None:
        try:
            body = handler()
        except NotModified as exc:
            self._send_not_modified(exc.etag)
        except (ClientError, *_CLIENT_ERRORS) as exc:
            # Client errors are 400s wherever they are raised: parsing the
            # request or inside the audit (a bad vertex, a disconnected
            # graph) — never a 500 and never a ladder event.
            self._send_json(400, {"ok": False, "error": "bad-request",
                                  "detail": str(exc)})
        except LoadShed as exc:
            self._send_json(
                503,
                {"ok": False, "error": "load-shed", "detail": str(exc),
                 "retry_after_s": exc.retry_after},
                headers=(("Retry-After", f"{exc.retry_after:.0f}"),),
            )
        except DeadlineExceeded as exc:
            self.server.engine.deadline_exceeded += 1
            self._send_json(
                504,
                {"ok": False, "error": "deadline-exceeded",
                 "detail": str(exc)},
            )
        except Exception as exc:  # repro-lint: disable=R4 -- last-resort handler: typed 500 body, never a half-written response
            self._send_json(
                500,
                {"ok": False, "error": "compute-failed", "detail": repr(exc)},
            )
        else:
            headers = ()
            etag = body.get("etag") if isinstance(body, dict) else None
            if etag:
                headers = (("ETag", f'"{etag}"'),)
            self._send_json(200, body, headers=headers)

    # -- routes -----------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        engine = self.server.engine
        if self.path == "/healthz":
            self._dispatch(engine.healthz)
        elif self.path == "/stats":
            self._dispatch(engine.stats)
        else:
            self._send_json(404, {"ok": False, "error": "not-found",
                                  "detail": self.path})

    def do_POST(self):  # noqa: N802 - stdlib naming
        engine = self.server.engine
        if self.path == "/audit":
            self._dispatch(lambda: engine.handle_audit(
                self._read_body(),
                if_none_match=self.headers.get("If-None-Match"),
            ))
        elif self.path == "/batch":
            self._dispatch(lambda: engine.handle_batch(self._read_body()))
        else:
            self.close_connection = True  # the body stays unread
            self._send_json(404, {"ok": False, "error": "not-found",
                                  "detail": self.path})


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir: str = "results/audit_cache",
    default_timeout: float = 30.0,
    capacity: int = 1,
    queue_limit: int = 8,
    retry_after: float = 1.0,
    threshold: int = 2,
    recover_after: float = 30.0,
    quiet: bool = True,
) -> AuditServer:
    """Wire cache + gate + ladder + engine into a ready (unstarted) server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — tests and the CI smoke job rely on this.
    """
    engine = AuditEngine(
        ResultCache(cache_dir),
        default_timeout=default_timeout,
        gate=AdmissionGate(
            capacity=capacity, queue_limit=queue_limit, retry_after=retry_after
        ),
        ladder=DegradationLadder(
            threshold=threshold, recover_after=recover_after
        ),
    )
    return AuditServer((host, port), engine, quiet=quiet)


def serve(host: str, port: int, **config) -> None:
    """Blocking entry point used by ``repro.cli serve``."""
    server = build_server(host, port, **config)
    bound = server.server_address
    print(f"repro audit service listening on http://{bound[0]}:{bound[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.close()
