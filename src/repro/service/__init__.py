"""Crash-safe equilibrium-audit service (DESIGN.md §10).

A long-running, stdlib-only HTTP service answering equilibrium audits
(``is_equilibrium`` / ``find_swap_violation`` / ``best_swap`` /
``criticality``) backed by a content-addressed, integrity-verified result
cache (:mod:`repro.io.result_cache`), with request deadlines propagated
into every audit loop, bounded admission with typed load shedding,
and a serial → cache-only degradation ladder.
"""

from .admission import AdmissionGate, LoadShed
from .degradation import DegradationLadder
from .handlers import AuditEngine, ClientError, NotModified, QUERY_KINDS
from .server import AuditServer, build_server, serve

__all__ = [
    "AdmissionGate",
    "AuditEngine",
    "AuditServer",
    "ClientError",
    "DegradationLadder",
    "LoadShed",
    "NotModified",
    "QUERY_KINDS",
    "build_server",
    "serve",
]
