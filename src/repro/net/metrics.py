"""Network-tier observability, layered on ``repro.serve.metrics``.

The gateway already measures the enforcement pipeline (parse / check /
execute histograms, decision counters). The network tier adds what only
the socket front end can see: connection lifecycle, admission-control
sheds, deadline timeouts, idle reaps, protocol violations, and
whole-request wire latency. Everything reuses the thread-safe
:class:`~repro.serve.metrics.GatewayMetrics` primitives, so one
``STATS`` wire command can render both layers with the same machinery.
"""

from __future__ import annotations

import threading

from repro.serve.metrics import GatewayMetrics, MetricsSnapshot

#: Counter names the server maintains (free-form, like gateway counters;
#: listed here so the STATS consumer and docs have one source of truth).
COUNTERS = (
    "connections_opened",
    "connections_closed",
    "connections_rejected",  # admission control: max_connections reached
    "requests",
    "requests_ok",
    "requests_blocked",  # policy denials (BLOCKED replies)
    "requests_failed",  # engine/protocol errors on a request
    "requests_shed",  # admission control: in-flight bound reached
    "requests_timed_out",  # per-request deadline exceeded
    "frames_malformed",
    "frames_oversized",
    "idle_reaped",
    "drained_connections",  # connections closed by graceful drain
)

#: Histogram stage for server-side wall time of one wire request
#: (read frame excluded: measured dispatch → reply ready to encode).
STAGE_REQUEST = "net_request"

#: Histogram stage for what follows ``net_request``: encoding the replies
#: of one socket write plus the write itself. One observation per write,
#: so its count is replies in the classic path and bursts when pipelined.
STAGE_REPLY = "net_reply"


class NetMetrics:
    """Counters, the wire-latency histogram, and live gauges for one server."""

    def __init__(self) -> None:
        self._metrics = GatewayMetrics()
        self._gauge_lock = threading.Lock()
        self._active_connections = 0
        self._in_flight = 0

    # -- counters / histograms ----------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        self._metrics.increment(name, amount)

    def counter(self, name: str) -> int:
        return self._metrics.counter(name)

    def observe_request(self, seconds: float) -> None:
        self._metrics.observe_stage(STAGE_REQUEST, seconds)

    def observe_reply(self, seconds: float) -> None:
        self._metrics.observe_stage(STAGE_REPLY, seconds)

    # -- gauges -------------------------------------------------------------------

    def connection_opened(self) -> int:
        """Returns the new active-connection count."""
        self._metrics.increment("connections_opened")
        with self._gauge_lock:
            self._active_connections += 1
            return self._active_connections

    def connection_closed(self) -> int:
        self._metrics.increment("connections_closed")
        with self._gauge_lock:
            self._active_connections -= 1
            return self._active_connections

    @property
    def active_connections(self) -> int:
        with self._gauge_lock:
            return self._active_connections

    def request_started(self, limit: int) -> bool:
        """Admit one statement unless ``limit`` are already in flight.

        The in-flight gauge is the admission counter: check and take the
        slot under one lock, so concurrent connection threads can never
        overshoot the bound.
        """
        with self._gauge_lock:
            if self._in_flight >= limit:
                return False
            self._in_flight += 1
        self._metrics.increment("requests")
        return True

    def request_finished(self) -> None:
        with self._gauge_lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._gauge_lock:
            return self._in_flight

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return self._metrics.snapshot()

    def to_wire(self) -> dict:
        """The JSON-safe representation the STATS command returns."""
        snapshot = self.snapshot()
        return {
            "counters": snapshot.counters,
            "stages": snapshot.stages,
            "active_connections": self.active_connections,
            "in_flight": self.in_flight,
        }
