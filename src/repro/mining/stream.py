"""The decision-audit stream: durable sink + bounded subscriptions.

``gateway.decision_audit`` is a single nullable callback. An
:class:`AuditStream` is what a deployment installs there: it stamps each
:class:`~repro.enforce.proxy.DecisionAuditRecord` with a monotonic id,
appends it to an optional durable JSONL sink, and fans it out to any
number of bounded in-process subscriptions (the mining service holds
one; tooling may hold others).

Loss is explicit, never silent: a subscription whose queue is full
evicts its oldest entry and increments a ``dropped`` counter; the
stream's :meth:`~AuditStream.stats` aggregate feeds the gateway's
``audit_dropped`` snapshot counter. A consumer can therefore always tell
a complete window from a clipped one — the property the old capped
decision ring lacked.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass

from repro.enforce.trace import fact_to_wire


@dataclass(frozen=True)
class AuditEntry:
    """One audited decision with its stream-assigned id."""

    id: int
    record: object  # repro.enforce.proxy.DecisionAuditRecord (duck-typed)


class AuditSubscription:
    """A bounded queue of :class:`AuditEntry`, fed by one stream."""

    def __init__(self, stream: "AuditStream", cap: int):
        if cap < 1:
            raise ValueError("subscription cap must be >= 1")
        self._stream = stream
        self._cap = cap
        self._lock = threading.Lock()
        self._entries: deque[AuditEntry] = deque()
        self.dropped = 0
        self.delivered = 0

    def offer(self, entry: AuditEntry) -> None:
        with self._lock:
            if len(self._entries) >= self._cap:
                self._entries.popleft()
                self.dropped += 1
            self._entries.append(entry)
            self.delivered += 1

    def drain(self) -> list[AuditEntry]:
        """All queued entries, oldest first; the queue is left empty."""
        with self._lock:
            entries = list(self._entries)
            self._entries.clear()
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        self._stream._unsubscribe(self)


class AuditStream:
    """The callable installed as ``gateway.decision_audit``."""

    def __init__(self, sink_path: str | None = None, shard_id: int | None = None):
        self._lock = threading.Lock()
        #: Stamped into every sink line as ``shard`` when this gateway is
        #: one shard of a cluster, so merged logs stay attributable.
        self._shard_id = shard_id
        self._next_id = 1
        self._subscriptions: list[AuditSubscription] = []
        self.records = 0
        self.sink_records = 0
        self.sink_errors = 0
        self._sink_path = sink_path
        self._sink = open(sink_path, "a", encoding="utf-8") if sink_path else None

    # -- the audit hook -----------------------------------------------------------

    def __call__(self, record) -> None:
        with self._lock:
            entry = AuditEntry(id=self._next_id, record=record)
            self._next_id += 1
            self.records += 1
            subscriptions = list(self._subscriptions)
            if self._sink is not None:
                try:
                    self._sink.write(json.dumps(self._to_wire(entry), default=str) + "\n")
                    self._sink.flush()
                    self.sink_records += 1
                except OSError:
                    self.sink_errors += 1
        for subscription in subscriptions:
            subscription.offer(entry)

    # -- subscriptions ------------------------------------------------------------

    def subscribe(self, cap: int = 8192) -> AuditSubscription:
        subscription = AuditSubscription(self, cap)
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: AuditSubscription) -> None:
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            subscriptions = list(self._subscriptions)
            stats = {
                "records": self.records,
                "subscribers": len(subscriptions),
                "sink_records": self.sink_records,
                "sink_errors": self.sink_errors,
            }
        stats["dropped"] = sum(s.dropped for s in subscriptions)
        return stats

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
            self._subscriptions.clear()

    # -- sink format --------------------------------------------------------------

    def _to_wire(self, entry: AuditEntry) -> dict:
        """One JSONL sink line; facts as :func:`fact_to_wire` writes them."""
        record = entry.record
        line = {
            "id": entry.id,
            "sql": record.sql,
            "bindings": dict(record.bindings),
            "allowed": record.allowed,
            "policy_version": record.policy_version,
            "from_cache": record.from_cache,
            "trace_len": record.trace_len,
            "views": list(getattr(record, "views", ())),
            "facts": [fact_to_wire(fact) for fact in record.facts],
        }
        if self._shard_id is not None:
            line["shard"] = self._shard_id
        return line
