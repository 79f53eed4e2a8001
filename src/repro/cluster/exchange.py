"""Cross-shard decision-template exchange.

Decision templates are session-agnostic by construction (see
``repro.enforce.cache``): a template stored from one user's fresh check
can only allow another user's query when the full checker would have
reached the identical decision. That soundness argument says nothing about
*which process* derived the template — so a cluster can share them
across shards, turning a cache miss paid on one shard into a hit on
every shard.

The exchange is a broadcast bus with re-derivation at the receiver:

* Each shard's :class:`TemplateExchangeClient` hooks the gateway's
  ``template_observer`` (fresh Allow decisions made under a shared
  cache) and ``write_observer`` (tables a write touched) and publishes
  compact JSON events to the :class:`TemplateBus`.
* The bus rebroadcasts every event to every *other* shard.
* A receiving shard does not deserialize the template structure itself.
  It re-parses the event's bound SQL and calls
  :meth:`~repro.enforce.cache.DecisionCache.store` on its epoch's one
  store (the same object its own checker writes) — re-running the
  exact generalization logic (pinning, equality pattern, fact patterns)
  the local path runs, so a remotely derived template is bit-for-bit the
  template the shard would have derived from its own fresh check.

Epoch fencing
-------------
A template is only meaningful under the policy that justified it. Every
TEMPLATE event carries the publisher's policy *version* and content
*fingerprint* (:meth:`repro.policy.policy.Policy.fingerprint`); the
receiver captures its own gateway's current epoch **once** and applies
the event only when both match. During a rolling reload the shards
briefly disagree on versions and cross-version events are simply dropped
(counted as ``templates_fenced``) — a template minted under policy v1 is
never planted in a v2 cache. INVALIDATE events are *not* fenced:
evicting templates for a written table is sound under any policy (it
only ever removes cached work).

The race that remains — receiver fetches epoch v1, a reload installs v2,
the store lands in v1's cache — is harmless: v1's caches are retired
with the epoch and never consulted by v2 decisions.
"""

from __future__ import annotations

import asyncio
import logging
import queue
import socket
import threading
from typing import Any

from repro.enforce.decision import Decision
from repro.enforce.trace import _NULL_PREFIX, is_labeled_null
from repro.net import protocol
from repro.net.client import connect_with_retry
from repro.net.protocol import (
    ConnectionClosed,
    NetError,
    encode_frame,
    read_frame,
    read_frame_async,
    write_frame,
)
from repro.relalg.cq import Atom, Const, Var
from repro.sqlir import ast

logger = logging.getLogger(__name__)

#: Bus message types (framed exactly like the client protocol: the
#: payload must be a JSON object with a string ``type``).
TEMPLATE = "TEMPLATE"
INVALIDATE = "INVALIDATE"


# --------------------------------------------------------------------------
# Event serialization
# --------------------------------------------------------------------------


def _serialize_fact(fact: Atom) -> list:
    """``Atom`` → ``[rel, [["const", v] | ["null", n], ...]]``.

    Labeled nulls are serialized by their per-trace name suffix, so two
    occurrences of the *same* null stay identical after a round trip
    (the fact-pattern builder treats every null as a wildcard today, but
    the serialization should not be lossier than the object it carries).
    """
    args: list[list] = []
    for arg in fact.args:
        if is_labeled_null(arg):
            args.append(["null", arg.name[len(_NULL_PREFIX) :]])
        elif isinstance(arg, Const):
            args.append(["const", arg.value])
        else:  # pragma: no cover - trace facts only hold consts and nulls
            raise ValueError(f"cannot serialize fact argument {arg!r}")
    return [fact.rel, args]


def _deserialize_fact(payload: list) -> Atom:
    rel, args = payload
    terms: list = []
    for kind, value in args:
        if kind == "null":
            terms.append(Var(f"{_NULL_PREFIX}{value}"))
        elif kind == "const":
            terms.append(Const(value))
        else:
            raise NetError(
                f"unknown fact argument kind {kind!r}", code=protocol.ERR_MALFORMED
            )
    return Atom(rel, tuple(terms))


def template_event(
    bindings: dict[str, Any],
    decision: Decision,
    epoch,
    shard_id: int,
) -> dict[str, Any]:
    """The wire event publishing one fresh Allow decision.

    Ships the *bound* SQL (``decision.sql`` renders every literal), the
    session bindings, and the certified facts the justification used —
    everything the receiver's ``store()`` needs to re-derive the same
    template — plus the epoch identity for fencing.
    """
    return {
        "type": TEMPLATE,
        "shard": shard_id,
        "sql": decision.sql,
        "bindings": dict(bindings),
        "reason": decision.reason,
        "facts": [_serialize_fact(fact) for fact in decision.facts_used],
        "policy_version": epoch.version,
        "policy_fingerprint": epoch.policy.fingerprint(),
    }


def invalidate_event(tables: tuple[str, ...], epoch, shard_id: int) -> dict[str, Any]:
    """The wire event broadcasting one write's invalidation footprint."""
    return {
        "type": INVALIDATE,
        "shard": shard_id,
        "tables": list(tables),
        "policy_version": epoch.version,
    }


# --------------------------------------------------------------------------
# The bus (runs in the router process)
# --------------------------------------------------------------------------


class TemplateBus:
    """An asyncio broadcast hub: every frame in goes to every *other* peer.

    The bus is deliberately dumb — it neither parses template contents
    nor tracks shard identity; fencing happens at the receivers. Slow
    peers apply TCP backpressure only to themselves: each peer's
    rebroadcast awaits that peer's own drain.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._server: asyncio.AbstractServer | None = None
        self._peers: dict[int, asyncio.StreamWriter] = {}
        self._next_peer = 0
        self.events_in = 0
        self.events_out = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._peers.values()):
            writer.close()
        self._peers.clear()

    @property
    def peer_count(self) -> int:
        return len(self._peers)

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peer_id = self._next_peer
        self._next_peer += 1
        self._peers[peer_id] = writer
        try:
            while True:
                try:
                    event = await read_frame_async(reader, self.max_frame_bytes)
                except (ConnectionClosed, NetError):
                    return
                self.events_in += 1
                frame = encode_frame(event)
                for other_id, other in list(self._peers.items()):
                    if other_id == peer_id:
                        continue
                    try:
                        other.write(frame)
                        await other.drain()
                        self.events_out += 1
                    except (ConnectionError, RuntimeError):
                        self._peers.pop(other_id, None)
        finally:
            self._peers.pop(peer_id, None)
            writer.close()


# --------------------------------------------------------------------------
# The shard-side client
# --------------------------------------------------------------------------


class TemplateExchangeClient:
    """One shard's connection to the bus: publish hooks + apply loop.

    Publishing is asynchronous (a bounded queue drained by a sender
    thread) so the gateway's decision path never blocks on the bus; a
    full queue drops the event (counted) rather than stalling a request.
    The receive thread applies peer events directly into the gateway's
    current epoch, under the fencing rules in the module docstring.
    """

    QUEUE_CAP = 1024

    def __init__(
        self,
        host: str,
        port: int,
        gateway,
        shard_id: int,
        timeout_s: float = 30.0,
    ):
        self._gateway = gateway
        self.shard_id = shard_id
        self._sock = connect_with_retry(host, port, timeout_s)
        self._sock.settimeout(None)
        self._outbox: queue.Queue = queue.Queue(maxsize=self.QUEUE_CAP)
        self._lock = threading.Lock()
        self._counters = {
            "published": 0,
            "publish_dropped": 0,
            "received": 0,
            "templates_applied": 0,
            "templates_fenced": 0,
            "template_errors": 0,
            "invalidations_applied": 0,
        }
        self._closed = threading.Event()
        self._sender = threading.Thread(
            target=self._send_loop, name=f"exchange-send-{shard_id}", daemon=True
        )
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"exchange-recv-{shard_id}", daemon=True
        )
        self._sender.start()
        self._receiver.start()

    # -- wiring into the gateway -------------------------------------------------

    def attach(self) -> None:
        """Install the publish hooks on this client's gateway."""
        self._gateway.template_observer = self._on_fresh_allow
        self._gateway.write_observer = self._on_write

    def _on_fresh_allow(self, bound, bindings, decision, epoch) -> None:
        self._publish(template_event(bindings, decision, epoch, self.shard_id))

    def _on_write(self, tables: tuple[str, ...]) -> None:
        self._publish(invalidate_event(tables, self._gateway.epoch, self.shard_id))

    def _publish(self, event: dict) -> None:
        try:
            self._outbox.put_nowait(event)
        except queue.Full:
            self._count("publish_dropped")

    # -- the two loops -------------------------------------------------------------

    def _send_loop(self) -> None:
        while True:
            event = self._outbox.get()
            if event is None:
                return
            try:
                write_frame(self._sock, event)
                self._count("published")
            except OSError:
                if not self._closed.is_set():
                    logger.warning("template bus send failed; publishing stopped")
                return

    def _receive_loop(self) -> None:
        while True:
            try:
                event = read_frame(self._sock)
            except (ConnectionClosed, NetError, OSError):
                if not self._closed.is_set():
                    logger.warning("template bus receive failed; exchange stopped")
                return
            self._count("received")
            try:
                self._apply(event)
            except Exception:
                self._count("template_errors")
                logger.exception("failed to apply exchange event")

    # -- applying peer events ------------------------------------------------------

    def _apply(self, event: dict) -> None:
        kind = event.get("type")
        if kind == INVALIDATE:
            evicted = sum(
                cache.invalidate_tables(event.get("tables", ()))
                for cache in self._gateway.epoch.caches()
            )
            self._count("invalidations_applied")
            if evicted:
                self._gateway.metrics.increment("exchange_invalidations", evicted)
            return
        if kind != TEMPLATE:
            self._count("template_errors")
            return
        # Fence: capture the epoch once; both the identity check and the
        # store go through this one object, so a concurrent reload can at
        # worst land the template in a retired (never-consulted) cache.
        epoch = self._gateway.epoch
        cache = epoch.shared_cache
        if (
            cache is None
            or event.get("policy_version") != epoch.version
            or event.get("policy_fingerprint") != epoch.policy.fingerprint()
        ):
            self._count("templates_fenced")
            return
        stmt = self._gateway.db.parse(event["sql"])
        if not isinstance(stmt, ast.Select):
            self._count("template_errors")
            return
        decision = Decision(
            allowed=True,
            sql=event["sql"],
            reason=event.get("reason", "allowed by peer shard"),
            facts_used=tuple(
                _deserialize_fact(fact) for fact in event.get("facts", ())
            ),
        )
        cache.store(stmt, event.get("bindings", {}), decision)
        self._count("templates_applied")
        self._gateway.metrics.increment("exchange_templates_applied")

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def close(self) -> None:
        self._closed.set()
        if self._gateway.template_observer == self._on_fresh_allow:
            self._gateway.template_observer = None
        if self._gateway.write_observer == self._on_write:
            self._gateway.write_observer = None
        try:
            self._outbox.put_nowait(None)
        except queue.Full:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._sender.join(timeout=2.0)
        self._receiver.join(timeout=2.0)
