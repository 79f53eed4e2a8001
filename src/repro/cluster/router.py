"""The cluster front door: a wire-protocol router over gateway shards.

The :class:`ClusterRouter` listens on one address and speaks the exact
``repro.net`` protocol, so every existing client works against a cluster
unchanged. Its job splits by when a frame arrives:

**Before HELLO** the router answers itself:

* ``PING`` — locally (the router's own liveness).
* ``STATS`` — sent to every healthy shard in turn and merged with
  :func:`~repro.cluster.aggregate.aggregate_stats`, plus a ``router``
  section (routing counters, shard health).
* Admin verbs (``POLICY``/``RELOAD``/``SHADOW``/``PROMOTE``/
  ``ROLLBACK``/``MINE``) — fanned out **rolling, shard by shard**: shard
  *i* finishes its reload (new epoch built, installed, old epoch retired)
  before shard *i+1* starts, so at most one shard is mid-swap at any
  time and a fleet-wide reload never has a stop-the-world moment. The
  merged reply keeps the single-server keys (``report``, ``policy``,
  ...) so :class:`~repro.net.client.AdminClient` works unmodified, and
  adds per-shard replies under ``shards``. Two MINE actions get extra
  treatment: ``candidates`` merges the per-shard candidate lists by
  content fingerprint (the same traffic shape mined on two shards yields
  identical fingerprints — see
  :func:`repro.mining.miner.reconcile_by_fingerprint`), and ``approve``
  tolerates shards that never mined the fingerprint, succeeding when at
  least one shard accepts it.

**At HELLO** the router picks the session's home shard by hashing the
HELLO's bindings (:func:`shard_index_for` — deterministic across
processes and restarts, so a returning principal always lands on the
same shard, though each connection is a new session there), forwards
the HELLO on a pooled shard connection, relays the WELCOME — and then
stops interpreting frames entirely: the client and shard sockets are
**spliced** byte-for-byte in both directions. Frames are read with exact
lengths, so whatever the client sent after its HELLO is still in the
socket and reaches the shard. Per-request deadlines, admission control,
idle reaping and graceful drain all continue to work because the
shard's own ``NetServer`` enforces them; the router adds one hop and
nothing else.

Threads, as in :class:`~repro.net.server.NetServer`: one accept thread,
one thread per client connection (at most ``MAX_CONNECTIONS``; the next
is told ``ERROR/overloaded`` and closed), which answers pre-session
frames and, once spliced, copies client→shard bytes while one more
thread copies shard→client. One health-probe thread, and a short-lived
pool-refill thread per handoff. So the router runs at most
``2 * MAX_CONNECTIONS + 2`` threads, plus the refills in flight.

Degradation: a shard that fails ``HEALTH_FAILURES`` consecutive health
probes is marked down; HELLOs hashing to it are *shed* with
``ERROR/unavailable`` (placement is a pure function of the bindings, so
a principal is never rehomed) while sessions on healthy shards
continue untouched. A probe success marks it back up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.aggregate import aggregate_stats
from repro.net import protocol
from repro.net.protocol import ConnectionClosed, NetError, read_frame, write_frame
from repro.net.server import refuse

logger = logging.getLogger(__name__)

_ADMIN_VERBS = (
    protocol.POLICY,
    protocol.RELOAD,
    protocol.SHADOW,
    protocol.PROMOTE,
    protocol.ROLLBACK,
    protocol.MINE,
)


def shard_index_for(bindings: dict, shard_count: int) -> int:
    """The home shard for a session, by content hash of its bindings.

    Uses md5 over the canonical JSON of the sorted binding items — NOT
    Python's ``hash()``, which is salted per process; the router, tests,
    and any external tooling must agree on where a principal lives.
    """
    if shard_count <= 1:
        return 0
    canonical = json.dumps(
        sorted((str(k), v) for k, v in (bindings or {}).items()),
        separators=(",", ":"),
        default=str,
    )
    digest = hashlib.md5(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


#: Client connections served at once; each costs up to two threads.
MAX_CONNECTIONS = 256
#: Pre-warmed idle connections kept per shard for HELLO handoff.
POOL_SIZE = 2
#: Deadline for dialing a shard and for its answer to a health probe.
CONNECT_TIMEOUT_S = 5.0
#: Seconds between health-probe rounds.
HEALTH_INTERVAL_S = 0.5
#: Consecutive probe failures before a shard is marked down.
HEALTH_FAILURES = 3
#: Deadline for one shard's answer to a fanned-out STATS.
STATS_TIMEOUT_S = 30.0
#: Deadline for one shard's answer to an admin verb (must outlast the
#: shard server's own 120 s admin deadline).
ADMIN_TIMEOUT_S = 150.0

#: One splice read takes whatever is buffered, up to this much.
_RECV_BYTES = 64 * 1024
#: How often a blocked ``accept()`` re-checks for a stop.
_ACCEPT_POLL_S = 0.5


@dataclass(frozen=True)
class RouterConfig:
    """Where the router listens."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read .port after start()


@dataclass
class _Shard:
    """One shard target and its health state (guarded by the router's lock)."""

    index: int
    host: str
    port: int
    healthy: bool = True
    failures: int = 0
    sessions_routed: int = 0
    pool: deque = field(default_factory=deque)


class ClusterRouter:
    """Routes one listening address onto N gateway shards: construct,
    ``start()``, read ``.port``, ``stop()``."""

    def __init__(self, shards: list[tuple[str, int]], config: RouterConfig | None = None):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.config = config or RouterConfig()
        self._shards = [
            _Shard(index=i, host=host, port=port)
            for i, (host, port) in enumerate(shards)
        ]
        self._listener: socket.socket | None = None
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-router-accept", daemon=True
        )
        self._prober = threading.Thread(
            target=self._health_loop, name="repro-router-health", daemon=True
        )
        self._stopping = threading.Event()
        # Guards the counters, every _Shard field and ``_clients``.
        self._lock = threading.Lock()
        # Each open client connection, and its shard connection once spliced.
        self._clients: dict[socket.socket, socket.socket | None] = {}
        self.port = self.config.port
        self.counters = {
            "sessions_routed": 0,
            "sessions_shed": 0,
            "connections_rejected": 0,
            "pool_hits": 0,
            "pool_misses": 0,
            "health_probes": 0,
            "health_failures": 0,
            "stats_fanouts": 0,
            "admin_fanouts": 0,
        }

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        listener = socket.create_server((self.config.host, self.config.port), backlog=128)
        listener.settimeout(_ACCEPT_POLL_S)
        self._listener = listener
        self.port = listener.getsockname()[1]
        for shard in self._shards:
            self._refill(shard)
        self._acceptor.start()
        self._prober.start()

    def stop(self) -> None:
        """Close the listener and every client and shard socket; idempotent.

        Spliced sessions end at once: each copy thread finds its socket
        shut down, and the client sees the connection close.
        """
        if self._stopping.is_set() or self._listener is None:
            return
        self._stopping.set()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._acceptor.join()  # before the descriptor can be reused
        self._listener.close()
        with self._lock:
            live = [sock for pair in self._clients.items() for sock in pair if sock]
            pooled = [sock for shard in self._shards for sock in shard.pool]
            for shard in self._shards:
                shard.pool.clear()
        for sock in live:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        for sock in pooled:
            sock.close()
        self._prober.join()

    # -- shard connections --------------------------------------------------------

    def _dial(self, shard: _Shard) -> socket.socket:
        sock = socket.create_connection((shard.host, shard.port), timeout=CONNECT_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _acquire(self, shard: _Shard) -> tuple[socket.socket, bool]:
        """A pooled or else fresh connection to ``shard``, with the connect
        deadline as its timeout, and whether it came from the pool."""
        while True:
            with self._lock:
                sock = shard.pool.popleft() if shard.pool else None
            if sock is None:
                break
            if _idle_and_open(sock):
                sock.settimeout(CONNECT_TIMEOUT_S)
                return sock, True
            sock.close()
        return self._dial(shard), False

    def _release(self, shard: _Shard, sock: socket.socket) -> None:
        """Put a still-usable pre-session connection back, if there is room."""
        with self._lock:
            if not self._stopping.is_set() and len(shard.pool) < POOL_SIZE:
                shard.pool.append(sock)
                return
        sock.close()

    def _refill_soon(self, shard: _Shard) -> None:
        """Top the shard's pool up on another thread, off the session's path."""
        threading.Thread(
            target=self._refill, args=(shard,), name="repro-router-refill", daemon=True
        ).start()

    def _refill(self, shard: _Shard) -> None:
        """Dial until the pool holds ``POOL_SIZE`` (best effort; a dial
        that loses a race to a concurrent refill is closed by ``_release``)."""
        with contextlib.suppress(OSError):  # the health loop notices a down shard
            while len(shard.pool) < POOL_SIZE and not self._stopping.is_set():
                self._release(shard, self._dial(shard))

    # -- health -------------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._stopping.wait(HEALTH_INTERVAL_S):
            for shard in self._shards:
                if self._stopping.is_set():  # a probe may take CONNECT_TIMEOUT_S
                    return
                self._probe(shard)

    def _probe(self, shard: _Shard) -> None:
        self._count("health_probes")
        try:
            sock, _ = self._acquire(shard)
            try:
                write_frame(sock, {"type": protocol.PING, "id": -1})
                if read_frame(sock).get("type") != protocol.PONG:
                    raise NetError("health probe expected PONG")
            except BaseException:
                sock.close()
                raise
            # The probed connection stays usable (PING is pre-session).
            self._release(shard, sock)
        except (OSError, NetError):
            with self._lock:
                self.counters["health_failures"] += 1
                shard.failures += 1
                if shard.healthy and shard.failures >= HEALTH_FAILURES:
                    shard.healthy = False
                    logger.warning("shard %d marked down", shard.index)
            return
        with self._lock:
            shard.failures = 0
            if not shard.healthy:
                shard.healthy = True
                logger.info("shard %d marked up", shard.index)
        self._refill(shard)

    # -- client serving -----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, _ = listener.accept()
            except OSError as exc:
                if self._stopping.is_set():
                    return
                if not isinstance(exc, TimeoutError):  # the poll interval
                    logger.exception("accept failed")
                    time.sleep(0.05)  # e.g. out of descriptors: do not spin
                continue
            # Only this thread adds clients, so check-then-add cannot
            # overshoot: concurrent closes only make room.
            with self._lock:
                admitted = len(self._clients) < MAX_CONNECTIONS
                if admitted:
                    self._clients[sock] = None
                else:
                    self.counters["connections_rejected"] += 1
            if not admitted:
                refuse(sock, protocol.ERR_OVERLOADED)
                continue
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve, args=(sock,), name="repro-router-conn", daemon=True
            ).start()

    def _serve(self, client: socket.socket) -> None:
        """A client connection's whole life, on its own thread."""
        try:
            while True:
                try:
                    frame = read_frame(client)
                except ConnectionClosed:
                    return
                except NetError as exc:
                    write_frame(client, _error(None, exc.code, str(exc)))
                    return
                kind = frame.get("type")
                request_id = frame.get("id")
                if kind == protocol.PING:
                    write_frame(client, {"type": protocol.PONG, "id": request_id})
                elif kind == protocol.GOODBYE:
                    write_frame(client, {"type": protocol.BYE, "reason": "goodbye"})
                    return
                elif kind == protocol.STATS:
                    write_frame(client, self._cluster_stats(request_id))
                elif kind in _ADMIN_VERBS:
                    write_frame(client, self._rolling_admin(frame))
                elif kind == protocol.HELLO:
                    if self._route_session(frame, client):
                        return
                else:
                    # Covers every session verb — QUERY/EXEC and also
                    # PREPARE/EXECUTE: prepared handles live in the home
                    # shard's per-connection table, so they only make
                    # sense after HELLO. Post-HELLO the byte splice makes
                    # EXECUTE stickiness automatic: every frame of the
                    # session, prepared or not, reaches the shard that
                    # vended the handle.
                    message = f"{kind} requires a session; HELLO first"
                    write_frame(
                        client, _error(request_id, protocol.ERR_UNAUTHENTICATED, message)
                    )
        except OSError:
            pass  # the client reset the connection, or stop() shut it down
        except Exception:  # pragma: no cover - defensive; nothing should escape
            logger.exception("router connection handler crashed")
        finally:
            with self._lock:
                del self._clients[client]
            client.close()

    # -- session routing ----------------------------------------------------------

    def _route_session(self, hello: dict, client: socket.socket) -> bool:
        """Home the session, relay the HELLO, then splice. Returns True
        when the client connection is finished (spliced)."""
        bindings = hello.get("bindings")
        index = shard_index_for(bindings if isinstance(bindings, dict) else {}, len(self._shards))
        shard = self._shards[index]

        def shed(why: str) -> bool:
            self._count("sessions_shed")
            message = f"shard {index} {why}"
            write_frame(client, _error(hello.get("id"), protocol.ERR_UNAVAILABLE, message))
            return False  # the client may try a different principal

        if not shard.healthy:
            return shed("is down; session cannot be homed")
        try:
            upstream, pooled = self._acquire(shard)
        except OSError:
            with self._lock:
                shard.failures += 1
            return shed("refused a connection")
        # Whether a HELLO found a warm connection; health probes share the
        # pool but are not counted here.
        self._count("pool_hits" if pooled else "pool_misses")
        self._refill_soon(shard)
        try:
            try:
                write_frame(upstream, hello)
                reply = read_frame(upstream)
            except (OSError, NetError):
                return shed("failed during session handoff")
            write_frame(client, reply)
            if reply.get("type") != protocol.WELCOME:
                # Shard rejected the HELLO (bad version, draining, ...); the
                # handoff connection consumed the rejection, so retire it and
                # let the client try again pre-session.
                return False
            with self._lock:
                shard.sessions_routed += 1
                self.counters["sessions_routed"] += 1
                self._clients[client] = upstream  # for stop() to shut down
            self._splice(client, upstream)
            return True
        finally:
            upstream.close()

    def _splice(self, client: socket.socket, upstream: socket.socket) -> None:
        """Copy bytes both ways until each side has hung up."""
        upstream.settimeout(None)
        back = threading.Thread(
            target=_pump, args=(upstream, client), name="repro-router-splice", daemon=True
        )
        back.start()
        _pump(client, upstream)
        back.join()

    # -- pre-session fan-outs ------------------------------------------------------

    def _shard_call(self, shard: _Shard, frame: dict, timeout_s: float) -> dict:
        """One transient request/reply against a shard."""
        sock = self._dial(shard)
        try:
            sock.settimeout(timeout_s)
            write_frame(sock, frame)
            return read_frame(sock)
        finally:
            with contextlib.suppress(OSError):
                write_frame(sock, {"type": protocol.GOODBYE})
            sock.close()

    def _cluster_stats(self, request_id) -> dict:
        self._count("stats_fanouts")
        frame = {"type": protocol.STATS, "id": request_id}
        replies = []
        for shard in self._shards:
            if not shard.healthy:
                continue
            with contextlib.suppress(OSError, NetError):
                replies.append(self._shard_call(shard, frame, STATS_TIMEOUT_S))
        merged = aggregate_stats(replies)
        merged["type"] = protocol.STATS
        merged["id"] = request_id
        with self._lock:
            merged["router"] = {
                "counters": dict(self.counters),
                "shards": [
                    {
                        "index": shard.index,
                        "healthy": shard.healthy,
                        "sessions_routed": shard.sessions_routed,
                    }
                    for shard in self._shards
                ],
            }
        return merged

    def _rolling_admin(self, frame: dict) -> dict:
        """Apply one admin verb shard-by-shard (never two mid-swap).

        Stops at the first shard error: for RELOAD that leaves a version
        split (earlier shards new, later shards old). That state is
        degraded but sound — shards share no decisions, so each keeps
        deciding under the one policy it holds — and STATS reports it
        (``policy.consistent`` false) until the operator retries and the
        fleet converges.
        """
        self._count("admin_fanouts")
        kind = frame.get("type")
        # A fingerprint is mined per shard: approving it fleet-wide must
        # tolerate the shards that never saw that traffic shape.
        tolerant = kind == protocol.MINE and frame.get("action") == "approve"
        per_shard: list[dict] = []
        base: dict | None = None
        first_error: dict | None = None
        for shard in self._shards:
            if not shard.healthy:
                per_shard.append({"shard": shard.index, "skipped": "down"})
                continue
            try:
                reply = self._shard_call(shard, frame, ADMIN_TIMEOUT_S)
            except (OSError, NetError) as exc:
                return _error(
                    frame.get("id"),
                    protocol.ERR_UNAVAILABLE,
                    f"{kind} failed at shard {shard.index}: {exc}"
                    f" (applied to {len(per_shard)} shard(s) before it)",
                )
            if reply.get("type") == protocol.ERROR:
                reply.setdefault("error", f"{kind} failed")
                reply["error"] = f"shard {shard.index}: {reply['error']}"
                if tolerant:
                    per_shard.append(
                        {"shard": shard.index, "error": reply["error"]}
                    )
                    first_error = first_error or reply
                    continue
                return reply
            per_shard.append({"shard": shard.index, "reply": reply})
            base = reply
        if base is None:
            if first_error is not None:
                return first_error
            return _error(
                frame.get("id"), protocol.ERR_UNAVAILABLE, "no healthy shards"
            )
        merged = dict(base)
        merged["id"] = frame.get("id")
        merged["shards"] = per_shard
        if kind == protocol.MINE and frame.get("action") == "candidates":
            from repro.mining.miner import reconcile_by_fingerprint

            merged["candidates"] = reconcile_by_fingerprint(
                [
                    entry["reply"].get("candidates", [])
                    for entry in per_shard
                    if "reply" in entry
                ]
            )
        return merged


def _pump(source: socket.socket, sink: socket.socket) -> None:
    """Copy ``source`` to ``sink`` until end of stream, then end ``sink``'s
    write side so the peer sees the hang-up."""
    try:
        while True:
            chunk = source.recv(_RECV_BYTES)
            if not chunk:
                break
            sink.sendall(chunk)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            sink.shutdown(socket.SHUT_WR)


def _idle_and_open(sock: socket.socket) -> bool:
    """Whether a pooled connection is still open with nothing unread (a
    shard that reaped it has sent BYE, or closed)."""
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    return False


def _error(request_id, code: str, message: str) -> dict:
    return {"type": protocol.ERROR, "id": request_id, "code": code, "error": message}
