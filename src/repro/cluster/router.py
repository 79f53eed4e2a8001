"""The cluster front door: a wire-protocol router over gateway shards.

The :class:`ClusterRouter` listens on one address and speaks the exact
``repro.net`` protocol, so every existing client works against a cluster
unchanged. Its job splits by when a frame arrives:

**Before HELLO** the router answers itself:

* ``PING`` — locally (the router's own liveness).
* ``STATS`` — fanned out to every healthy shard concurrently and merged
  with :func:`~repro.cluster.aggregate.aggregate_stats`, plus a
  ``router`` section (routing counters, shard health).
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
shard holding its trace), forwards the HELLO on a pooled shard
connection, relays the WELCOME — and then stops interpreting frames
entirely: the client and shard sockets are **spliced** byte-for-byte in
both directions. Per-request deadlines, admission control, idle reaping
and graceful drain all continue to work because the shard's own
``NetServer`` enforces them; the router adds one hop of buffering and
nothing else.

Degradation: a shard that fails ``health_failures`` consecutive health
probes is marked down; HELLOs hashing to it are *shed* with
``ERROR/unavailable`` (sessions are sticky — silently rehoming a
principal would strand its trace) while sessions on healthy shards
continue untouched. A probe success marks it back up.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.aggregate import aggregate_stats
from repro.net import protocol
from repro.net.protocol import (
    ConnectionClosed,
    NetError,
    encode_frame,
    read_frame_async,
)

logger = logging.getLogger(__name__)

_ADMIN_VERBS = (
    protocol.POLICY,
    protocol.RELOAD,
    protocol.SHADOW,
    protocol.PROMOTE,
    protocol.ROLLBACK,
    protocol.MINE,
)

#: Admin verbs whose reply the AdminClient unwraps via a ``report`` key.
_REPORT_VERBS = (protocol.RELOAD, protocol.ROLLBACK)


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


@dataclass(frozen=True)
class RouterConfig:
    """Router tunables; the defaults suit tests and the benchmark."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read .port after start()
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Pre-warmed idle connections kept per shard for HELLO handoff.
    pool_size: int = 2
    connect_timeout_s: float = 5.0
    #: Seconds between health-probe rounds; 0 disables probing.
    health_interval_s: float = 1.0
    #: Consecutive probe failures before a shard is marked down.
    health_failures: int = 3
    #: Deadline for one shard's answer to a fanned-out STATS.
    stats_timeout_s: float = 30.0
    #: Deadline for one shard's answer to an admin verb (must outlast
    #: the shard server's own 120 s admin deadline).
    admin_timeout_s: float = 150.0


@dataclass
class _Shard:
    """One shard target and its health state (router-loop confined)."""

    index: int
    host: str
    port: int
    healthy: bool = True
    failures: int = 0
    sessions_routed: int = 0
    pool: deque = field(default_factory=deque)


class ClusterRouter:
    """Routes one listening address onto N gateway shards. Asyncio-native:
    construct, ``await start()``, read ``.port``, ``await stop()``."""

    def __init__(self, shards: list[tuple[str, int]], config: RouterConfig | None = None):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.config = config or RouterConfig()
        self._shards = [
            _Shard(index=i, host=host, port=port)
            for i, (host, port) in enumerate(shards)
        ]
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._splices: set[asyncio.Task] = set()
        self.port = self.config.port
        self.counters = {
            "sessions_routed": 0,
            "sessions_shed": 0,
            "pool_hits": 0,
            "pool_misses": 0,
            "health_probes": 0,
            "health_failures": 0,
            "stats_fanouts": 0,
            "admin_fanouts": 0,
        }

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for shard in self._shards:
            await self._replenish(shard)
        if self.config.health_interval_s > 0:
            self._health_task = asyncio.create_task(self._health_loop())

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._splices):
            task.cancel()
        if self._splices:
            await asyncio.gather(*self._splices, return_exceptions=True)
        for shard in self._shards:
            while shard.pool:
                _, writer = shard.pool.popleft()
                writer.close()

    # -- shard connections --------------------------------------------------------

    async def _dial(self, shard: _Shard):
        return await asyncio.wait_for(
            asyncio.open_connection(shard.host, shard.port),
            timeout=self.config.connect_timeout_s,
        )

    async def _acquire(self, shard: _Shard):
        """A fresh or pooled (reader, writer) to ``shard``."""
        while shard.pool:
            reader, writer = shard.pool.popleft()
            if writer.is_closing() or reader.at_eof():
                writer.close()
                continue
            self.counters["pool_hits"] += 1
            return reader, writer
        self.counters["pool_misses"] += 1
        return await self._dial(shard)

    async def _replenish(self, shard: _Shard) -> None:
        """Top the shard's pool back up to ``pool_size`` (best effort)."""
        try:
            while len(shard.pool) < self.config.pool_size:
                shard.pool.append(await self._dial(shard))
        except (OSError, asyncio.TimeoutError):
            pass  # the health loop will notice a genuinely down shard

    # -- health -------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for shard in self._shards:
                await self._probe(shard)

    async def _probe(self, shard: _Shard) -> None:
        self.counters["health_probes"] += 1
        try:
            reader, writer = await self._acquire(shard)
            try:
                writer.write(encode_frame({"type": protocol.PING, "id": -1}))
                await writer.drain()
                reply = await asyncio.wait_for(
                    read_frame_async(reader, self.config.max_frame_bytes),
                    timeout=self.config.connect_timeout_s,
                )
                if reply.get("type") != protocol.PONG:
                    raise NetError("health probe expected PONG")
            except BaseException:
                writer.close()
                raise
            # The probed connection stays usable (PING is pre-session).
            shard.pool.append((reader, writer))
        except (OSError, NetError, ConnectionClosed, asyncio.TimeoutError):
            self.counters["health_failures"] += 1
            shard.failures += 1
            if shard.healthy and shard.failures >= self.config.health_failures:
                shard.healthy = False
                logger.warning("shard %d marked down", shard.index)
            return
        shard.failures = 0
        if not shard.healthy:
            shard.healthy = True
            logger.info("shard %d marked up", shard.index)
        await self._replenish(shard)

    def _healthy_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards if shard.healthy]

    # -- client serving -----------------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    frame = await read_frame_async(reader, self.config.max_frame_bytes)
                except ConnectionClosed:
                    return
                except NetError as exc:
                    await self._reply(writer, _error(None, exc.code, str(exc)))
                    return
                kind = frame.get("type")
                request_id = frame.get("id")
                if kind == protocol.PING:
                    await self._reply(writer, {"type": protocol.PONG, "id": request_id})
                elif kind == protocol.GOODBYE:
                    await self._reply(writer, {"type": protocol.BYE, "reason": "goodbye"})
                    return
                elif kind == protocol.STATS:
                    await self._reply(writer, await self._cluster_stats(request_id))
                elif kind in _ADMIN_VERBS:
                    await self._reply(writer, await self._rolling_admin(frame))
                elif kind == protocol.HELLO:
                    done = await self._route_session(frame, reader, writer)
                    if done:
                        return
                else:
                    # Covers every session verb — QUERY/EXEC and also
                    # PREPARE/EXECUTE: prepared handles live in the home
                    # shard's per-connection table, so they only make
                    # sense after HELLO. Post-HELLO the byte splice makes
                    # EXECUTE stickiness automatic: every frame of the
                    # session, prepared or not, reaches the shard that
                    # vended the handle.
                    await self._reply(
                        writer,
                        _error(
                            request_id,
                            protocol.ERR_UNAUTHENTICATED,
                            f"{kind} requires a session; HELLO first",
                        ),
                    )
        finally:
            writer.close()

    async def _reply(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    # -- session routing ----------------------------------------------------------

    async def _route_session(
        self,
        hello: dict,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> bool:
        """Home the session, relay the HELLO, then splice. Returns True
        when the client connection is finished (spliced or fatally shed)."""
        bindings = hello.get("bindings")
        index = shard_index_for(bindings if isinstance(bindings, dict) else {}, len(self._shards))
        shard = self._shards[index]
        if not shard.healthy:
            self.counters["sessions_shed"] += 1
            await self._reply(
                client_writer,
                _error(
                    hello.get("id"),
                    protocol.ERR_UNAVAILABLE,
                    f"shard {index} is down; session cannot be homed",
                ),
            )
            return False  # the client may try a different principal
        try:
            shard_reader, shard_writer = await self._acquire(shard)
        except (OSError, asyncio.TimeoutError):
            shard.failures += 1
            self.counters["sessions_shed"] += 1
            await self._reply(
                client_writer,
                _error(
                    hello.get("id"),
                    protocol.ERR_UNAVAILABLE,
                    f"shard {index} refused a connection",
                ),
            )
            return False
        asyncio.create_task(self._replenish(shard))
        try:
            shard_writer.write(encode_frame(hello))
            await shard_writer.drain()
            reply = await asyncio.wait_for(
                read_frame_async(shard_reader, self.config.max_frame_bytes),
                timeout=self.config.connect_timeout_s,
            )
        except (OSError, NetError, ConnectionClosed, asyncio.TimeoutError):
            shard_writer.close()
            self.counters["sessions_shed"] += 1
            await self._reply(
                client_writer,
                _error(
                    hello.get("id"),
                    protocol.ERR_UNAVAILABLE,
                    f"shard {index} failed during session handoff",
                ),
            )
            return False
        await self._reply(client_writer, reply)
        if reply.get("type") != protocol.WELCOME:
            # Shard rejected the HELLO (bad version, draining, ...); the
            # handoff connection consumed the rejection, so retire it and
            # let the client try again on a fresh pre-session loop turn.
            shard_writer.close()
            return False
        shard.sessions_routed += 1
        self.counters["sessions_routed"] += 1
        await self._splice(client_reader, client_writer, shard_reader, shard_writer)
        return True

    async def _splice(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        shard_reader: asyncio.StreamReader,
        shard_writer: asyncio.StreamWriter,
    ) -> None:
        """Bidirectional byte relay until either side hangs up."""
        task = asyncio.gather(
            _pipe(client_reader, shard_writer),
            _pipe(shard_reader, client_writer),
            return_exceptions=True,
        )
        wrapper = asyncio.ensure_future(task)
        self._splices.add(wrapper)
        try:
            await wrapper
        except asyncio.CancelledError:
            pass
        finally:
            self._splices.discard(wrapper)
            shard_writer.close()

    # -- pre-session fan-outs ------------------------------------------------------

    async def _shard_call(self, shard: _Shard, frame: dict, timeout_s: float) -> dict:
        """One transient request/reply against a shard."""
        reader, writer = await self._dial(shard)
        try:
            writer.write(encode_frame(frame))
            await writer.drain()
            return await asyncio.wait_for(
                read_frame_async(reader, self.config.max_frame_bytes),
                timeout=timeout_s,
            )
        finally:
            with contextlib.suppress(OSError, RuntimeError):
                writer.write(encode_frame({"type": protocol.GOODBYE}))
            writer.close()

    async def _cluster_stats(self, request_id) -> dict:
        self.counters["stats_fanouts"] += 1
        healthy = self._healthy_shards()
        frame = {"type": protocol.STATS, "id": request_id}
        gathered = await asyncio.gather(
            *(
                self._shard_call(shard, frame, self.config.stats_timeout_s)
                for shard in healthy
            ),
            return_exceptions=True,
        )
        replies = [reply for reply in gathered if isinstance(reply, dict)]
        merged = aggregate_stats(replies)
        merged["type"] = protocol.STATS
        merged["id"] = request_id
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

    async def _rolling_admin(self, frame: dict) -> dict:
        """Apply one admin verb shard-by-shard (never two mid-swap).

        Stops at the first shard error: for RELOAD that leaves a version
        split (earlier shards new, later shards old). That state is
        degraded but sound — shards share no decisions, so each keeps
        deciding under the one policy it holds — and STATS reports it
        (``policy.consistent`` false) until the operator retries and the
        fleet converges.
        """
        self.counters["admin_fanouts"] += 1
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
                reply = await self._shard_call(shard, frame, self.config.admin_timeout_s)
            except (OSError, NetError, ConnectionClosed, asyncio.TimeoutError) as exc:
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


async def _pipe(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()
    except (ConnectionError, OSError):
        pass
    finally:
        with contextlib.suppress(OSError, RuntimeError):
            if writer.can_write_eof():
                writer.write_eof()


def _error(request_id, code: str, message: str) -> dict:
    return {"type": protocol.ERROR, "id": request_id, "code": code, "error": message}
