"""The asyncio network front end of the enforcement gateway.

One :class:`NetServer` owns one
:class:`~repro.serve.gateway.EnforcementGateway` and exposes it over TCP
via the protocol in :mod:`repro.net.protocol`. The event loop does all
socket work; the synchronous enforcement pipeline (parse → check →
execute) runs unchanged on a bounded thread pool, one statement at a
time per session (a session's statements must stay ordered so trace
history accumulates correctly — see Example 2.1).

Production shape, not a toy:

* **Admission control** — at most ``max_connections`` concurrent
  connections (excess are told ``ERROR/overloaded`` and closed) and at
  most ``max_in_flight`` statements executing at once. A statement
  arriving with the pipeline full is *shed* immediately with
  ``ERROR/overloaded`` rather than queued unboundedly: the client
  learns in microseconds and can back off, and admitted requests keep a
  bounded queue ahead of them (the E12 overload run measures exactly
  this — p50 of admitted requests stays flat while excess load is shed).
* **Per-request deadlines** — a statement that exceeds
  ``request_timeout_s`` gets ``ERROR/timeout`` and the connection is
  closed: the engine cannot cancel an in-flight check, so the session
  object may still be busy and must not receive further statements
  (the worker slot is reclaimed when the orphaned statement finishes).
* **Idle reaping** — a connection silent for ``idle_timeout_s`` is
  closed with ``BYE/idle`` so leaked client sockets cannot pin server
  state forever.
* **Frame hygiene** — oversized frames are rejected from the length
  prefix alone, malformed payloads answered with ``ERROR/malformed``;
  both close the connection (framing state is unrecoverable, and a
  confused peer should not keep a slot).
* **Graceful drain** — :meth:`shutdown` stops accepting, lets every
  in-flight statement finish and its reply flush, closes the survivors
  with ``BYE/shutting-down``, then tears down the pool. Statements that
  arrive *during* the drain get ``ERROR/shutting_down`` — including
  statements already queued in a pipelined connection's read-ahead
  buffer when the drain starts.
* **Frame pipelining** — each connection runs a dedicated reader task
  that keeps reading ahead (up to ``pipeline_depth`` frames) while the
  current statement executes on a worker thread, so a client that
  streams requests overlaps its encode/send work with server-side
  checking instead of paying a full round trip per request. Frames are
  still *dispatched* strictly in arrival order, serially per connection
  — a session's statements must stay ordered for trace history — so
  pipelining changes request latency, never semantics. A run of
  consecutive statement frames already queued is dispatched as one
  *batched* worker job (one loop<->pool handoff for the run, each
  statement still validated, admitted, executed, and metered
  individually), and replies are coalesced: consecutive small replies
  are encoded into one buffer and flushed with a single ``write()``
  when the read-ahead queue goes empty (or the buffer grows large),
  cutting per-reply syscall and segment overhead on the hit path.
* **Prepared statements** — ``PREPARE`` runs a statement's per-shape
  work (parse, bind plan, skeletonization) once and stores the plan in
  a per-connection handle table stamped with the policy version;
  ``EXECUTE`` ships only bindings. Handles from before a hot reload are
  refused with ``ERROR/malformed`` + ``stale: true`` so clients
  re-prepare — decisions always come from the current epoch.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.enforce.decision import PolicyViolation
from repro.net import protocol
from repro.net.metrics import NetMetrics
from repro.net.protocol import (
    ConnectionClosed,
    FrameTooLarge,
    NetError,
    read_frame_async,
)
from repro.serve.gateway import EnforcementGateway, GatewayConnection
from repro.util.errors import DbacError

logger = logging.getLogger("repro.net")


@dataclass(frozen=True)
class ServerConfig:
    """Everything configurable about a :class:`NetServer`.

    ``execute_delay_s`` is a fault-injection knob: it stalls every
    statement inside the worker thread for that long before execution.
    Tests and the E12 overload run use it to make timing-dependent
    behavior (shedding, deadlines, drain) deterministic; leave it 0 in
    real deployments.

    ``shard_id`` identifies this server within a ``repro.cluster``
    deployment; when set it is stamped into WELCOME and STATS (additive
    fields — older clients ignore them, so ``PROTOCOL_VERSION`` stays 1).
    """

    host: str = "127.0.0.1"
    port: int = 7433
    max_connections: int = 64
    max_in_flight: int = 16
    worker_threads: int = 8
    request_timeout_s: float = 10.0
    idle_timeout_s: float = 300.0
    drain_grace_s: float = 10.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    execute_delay_s: float = 0.0
    shard_id: int | None = None
    #: How many frames a connection's reader may buffer ahead of the
    #: dispatcher. Bounds per-connection memory and, once full, pushes
    #: backpressure onto the TCP window instead of the heap.
    pipeline_depth: int = 32

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")


class NetServer:
    """Serves one gateway over TCP; see the module docstring.

    ``lifecycle`` (a :class:`repro.lifecycle.reload.LifecycleManager`
    bound to the same gateway) enables the policy admin verbs —
    ``POLICY`` / ``RELOAD`` / ``SHADOW`` / ``PROMOTE`` / ``ROLLBACK`` /
    ``MINE`` — and a ``policy`` section in ``STATS``. Without it the
    admin verbs answer ``ERROR/bad_request``; ``MINE`` additionally
    needs a mining service attached to the manager.
    """

    def __init__(
        self,
        gateway: EnforcementGateway,
        config: ServerConfig | None = None,
        lifecycle=None,
    ):
        self.gateway = gateway
        self.config = config or ServerConfig()
        self.lifecycle = lifecycle
        self.metrics = NetMetrics()
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        # Loop-thread-only state (no lock needed: asyncio is single-threaded
        # and executor-future callbacks are delivered on the loop thread).
        self._in_flight = 0
        self._active = 0
        # One lock per session principal: two wire connections resuming the
        # same session must not run statements on one proxy concurrently.
        self._session_locks: dict[tuple, threading.Lock] = {}
        self._session_locks_guard = threading.Lock()
        self._started_at: float | None = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads, thread_name_prefix="repro-net"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` bound the listening socket."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close."""
        if self._server is None:
            return
        self._draining.set()
        self._server.close()
        await self._server.wait_closed()
        handlers = set(self._handlers)
        if handlers:
            done, pending = await asyncio.wait(
                handlers, timeout=self.config.drain_grace_s
            )
            for task in pending:  # past the grace period: force-close
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        self._server = None

    # -- connection handling ------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            await self._handle(reader, writer)
        except Exception:  # pragma: no cover - defensive; nothing should escape
            logger.exception("connection handler crashed")
        finally:
            self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._active >= self.config.max_connections or self.draining:
            self.metrics.increment("connections_rejected")
            code = (
                protocol.ERR_SHUTTING_DOWN if self.draining else protocol.ERR_OVERLOADED
            )
            await self._send(
                writer,
                {
                    "type": protocol.ERROR,
                    "code": code,
                    "error": f"server refused connection ({code})",
                },
            )
            return
        self._active += 1
        self.metrics.connection_opened()
        state = _ConnState()
        # The reader task keeps pulling frames while the dispatcher below
        # is busy executing a statement; the bounded queue is the
        # pipeline. Frames are dispatched strictly in arrival order.
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.pipeline_depth)
        reader_task = asyncio.ensure_future(self._read_loop(reader, queue))
        out = bytearray()
        drained = False
        pending: tuple | None = None
        try:
            while True:
                if pending is not None:
                    event, pending = pending, None
                else:
                    event = await self._next_event(queue, writer, out)
                if event is None:  # idle reap / drain while idle (BYE sent)
                    drained = self.draining
                    return
                kind, payload = event
                if kind == "eof":
                    drained = self.draining
                    return
                if kind in ("oversized", "malformed"):
                    # Framing state is unrecoverable; answer and close.
                    self.metrics.increment(f"frames_{kind}")
                    protocol.encode_frame_into(
                        {
                            "type": protocol.ERROR,
                            "code": payload.code,
                            "error": str(payload),
                        },
                        out,
                    )
                    return
                # Pipelined fast path: a run of statement frames already
                # queued behind this one executes as a single worker job
                # (one loop<->pool handoff for the whole run). A control or
                # admin frame — or a terminal reader event — ends the run
                # and is carried over to the next loop iteration.
                batch: list | None = None
                if self._batchable(payload, state) and not queue.empty():
                    batch = [payload]
                    while len(batch) < self.config.pipeline_depth and not queue.empty():
                        nxt = queue.get_nowait()
                        if nxt[0] == "frame" and self._batchable(nxt[1], state):
                            batch.append(nxt[1])
                        else:
                            pending = nxt
                            break
                if batch is not None and len(batch) > 1:
                    if not await self._execute_batch(batch, state, out):
                        return
                else:
                    reply, keep_open = await self._dispatch(frame=payload, state=state)
                    if isinstance(reply, _Authenticated):
                        state.bind(
                            reply.connection, reply.key, self._lock_for(reply.key)
                        )
                        reply = reply.welcome
                    if reply is not None:
                        protocol.encode_frame_into(reply, out)
                    if not keep_open:
                        return
                # Coalesce replies: hold small frames in ``out`` while more
                # requests are already queued; flush in one write when the
                # pipeline runs dry (or the buffer gets big). _next_event
                # also flushes before blocking, so a reply is never parked
                # while the connection waits for input.
                if len(out) >= _FLUSH_BYTES or (queue.empty() and pending is None):
                    await self._flush(writer, out)
                if self.draining and queue.empty() and pending is None:
                    # Between statements, pipeline empty: safe to say BYE.
                    # Queued statements (the pipelined-drain case) were
                    # answered ERR_SHUTTING_DOWN by the dispatch above.
                    drained = True
                    protocol.encode_frame_into(
                        {"type": protocol.BYE, "reason": "shutting down"}, out
                    )
                    return
        except ConnectionClosed:
            return
        except asyncio.CancelledError:  # drain grace expired
            raise
        finally:
            reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await reader_task
            with contextlib.suppress(ConnectionClosed, Exception):
                await self._flush(writer, out)
            self._active -= 1
            self.metrics.connection_closed()
            if drained:
                self.metrics.increment("drained_connections")

    async def _read_loop(self, reader: asyncio.StreamReader, queue: asyncio.Queue):
        """Per-connection reader: frames in arrival order, then one
        terminal event. ``queue.put`` blocks at ``pipeline_depth``,
        pushing backpressure onto the socket."""
        while True:
            try:
                frame = await read_frame_async(reader, self.config.max_frame_bytes)
            except ConnectionClosed:
                await queue.put(("eof", None))
                return
            except FrameTooLarge as exc:
                await queue.put(("oversized", exc))
                return
            except NetError as exc:
                await queue.put(("malformed", exc))
                return
            await queue.put(("frame", frame))

    async def _next_event(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter, out: bytearray
    ) -> tuple | None:
        """Next reader event, racing the idle clock and the drain signal.

        Returns ``None`` when the connection should close (idle reap,
        drain while idle); the BYE has been sent.
        """
        if not queue.empty():
            return queue.get_nowait()
        # About to block on the client: anything still buffered is owed.
        await self._flush(writer, out)
        get_task = asyncio.ensure_future(queue.get())
        drain_task = asyncio.ensure_future(self._draining.wait())
        try:
            done, _ = await asyncio.wait(
                {get_task, drain_task},
                timeout=self.config.idle_timeout_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            drain_task.cancel()
        if get_task in done:
            return get_task.result()
        get_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            # The get may have completed between wait() and cancel();
            # never drop a frame on the floor.
            return await get_task
        if self.draining:
            await self._send(writer, {"type": protocol.BYE, "reason": "shutting down"})
            return None
        self.metrics.increment("idle_reaped")
        await self._send(writer, {"type": protocol.BYE, "reason": "idle"})
        return None

    # -- dispatch -----------------------------------------------------------------

    async def _dispatch(
        self, frame: dict, state: "_ConnState"
    ) -> tuple[dict | None, bool]:
        """Returns ``(reply, keep_open)``."""
        kind = frame["type"]
        if kind == protocol.HELLO:
            return self._handle_hello(frame, state.conn), True
        if kind == protocol.PING:
            return {"type": protocol.PONG, "id": frame.get("id")}, True
        if kind == protocol.STATS:
            return self._handle_stats(frame), True
        if kind == protocol.GOODBYE:
            return {"type": protocol.BYE, "reason": "goodbye"}, False
        if kind in (protocol.QUERY, protocol.EXEC):
            return await self._handle_statement(frame, state)
        if kind == protocol.PREPARE:
            return await self._handle_prepare(frame, state), True
        if kind == protocol.EXECUTE:
            return await self._handle_execute(frame, state)
        if kind in _ADMIN_VERBS:
            return await self._handle_admin(frame, kind), True
        return (
            _error(
                frame,
                protocol.ERR_BAD_REQUEST,
                f"unknown message type {kind!r}",
            ),
            True,
        )

    def _handle_hello(
        self, frame: dict, session_conn: GatewayConnection | None
    ) -> dict | "_Authenticated":
        if session_conn is not None:
            return _error(frame, protocol.ERR_BAD_REQUEST, "connection already bound")
        version = frame.get("version")
        if version != protocol.PROTOCOL_VERSION:
            return _error(
                frame,
                protocol.ERR_BAD_VERSION,
                f"server speaks protocol {protocol.PROTOCOL_VERSION}, client sent"
                f" {version!r}",
            )
        bindings = frame.get("bindings")
        if not isinstance(bindings, dict) or not bindings:
            return _error(
                frame,
                protocol.ERR_BAD_REQUEST,
                "HELLO needs a non-empty 'bindings' object",
            )
        fresh = bool(frame.get("fresh", False))
        connection = self.gateway.connect(bindings, fresh=fresh)
        key = tuple(sorted(bindings.items()))
        welcome = {
            "type": protocol.WELCOME,
            "version": protocol.PROTOCOL_VERSION,
            "session": dict(bindings),
            # Additive field (older clients ignore it): which storage
            # backend this deployment fronts.
            "backend": self.gateway.db.backend.describe(),
        }
        if self.config.shard_id is not None:
            welcome["shard_id"] = self.config.shard_id
        return _Authenticated(connection=connection, key=key, welcome=welcome)

    def _handle_stats(self, frame: dict) -> dict:
        gateway_snapshot = self.gateway.snapshot()
        reply = {
            "type": protocol.STATS,
            "id": frame.get("id"),
            "net": self.metrics.to_wire(),
            "gateway": {
                "counters": gateway_snapshot.counters,
                "view_checks": gateway_snapshot.view_checks,
                "stages": gateway_snapshot.stages,
            },
            "cache_hit_rate": self.gateway.cache_hit_rate(),
            "backend": self.gateway.db.backend.describe(),
            # Additive fields (see ServerConfig.shard_id): cluster identity
            # and process age, used by the router's aggregated STATS.
            "uptime_s": self.uptime_s,
        }
        if self.config.shard_id is not None:
            reply["shard_id"] = self.config.shard_id
        if self.lifecycle is not None:
            reply["policy"] = self.lifecycle.status()
        else:
            reply["policy"] = {"active_version": self.gateway.policy_version}
        return reply

    # -- policy-lifecycle admin verbs ---------------------------------------------

    async def _handle_admin(self, frame: dict, kind: str) -> dict:
        """Run one lifecycle verb on the worker pool (reloads compile policies)."""
        if self.lifecycle is None:
            return _error(
                frame,
                protocol.ERR_BAD_REQUEST,
                "server was started without policy lifecycle management",
            )
        assert self._loop is not None and self._pool is not None
        try:
            work = self._admin_work(frame, kind)
        except DbacError as exc:
            return _error(frame, protocol.ERR_BAD_REQUEST, str(exc))
        try:
            # Generous fixed deadline: an operator verb may spawn checker
            # workers, which outlives the per-statement budget.
            return await asyncio.wait_for(
                self._loop.run_in_executor(self._pool, work), timeout=120.0
            )
        except asyncio.TimeoutError:
            return _error(frame, protocol.ERR_TIMEOUT, f"{kind} did not finish in 120s")

    def _admin_work(self, frame: dict, kind: str):
        """Build the (worker-thread) thunk for one admin verb.

        Frame validation happens here, on the loop thread, so malformed
        admin requests answer immediately.
        """
        from repro.policy.serialize import policy_from_text

        lifecycle = self.lifecycle
        frame_id = frame.get("id")

        def parse_policy() -> tuple:
            text = frame.get("policy_text")
            if not isinstance(text, str) or not text.strip():
                raise NetError(
                    f"{kind} needs a non-empty 'policy_text' string",
                    code=protocol.ERR_BAD_REQUEST,
                )
            provenance = frame.get("provenance", "hand-written")
            label = frame.get("label", "")
            return text, provenance, label

        if kind == protocol.POLICY:
            return lambda: {
                "type": protocol.POLICY,
                "id": frame_id,
                "policy": lifecycle.status(),
            }
        if kind == protocol.RELOAD:
            text, provenance, label = parse_policy()

            def do_reload() -> dict:
                policy = policy_from_text(text, self.gateway.db.schema, name=label or "reloaded")
                report = lifecycle.reload(policy, provenance=provenance, label=label)
                return {
                    "type": protocol.RELOAD,
                    "id": frame_id,
                    "report": _reload_to_wire(report),
                }

            return _admin_guard(frame, do_reload)
        if kind == protocol.SHADOW:
            action = frame.get("action")
            if action == "start":
                text, provenance, label = parse_policy()

                def do_start() -> dict:
                    policy = policy_from_text(
                        text, self.gateway.db.schema, name=label or "candidate"
                    )
                    version = lifecycle.start_shadow(
                        policy, provenance=provenance, label=label
                    )
                    return {
                        "type": protocol.SHADOW,
                        "id": frame_id,
                        "action": "start",
                        "candidate_version": version.version,
                        "fingerprint": version.fingerprint,
                    }

                return _admin_guard(frame, do_start)
            if action == "stop":
                return _admin_guard(
                    frame,
                    lambda: {
                        "type": protocol.SHADOW,
                        "id": frame_id,
                        "action": "stop",
                        "stats": lifecycle.stop_shadow(),
                    },
                )
            if action == "status":
                return _admin_guard(
                    frame,
                    lambda: {
                        "type": protocol.SHADOW,
                        "id": frame_id,
                        "action": "status",
                        "shadow": lifecycle.shadow_status(),
                    },
                )
            raise NetError(
                "SHADOW needs action: 'start', 'stop', or 'status'",
                code=protocol.ERR_BAD_REQUEST,
            )
        if kind == protocol.PROMOTE:
            from repro.lifecycle.promote import GateConfig

            overrides = {}
            for key in (
                "max_divergences",
                "min_shadow_checks",
                "min_precision",
                "min_recall",
            ):
                if key in frame:
                    overrides[key] = frame[key]
            try:
                gates = GateConfig(**overrides) if overrides else None
            except TypeError as exc:
                raise NetError(
                    f"bad PROMOTE gate override: {exc}", code=protocol.ERR_BAD_REQUEST
                ) from exc

            def do_promote() -> dict:
                report = lifecycle.promote(gates)
                return {
                    "type": protocol.PROMOTE,
                    "id": frame_id,
                    "promoted": report.promoted,
                    "candidate_version": report.candidate_version,
                    "gates": [
                        {"name": g.name, "passed": g.passed, "detail": g.detail}
                        for g in report.gates
                    ],
                    "diagnoses": report.diagnoses,
                }

            return _admin_guard(frame, do_promote)
        if kind == protocol.MINE:
            return self._mine_work(frame, frame_id)
        assert kind == protocol.ROLLBACK
        return _admin_guard(
            frame,
            lambda: {
                "type": protocol.ROLLBACK,
                "id": frame_id,
                "report": _reload_to_wire(lifecycle.rollback()),
            },
        )

    def _mine_work(self, frame: dict, frame_id):
        """Build the worker thunk for one MINE action."""
        mining = getattr(self.lifecycle, "mining", None)
        if mining is None:
            raise NetError(
                "no mining service attached; start the server with"
                " GatewayConfig(mining=…) or `repro serve --mine`",
                code=protocol.ERR_BAD_REQUEST,
            )
        action = frame.get("action")
        if action == "status":
            return _admin_guard(
                frame,
                lambda: {
                    "type": protocol.MINE,
                    "id": frame_id,
                    "action": "status",
                    "mining": mining.status(),
                },
            )
        if action == "candidates":
            return _admin_guard(
                frame,
                lambda: {
                    "type": protocol.MINE,
                    "id": frame_id,
                    "action": "candidates",
                    "candidates": mining.candidates_wire(),
                    "audit": mining.disposition_audit(),
                },
            )
        if action == "approve":
            fingerprint = frame.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                raise NetError(
                    "MINE approve needs a non-empty 'fingerprint' string",
                    code=protocol.ERR_BAD_REQUEST,
                )
            return _admin_guard(
                frame,
                lambda: {
                    "type": protocol.MINE,
                    "id": frame_id,
                    "action": "approve",
                    "candidate": mining.approve(fingerprint),
                },
            )
        if action == "run":
            return _admin_guard(
                frame,
                lambda: {
                    "type": protocol.MINE,
                    "id": frame_id,
                    "action": "run",
                    "cycle": mining.run_once(),
                },
            )
        raise NetError(
            "MINE needs action: 'status', 'candidates', 'approve', or 'run'",
            code=protocol.ERR_BAD_REQUEST,
        )

    async def _handle_statement(
        self, frame: dict, state: "_ConnState"
    ) -> tuple[dict | None, bool]:
        reply, work_fn = self._statement_work(frame, state)
        if work_fn is None:
            return reply, True
        return await self._execute(frame, state, work_fn)

    def _statement_work(
        self, frame: dict, state: "_ConnState"
    ) -> tuple[dict | None, object | None]:
        """Validate one QUERY/EXEC/EXECUTE frame and build its worker thunk.

        Returns ``(immediate_reply, None)`` when the frame is answered
        without touching a worker (validation failure, shed, unknown or
        stale handle), or ``(None, work_fn)`` when it should execute.
        Shared by the one-at-a-time path and the batched pipeline path so
        the two cannot drift.
        """
        if state.conn is None:
            return _error(frame, protocol.ERR_UNAUTHENTICATED, "send HELLO first"), None
        session_conn = state.conn
        if frame["type"] == protocol.EXECUTE:
            handle = frame.get("handle")
            if not isinstance(handle, int) or isinstance(handle, bool):
                return (
                    _error(frame, protocol.ERR_BAD_REQUEST, "'handle' must be an integer"),
                    None,
                )
            args = frame.get("args") or []
            named = frame.get("named")
            if not isinstance(args, list) or not (named is None or isinstance(named, dict)):
                return (
                    _error(
                        frame,
                        protocol.ERR_BAD_REQUEST,
                        "'args' must be a list and 'named' an object",
                    ),
                    None,
                )
            shed = self._admission_check(frame)
            if shed is not None:
                return shed, None
            entry = state.prepared.get(handle)
            if entry is None:
                self.metrics.increment("prepared_unknown")
                reply = _error(
                    frame,
                    protocol.ERR_MALFORMED,
                    f"unknown prepared handle {handle}; PREPARE first",
                )
                # Additive flag so a client holding the statement text can
                # recover by re-preparing — a handle legitimately vanishes
                # when an earlier EXECUTE in the same pipeline window drew
                # the stale refusal that dropped it.
                reply["unknown_handle"] = True
                return reply, None
            if entry.policy_version != self.gateway.policy_version:
                # Lazy per-epoch invalidation: the policy was hot-reloaded
                # since this handle was prepared. Drop it and make the
                # client re-prepare, so no handle straddles a reload.
                del state.prepared[handle]
                self.metrics.increment("prepared_stale")
                reply = _error(
                    frame,
                    protocol.ERR_MALFORMED,
                    f"prepared handle {handle} is stale (policy"
                    f" v{entry.policy_version} -> v{self.gateway.policy_version});"
                    " re-prepare",
                )
                reply["stale"] = True
                return reply, None
            plan = entry.plan
            return None, lambda: session_conn.execute_prepared(plan, args, named)
        sql = frame.get("sql")
        if not isinstance(sql, str):
            return _error(frame, protocol.ERR_BAD_REQUEST, "'sql' must be a string"), None
        args = frame.get("args") or []
        named = frame.get("named")
        if not isinstance(args, list) or not (named is None or isinstance(named, dict)):
            return (
                _error(
                    frame,
                    protocol.ERR_BAD_REQUEST,
                    "'args' must be a list and 'named' an object",
                ),
                None,
            )
        shed = self._admission_check(frame)
        if shed is not None:
            return shed, None
        if frame["type"] == protocol.QUERY:
            return None, lambda: session_conn.query(sql, args, named)
        return None, lambda: session_conn.sql(sql, args, named)

    # -- prepared statements -------------------------------------------------------

    async def _handle_prepare(self, frame: dict, state: "_ConnState") -> dict:
        """PREPARE: parse + hoist shape analysis once; vend a handle.

        The handle table is per-connection and stamped with the policy
        version at prepare time; a hot reload makes every earlier handle
        stale (refused at EXECUTE), so prepared decisions can never
        outlive the epoch that shaped them.
        """
        if state.conn is None:
            return _error(frame, protocol.ERR_UNAUTHENTICATED, "send HELLO first")
        sql = frame.get("sql")
        if not isinstance(sql, str):
            return _error(frame, protocol.ERR_BAD_REQUEST, "'sql' must be a string")
        assert self._loop is not None and self._pool is not None
        conn = state.conn
        version = self.gateway.policy_version
        try:
            plan = await self._loop.run_in_executor(self._pool, conn.prepare, sql)
        except DbacError as exc:
            return _error(frame, protocol.ERR_ENGINE, str(exc))
        handle = state.next_handle
        state.next_handle += 1
        state.prepared[handle] = _PreparedEntry(plan, plan.is_select, version)
        self.metrics.increment("statements_prepared")
        return {
            "type": protocol.PREPARED,
            "id": frame.get("id"),
            "handle": handle,
            "select": plan.is_select,
            "policy_version": version,
        }

    async def _handle_execute(
        self, frame: dict, state: "_ConnState"
    ) -> tuple[dict | None, bool]:
        """EXECUTE: run a prepared handle, shipping only bindings."""
        reply, work_fn = self._statement_work(frame, state)
        if work_fn is None:
            return reply, True
        return await self._execute(frame, state, work_fn)

    def _admission_check(self, frame: dict) -> dict | None:
        """Drain + overload shedding, shared by QUERY/EXEC/EXECUTE.

        Returns the shed ERROR reply, or None when admitted.
        """
        if self.draining:
            self.metrics.increment("requests_shed")
            return _error(frame, protocol.ERR_SHUTTING_DOWN, "server is draining")
        if self._in_flight >= self.config.max_in_flight:
            # Shed instead of queueing: the caller finds out *now*.
            self.metrics.increment("requests_shed")
            return _error(
                frame,
                protocol.ERR_OVERLOADED,
                f"{self._in_flight} statements in flight (bound"
                f" {self.config.max_in_flight}); retry with backoff",
            )
        return None

    async def _execute(
        self, frame: dict, state: "_ConnState", work_fn
    ) -> tuple[dict | None, bool]:
        assert self._loop is not None and self._pool is not None
        lock = state.lock
        assert lock is not None
        delay = self.config.execute_delay_s

        def work():
            with lock:
                if delay:
                    time.sleep(delay)
                return work_fn()

        self._in_flight += 1
        self.metrics.request_started()
        started = time.perf_counter()
        future = self._loop.run_in_executor(self._pool, work)
        future.add_done_callback(self._statement_finished)
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            # The worker thread cannot be cancelled; the session object may
            # still be busy, so this connection must not carry more
            # statements. The slot frees when the orphan finishes
            # (_statement_finished).
            self.metrics.increment("requests_timed_out")
            return (
                _error(
                    frame,
                    protocol.ERR_TIMEOUT,
                    f"statement exceeded the {self.config.request_timeout_s:.3f}s"
                    " deadline; connection closed",
                ),
                False,
            )
        except PolicyViolation as violation:
            self.metrics.increment("requests_blocked")
            self.metrics.observe_request(time.perf_counter() - started)
            return self._blocked_reply(frame, violation), True
        except DbacError as exc:
            self.metrics.increment("requests_failed")
            self.metrics.observe_request(time.perf_counter() - started)
            return _error(frame, protocol.ERR_ENGINE, str(exc)), True
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("statement execution failed unexpectedly")
            self.metrics.increment("requests_failed")
            return _error(frame, protocol.ERR_INTERNAL, str(exc)), True
        self.metrics.increment("requests_ok")
        self.metrics.observe_request(time.perf_counter() - started)
        return self._result_reply(frame, outcome), True

    @staticmethod
    def _result_reply(frame: dict, outcome) -> dict:
        reply: dict = {"type": protocol.RESULT, "id": frame.get("id")}
        if isinstance(outcome, int):
            reply["rowcount"] = outcome
        else:
            reply["columns"] = list(outcome.columns)
            reply["rows"] = [list(row) for row in outcome.rows]
        return reply

    @staticmethod
    def _blocked_reply(frame: dict, violation: PolicyViolation) -> dict:
        decision = violation.decision
        return {
            "type": protocol.BLOCKED,
            "id": frame.get("id"),
            "sql": decision.sql,
            "reason": decision.reason,
            "cached": decision.from_cache,
        }

    # -- batched pipeline dispatch -------------------------------------------------

    @staticmethod
    def _batchable(frame: dict, state: "_ConnState") -> bool:
        """Statement frames on an authenticated connection batch together."""
        return state.conn is not None and frame.get("type") in (
            protocol.QUERY,
            protocol.EXEC,
            protocol.EXECUTE,
        )

    async def _execute_batch(
        self, frames: list, state: "_ConnState", out: bytearray
    ) -> bool:
        """Run a run of consecutive statement frames as ONE worker job.

        Pipelined clients queue several statements before the first reply;
        dispatching them one-at-a-time pays a loop<->worker handoff per
        frame, which dominates the cached-hit path. Here the whole run
        crosses into the pool once, executes strictly in order under the
        session lock, and the replies come back together (encoded in
        frame order, coalesced by the caller's flush rules).

        Per-frame semantics are preserved: validation/admission/stale
        checks run through :meth:`_statement_work` exactly as in the
        one-at-a-time path, the worker re-checks the drain flag before
        *each* statement (a mid-batch shutdown still sheds the not-yet-
        started tail with ERR_SHUTTING_DOWN), and per-statement metrics
        are applied when the replies are emitted. The request deadline
        becomes per-statement-with-progress: the batch fails only when a
        full ``request_timeout_s`` passes with no statement completing.

        Returns ``keep_open``.
        """
        plans: list[tuple[dict, dict | None, object | None]] = []
        for frame in frames:
            reply, work_fn = self._statement_work(frame, state)
            plans.append((frame, reply, work_fn))
        work_items = [(frame, fn) for frame, _, fn in plans if fn is not None]
        results: list[tuple[str, object, float]] = []  # appended by the worker
        if work_items:
            assert self._loop is not None and self._pool is not None
            lock = state.lock
            assert lock is not None
            delay = self.config.execute_delay_s
            draining = self._draining

            def run_batch():
                for _, fn in work_items:
                    if draining.is_set():
                        results.append(("shed", None, 0.0))
                        continue
                    started = time.perf_counter()
                    try:
                        with lock:
                            if delay:
                                time.sleep(delay)
                            value = fn()
                        results.append(("ok", value, time.perf_counter() - started))
                    except PolicyViolation as violation:
                        results.append(
                            ("blocked", violation, time.perf_counter() - started)
                        )
                    except DbacError as exc:
                        results.append(("engine", exc, time.perf_counter() - started))
                    except Exception as exc:  # pragma: no cover - defensive
                        logger.exception("statement execution failed unexpectedly")
                        results.append(("internal", exc, 0.0))
                return results

            self._in_flight += 1
            self.metrics.request_started()
            future = self._loop.run_in_executor(self._pool, run_batch)
            future.add_done_callback(self._statement_finished)
            completed_last_wait = 0
            while True:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(future), self.config.request_timeout_s
                    )
                    break
                except asyncio.TimeoutError:
                    if len(results) > completed_last_wait:
                        # Progress since the last deadline check: grant the
                        # statement now in flight its own budget.
                        completed_last_wait = len(results)
                        continue
                    # A full deadline with nothing finishing: same terminal
                    # semantics as the single-statement path — answer what
                    # is owed, report the stuck statement, close.
                    self.metrics.increment("requests_timed_out")
                    self._emit_batch_replies(plans, list(results), out)
                    return False
        self._emit_batch_replies(plans, list(results), out)
        return True

    def _emit_batch_replies(
        self,
        plans: list,
        results: list,
        out: bytearray,
    ) -> None:
        """Encode batch replies in frame order, applying per-item metrics.

        ``results`` holds worker outcomes for the executed subset, in
        order; when it is shorter than the executed subset (deadline hit),
        the first unanswered statement gets the timeout error and the
        rest are dropped with the connection.
        """
        cursor = 0
        for frame, reply, work_fn in plans:
            if work_fn is None:
                protocol.encode_frame_into(reply, out)
                continue
            if cursor >= len(results):
                protocol.encode_frame_into(
                    _error(
                        frame,
                        protocol.ERR_TIMEOUT,
                        f"statement exceeded the {self.config.request_timeout_s:.3f}s"
                        " deadline; connection closed",
                    ),
                    out,
                )
                return
            status, payload, seconds = results[cursor]
            cursor += 1
            if status == "ok":
                self.metrics.increment("requests_ok")
                self.metrics.observe_request(seconds)
                protocol.encode_frame_into(self._result_reply(frame, payload), out)
            elif status == "blocked":
                self.metrics.increment("requests_blocked")
                self.metrics.observe_request(seconds)
                protocol.encode_frame_into(self._blocked_reply(frame, payload), out)
            elif status == "shed":
                self.metrics.increment("requests_shed")
                protocol.encode_frame_into(
                    _error(frame, protocol.ERR_SHUTTING_DOWN, "server is draining"),
                    out,
                )
            elif status == "engine":
                self.metrics.increment("requests_failed")
                self.metrics.observe_request(seconds)
                protocol.encode_frame_into(
                    _error(frame, protocol.ERR_ENGINE, str(payload)), out
                )
            else:
                self.metrics.increment("requests_failed")
                protocol.encode_frame_into(
                    _error(frame, protocol.ERR_INTERNAL, str(payload)), out
                )

    def _statement_finished(self, _future: asyncio.Future) -> None:
        """Runs on the loop thread when a worker statement completes."""
        self._in_flight -= 1
        self.metrics.request_finished()
        if _future.cancelled():
            return
        _future.exception()  # orphaned timeouts: mark retrieved

    def _lock_for(self, key: tuple) -> threading.Lock:
        """Resolve the session principal's lock, once per connection.

        Called at HELLO (the key is the sorted bindings the HELLO
        carried) and cached on the connection state — re-deriving and
        re-sorting it per statement was measurable hit-path waste.
        """
        with self._session_locks_guard:
            lock = self._session_locks.get(key)
            if lock is None:
                lock = self._session_locks[key] = threading.Lock()
            return lock

    # -- plumbing -----------------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        try:
            writer.write(protocol.encode_frame(message))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionClosed() from exc

    async def _flush(self, writer: asyncio.StreamWriter, out: bytearray) -> None:
        """Write the coalesced reply buffer in one go and reset it."""
        if not out:
            return
        try:
            writer.write(bytes(out))
            del out[:]
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError) as exc:
            del out[:]
            raise ConnectionClosed() from exc


_ADMIN_VERBS = (
    protocol.POLICY,
    protocol.RELOAD,
    protocol.SHADOW,
    protocol.PROMOTE,
    protocol.ROLLBACK,
    protocol.MINE,
)


def _admin_guard(frame: dict, thunk):
    """Wrap an admin thunk so domain errors become ERROR replies.

    Runs on a worker thread; :class:`DbacError` covers policy parse
    errors (with line numbers), registry errors, and lifecycle misuse.
    """

    def run() -> dict:
        try:
            return thunk()
        except DbacError as exc:
            return _error(frame, protocol.ERR_BAD_REQUEST, str(exc))

    return run


def _reload_to_wire(report) -> dict:
    return {
        "old_version": report.old_version,
        "new_version": report.new_version,
        "fingerprint": report.fingerprint,
        "provenance": report.provenance,
        "swap_pause_s": report.swap_pause_s,
        "build_s": report.build_s,
        "drained": report.drained,
        "sessions_preserved": report.sessions_preserved,
        "trace_facts_preserved": report.trace_facts_preserved,
    }


#: Flush the coalesced reply buffer once it reaches this many bytes even
#: if more requests are queued (bounds reply latency under a deep pipeline).
_FLUSH_BYTES = 64 * 1024


@dataclass
class _PreparedEntry:
    """One PREPARE'd plan in a connection's handle table."""

    plan: object
    select: bool
    policy_version: int


class _ConnState:
    """Per-connection mutable state. Loop-thread only (no locks needed);
    the hot-path invariants — session lock, sorted-bindings key — are
    resolved once at HELLO instead of per statement."""

    __slots__ = ("conn", "key", "lock", "prepared", "next_handle")

    def __init__(self) -> None:
        self.conn: GatewayConnection | None = None
        self.key: tuple | None = None
        self.lock: threading.Lock | None = None
        self.prepared: dict[int, _PreparedEntry] = {}
        self.next_handle = 1

    def bind(self, conn: GatewayConnection, key: tuple, lock: threading.Lock) -> None:
        self.conn = conn
        self.key = key
        self.lock = lock


@dataclass
class _Authenticated:
    """Internal: a successful HELLO carrying the bound session."""

    connection: GatewayConnection
    key: tuple
    welcome: dict


def _error(frame: dict, code: str, message: str) -> dict:
    return {
        "type": protocol.ERROR,
        "id": frame.get("id"),
        "code": code,
        "error": message,
    }


# --------------------------------------------------------------------------
# Running a server off the main thread (tests, benchmarks, embedding)
# --------------------------------------------------------------------------


class BackgroundServer:
    """A :class:`NetServer` on a dedicated event-loop thread.

    The blocking client and the benchmarks need a live server in the
    same process; this wrapper owns the loop thread and exposes
    ``host``/``port`` once :meth:`start` returns. Use as a context
    manager for deterministic teardown (graceful drain included).
    """

    def __init__(
        self,
        gateway: EnforcementGateway,
        config: ServerConfig | None = None,
        lifecycle=None,
    ):
        self.server = NetServer(gateway, config, lifecycle=lifecycle)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self.port: int | None = None

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-net-server"
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        if self.port is None:
            raise NetError("server failed to start within 10s")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def stop(self) -> None:
        """Graceful drain, then join the loop thread. Idempotent."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
