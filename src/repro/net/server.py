"""The blocking network front end of the enforcement gateway.

One :class:`NetServer` owns one
:class:`~repro.serve.gateway.EnforcementGateway` and exposes it over TCP
via the protocol in :mod:`repro.net.protocol`. The threading model is
the simplest one that fits a server whose every request ends in a
blocking gateway call: **one accept thread, one thread per connection**
(at most ``max_connections`` of them) and one housekeeping thread for
deadlines. A connection's thread reads frames from its own receive
buffer, runs each statement *itself* — parse → check → execute, straight
into the gateway, no hand-off to another thread — appends the reply to
the connection's reply buffer, and flushes that buffer when its receive
buffer holds no further complete frame, i.e. right before it goes back
to the socket (or at 64 KiB). A client that waits for each reply
therefore gets one write per statement, and a client that pipelines a
burst gets the burst executed back to back and answered in one write —
the same code path at depth 1 and depth 32. Read-ahead is the socket
buffer; backpressure is the TCP window. Frames are dispatched strictly
in arrival order (a session's statements must stay ordered so trace
history accumulates correctly — see Example 2.1), and two connections
that resume the same session serialise on that session's own lock
(:attr:`GatewayConnection.lock`).

Production shape, not a toy:

* **Admission control** — at most ``max_connections`` concurrent
  connections (excess are told ``ERROR/overloaded`` and closed) and at
  most ``max_in_flight`` statements executing at once. A statement
  arriving with every slot taken is *shed* immediately with
  ``ERROR/overloaded`` rather than queued: the client learns in
  microseconds and can back off (``TestAdmissionControl`` in
  ``tests/net/test_client_server.py`` checks that a shed reply is fast
  and counted).
* **Per-statement deadlines** — a statement that exceeds
  ``request_timeout_s`` (120 s for an admin verb) gets ``ERROR/timeout``
  and the connection is closed. The gateway call cannot be cancelled, so
  the housekeeping thread answers for it: under the connection's write
  lock it flushes the replies already owed, sends the error and shuts
  the socket down. The connection's own thread — now an *orphan* — gives
  its in-flight slot back when the statement finally returns and exits
  without writing. The budget is per statement, never per pipelined
  burst.
* **Idle reaping** — a connection silent for ``idle_timeout_s`` (the
  socket's read timeout) is closed with ``BYE/idle`` so leaked client
  sockets cannot pin a thread forever. A partly received frame does not
  restart the clock.
* **Frame hygiene** — oversized frames are rejected from the length
  prefix alone, malformed payloads answered with ``ERROR/malformed``;
  both close the connection (framing state is unrecoverable, and a
  confused peer should not keep a slot).
* **Graceful drain** — :meth:`NetServer.shutdown` closes the listener,
  wakes every reader, lets each in-flight statement finish and its reply
  flush, answers the statements a connection had already sent with
  ``ERROR/shutting_down``, says ``BYE/shutting down`` and closes;
  connections still busy after ``drain_grace_s`` are force-closed.
* **Prepared statements** — ``PREPARE`` resolves the text's plan (its
  per-shape work: parse, skeleton layout, certification plans) in the
  database's plan table — the plan a ``QUERY``/``EXEC`` of the same
  text resolves for itself — and holds it in a per-connection handle
  table stamped with the policy version, so a handle outlives the
  table's eviction; ``EXECUTE`` ships only bindings and skips the text
  probe. Handles from before a hot reload are refused with
  ``ERROR/malformed`` + ``stale: true`` so clients re-prepare —
  decisions always come from the current epoch.

Thread bound: ``max_connections`` connection threads plus at most
``max_in_flight`` orphans (an orphan holds an in-flight slot until it
returns), plus the accept and housekeeping threads.
"""

from __future__ import annotations

import contextlib
import logging
import signal
import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.enforce.decision import PolicyViolation
from repro.net import protocol
from repro.net.metrics import NetMetrics
from repro.net.protocol import ConnectionClosed, FrameTooLarge, NetError
from repro.serve.gateway import EnforcementGateway, GatewayConnection
from repro.util.errors import DbacError

logger = logging.getLogger("repro.net")


@dataclass(frozen=True)
class ServerConfig:
    """Everything configurable about a :class:`NetServer`.

    ``execute_delay_s`` is a fault-injection knob: it stalls every
    statement for that long, inside the session lock, before execution.
    Tests use it to make timing-dependent
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
    request_timeout_s: float = 10.0
    idle_timeout_s: float = 300.0
    drain_grace_s: float = 10.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    execute_delay_s: float = 0.0
    shard_id: int | None = None

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


class _Connection:
    """One accepted socket and everything its thread keeps about it.

    ``inbuf``, ``session`` and the handle table belong to the connection's
    own thread. ``out``, ``closed`` and every socket write are guarded by
    ``write_lock``, because the housekeeping thread answers for a
    statement that overruns its deadline. ``running`` is published by
    plain assignment — one tuple, so the housekeeper always reads a
    consistent ``(deadline, request id, budget, what is running)``.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.thread: threading.Thread  # set by the accept loop, before it starts
        self.inbuf = bytearray()
        self.out = bytearray()
        #: Encode time of the replies now in ``out`` (the ``net_reply`` stage).
        self.reply_s = 0.0
        self.write_lock = threading.Lock()
        self.closed = False
        self.running: tuple[float, object, float, str] | None = None
        self.session: GatewayConnection | None = None
        self.prepared: dict[int, _PreparedEntry] = {}
        self.next_handle = 1


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
        self._listener: socket.socket | None = None
        self._port: int | None = None
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        self._housekeeper = threading.Thread(
            target=self._enforce_deadlines, name="repro-net-deadlines", daemon=True
        )
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        # Live connections (an orphaned statement's connection has left).
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        self._started_at: float | None = None
        self._admin_verbs = {
            protocol.POLICY: self._admin_policy,
            protocol.RELOAD: self._admin_reload,
            protocol.SHADOW: self._admin_shadow,
            protocol.PROMOTE: self._admin_promote,
            protocol.ROLLBACK: self._admin_rollback,
            protocol.MINE: self._admin_mine,
        }

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Bind, listen and start serving on background threads."""
        if self._port is not None:
            raise RuntimeError("server already started")
        # create_server sets SO_REUSEADDR, so a restart can rebind a port
        # whose old connections still sit in TIME_WAIT.
        self._listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128
        )
        # shutdown() wakes a blocked accept() at once on Linux only; anywhere
        # else the accept loop notices the drain when this runs out.
        self._listener.settimeout(_ACCEPT_POLL_S)
        self._port = self._listener.getsockname()[1]
        self._started_at = time.monotonic()
        self._acceptor.start()
        self._housekeeper.start()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        assert self._port is not None, "server not started"
        return self._port

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` bound the listening socket."""
        started = self._started_at
        return 0.0 if started is None else time.monotonic() - started

    def serve_until_signalled(self, ready: Callable[[], None]) -> None:
        """Serve until SIGINT or SIGTERM, then drain: :meth:`start`,
        ``ready()``, wait for a signal, :meth:`shutdown`.

        For the main thread of a serving process (Python delivers signals
        there). Both signals mean the same thing — a supervisor's TERM and
        an operator's Ctrl-C each get the graceful drain, never a
        mid-statement kill. ``ready`` runs once the port is bound *and*
        the handlers are in place, so a supervisor that signals the moment
        it reads the ready line printed there still gets the drain. The
        handlers stay installed: a repeated signal during the drain or
        the caller's cleanup is ignored rather than fatal.
        """
        signalled = threading.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: signalled.set())
        self.start()
        try:
            ready()
            signalled.wait()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close.

        Blocks until every connection is closed (at most ``drain_grace_s``
        plus a moment for the forced closes). Idempotent and safe to call
        from several threads; the later callers wait for the first.
        """
        with self._shutdown_lock:
            listener = self._listener
            if listener is None or self.draining:
                return
            self._draining.set()
            with contextlib.suppress(OSError):
                listener.shutdown(socket.SHUT_RDWR)
            self._acceptor.join()  # before the descriptor can be reused
            listener.close()
            with self._connections_lock:
                connections = list(self._connections)
            for conn in connections:
                # Wake readers: a blocked recv() returns end-of-stream, and
                # a busy thread finds the same once it has consumed what
                # the client had already sent. Writes stay open for the
                # replies still owed and the BYE.
                with contextlib.suppress(OSError):
                    conn.sock.shutdown(socket.SHUT_RD)
            grace_ends = time.monotonic() + self.config.drain_grace_s
            for conn in connections:
                conn.thread.join(max(0.0, grace_ends - time.monotonic()))
            overdue = [conn for conn in connections if conn.thread.is_alive()]
            for conn in overdue:  # past the grace period: force-close
                with contextlib.suppress(OSError):
                    conn.sock.shutdown(socket.SHUT_RDWR)
            for conn in overdue:
                # A thread stuck in a write exits now; one stuck inside the
                # gateway is a daemon and cannot hold the process up.
                conn.thread.join(_FAREWELL_TIMEOUT_S)
            self._stopped.set()
            self._housekeeper.join()

    # -- accepting ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, _ = listener.accept()
            except OSError as exc:
                if self.draining:
                    return
                if not isinstance(exc, TimeoutError):  # the poll interval
                    logger.exception("accept failed")
                    time.sleep(0.05)  # e.g. out of descriptors: do not spin
                continue
            # Only this thread opens connections, so check-then-open cannot
            # overshoot: concurrent closes only make room.
            if self.draining or (
                self.metrics.active_connections >= self.config.max_connections
            ):
                self._refuse(sock)
                continue
            # Replies are small and latency-bound: never wait for Nagle.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.config.idle_timeout_s)
            conn = _Connection(sock)
            # Daemon: a statement wedged inside the gateway past the drain
            # grace must not keep the process alive.
            conn.thread = threading.Thread(
                target=self._serve, args=(conn,), name="repro-net-conn", daemon=True
            )
            with self._connections_lock:
                self._connections.add(conn)
            self.metrics.connection_opened()
            conn.thread.start()

    def _refuse(self, sock: socket.socket) -> None:
        self.metrics.increment("connections_rejected")
        code = protocol.ERR_SHUTTING_DOWN if self.draining else protocol.ERR_OVERLOADED
        refusal = {
            "type": protocol.ERROR,
            "code": code,
            "error": f"server refused connection ({code})",
        }
        with contextlib.suppress(OSError):
            sock.settimeout(_FAREWELL_TIMEOUT_S)
            sock.sendall(protocol.encode_frame(refusal))
        sock.close()

    # -- one connection -----------------------------------------------------------

    def _serve(self, conn: _Connection) -> None:
        """A connection's whole life, on its own thread."""
        drained = False
        try:
            while True:
                try:
                    frame = self._read_frame(conn)
                except ConnectionClosed:
                    # End of stream: the peer left, or shutdown() woke us.
                    drained = self.draining
                    if drained:
                        self._reply(conn, {"type": protocol.BYE, "reason": "shutting down"})
                    return
                except NetError as exc:
                    # Framing state is unrecoverable; answer and close.
                    kind = "oversized" if isinstance(exc, FrameTooLarge) else "malformed"
                    self.metrics.increment(f"frames_{kind}")
                    self._reply(
                        conn,
                        {"type": protocol.ERROR, "code": exc.code, "error": str(exc)},
                    )
                    return
                if frame is None:
                    self.metrics.increment("idle_reaped")
                    self._reply(conn, {"type": protocol.BYE, "reason": "idle"})
                    return
                if not self._dispatch(conn, frame):
                    return
        except OSError:
            pass  # the peer reset the connection, or stopped reading replies
        except Exception:  # pragma: no cover - defensive; nothing should escape
            logger.exception("connection handler crashed")
        finally:
            self._close(conn, drained)

    def _read_frame(self, conn: _Connection) -> dict | None:
        """The connection's next frame, in arrival order; ``None`` when
        the client stayed silent for ``idle_timeout_s``.

        Raises :class:`ConnectionClosed` at end of stream and
        :class:`NetError` for a frame that is oversized or not a message.
        """
        limit = self.config.max_frame_bytes
        frame = protocol.take_frame(conn.inbuf, limit)
        if frame is not None:
            return frame
        # Going back to the socket: everything buffered is owed now.
        self._flush(conn)
        idle = self.config.idle_timeout_s
        idle_ends = time.monotonic() + idle
        shortened = False
        while True:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except TimeoutError:
                return None
            if not chunk:
                raise ConnectionClosed()
            conn.inbuf += chunk
            frame = protocol.take_frame(conn.inbuf, limit)
            if frame is not None:
                if shortened:
                    conn.sock.settimeout(idle)
                return frame
            # Part of a frame: the idle clock keeps running, so a peer
            # dribbling bytes cannot hold its slot forever.
            remaining = idle_ends - time.monotonic()
            if remaining <= 0:
                return None
            conn.sock.settimeout(remaining)
            shortened = True

    def _reply(self, conn: _Connection, message: dict) -> bool:
        """Buffer one reply, which also settles the running statement.

        Returns ``False`` once the connection is closed — the deadline
        fired and the housekeeper has already answered for this thread.
        """
        with conn.write_lock:
            if conn.closed:
                return False
            conn.running = None
            started = time.perf_counter()
            protocol.encode_frame_into(message, conn.out)
            conn.reply_s += time.perf_counter() - started
            if len(conn.out) >= _FLUSH_BYTES:
                self._flush_locked(conn)
            return True

    def _flush(self, conn: _Connection) -> None:
        with conn.write_lock:
            if not conn.closed:
                self._flush_locked(conn)

    def _flush_locked(self, conn: _Connection) -> None:
        """Write the coalesced reply buffer in one go and reset it."""
        if not conn.out:
            return
        started = time.perf_counter()
        try:
            conn.sock.sendall(conn.out)
        finally:
            del conn.out[:]
            self.metrics.observe_reply(conn.reply_s + time.perf_counter() - started)
            conn.reply_s = 0.0

    def _close(self, conn: _Connection, drained: bool) -> None:
        """The connection thread's exit: flush, close the descriptor, and
        (unless the housekeeper already did) release the connection slot."""
        with conn.write_lock:
            expired, conn.closed = conn.closed, True
            if not expired:
                with contextlib.suppress(OSError):
                    self._flush_locked(conn)
        if not expired:
            self._forget(conn, drained)  # before the peer can see the close
        conn.sock.close()

    def _forget(self, conn: _Connection, drained: bool = False) -> None:
        with self._connections_lock:
            self._connections.discard(conn)
        self.metrics.connection_closed()
        if drained:
            self.metrics.increment("drained_connections")

    # -- deadlines ----------------------------------------------------------------

    def _enforce_deadlines(self) -> None:
        """The housekeeping thread: expire statements past their deadline.

        Polling keeps the statement path free of any cross-thread wake-up:
        a statement publishes its deadline with one attribute store. The
        tick bounds how late an ``ERROR/timeout`` can be.
        """
        tick = min(0.25, max(0.005, self.config.request_timeout_s / 4))
        while not self._stopped.wait(tick):
            now = time.monotonic()
            with self._connections_lock:
                connections = list(self._connections)
            for conn in connections:
                running = conn.running
                if running is not None and running[0] <= now:
                    self._expire(conn)

    def _expire(self, conn: _Connection) -> None:
        """Answer for a statement that overran: owed replies, the error,
        then close. The statement's thread cannot be interrupted; it
        finds ``closed`` set when the gateway call returns."""
        with conn.write_lock:
            running = conn.running
            if conn.closed or running is None or running[0] > time.monotonic():
                return  # settled while we waited for the lock
            _, request_id, budget_s, what = running
            conn.closed = True
            self.metrics.increment("requests_timed_out")
            self._forget(conn)  # the orphan keeps only its in-flight slot
            protocol.encode_frame_into(
                _error(
                    {"id": request_id},
                    protocol.ERR_TIMEOUT,
                    f"{what} exceeded the {budget_s:.3f}s deadline;"
                    " connection closed",
                ),
                conn.out,
            )
            # The session may still be busy, so this connection carries no
            # further statements. Never let a peer that stopped reading
            # stall the housekeeper for longer than a moment.
            with contextlib.suppress(OSError):
                conn.sock.settimeout(_FAREWELL_TIMEOUT_S)
                self._flush_locked(conn)
            with contextlib.suppress(OSError):
                conn.sock.shutdown(socket.SHUT_RDWR)

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, conn: _Connection, frame: dict) -> bool:
        """Handle one frame; returns ``keep_open``."""
        kind = frame["type"]
        if kind in _STATEMENT_VERBS:
            return self._run_statement(conn, frame)
        if kind == protocol.PING:
            reply = {"type": protocol.PONG, "id": frame.get("id")}
        elif kind == protocol.HELLO:
            reply = self._handle_hello(conn, frame)
        elif kind == protocol.STATS:
            reply = self._handle_stats(frame)
        elif kind == protocol.PREPARE:
            reply = self._handle_prepare(conn, frame)
        elif kind == protocol.GOODBYE:
            self._reply(conn, {"type": protocol.BYE, "reason": "goodbye"})
            return False
        elif kind in self._admin_verbs:
            reply = self._handle_admin(conn, frame, kind)
        else:
            reply = _error(
                frame, protocol.ERR_BAD_REQUEST, f"unknown message type {kind!r}"
            )
        return self._reply(conn, reply)

    def _handle_hello(self, conn: _Connection, frame: dict) -> dict:
        if conn.session is not None:
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
        conn.session = self.gateway.connect(
            bindings, fresh=bool(frame.get("fresh", False))
        )
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
        return welcome

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

    # -- statements ---------------------------------------------------------------

    def _run_statement(self, conn: _Connection, frame: dict) -> bool:
        """The one statement path: QUERY, EXEC and EXECUTE, classic or
        pipelined. Admission → session lock → gateway → reply + metrics,
        all on the connection's thread. Returns ``keep_open``."""
        started = time.perf_counter()
        call, refusal = self._statement_call(conn, frame)
        if call is None:
            return self._reply(conn, refusal)
        if not self.metrics.request_started(self.config.max_in_flight):
            # Shed instead of queueing: the caller finds out *now*.
            self.metrics.increment("requests_shed")
            return self._reply(
                conn,
                _error(
                    frame,
                    protocol.ERR_OVERLOADED,
                    f"{self.config.max_in_flight} statements in flight (the"
                    " bound); retry with backoff",
                ),
            )
        budget_s = self.config.request_timeout_s
        conn.running = (time.monotonic() + budget_s, frame.get("id"), budget_s, "statement")
        assert conn.session is not None
        try:
            try:
                with conn.session.lock:
                    if self.config.execute_delay_s:
                        time.sleep(self.config.execute_delay_s)
                    outcome = call()
            finally:
                self.metrics.request_finished()
        except PolicyViolation as violation:
            counter = "requests_blocked"
            reply = _blocked_reply(frame, violation)
        except DbacError as exc:
            counter = "requests_failed"
            reply = _error(frame, protocol.ERR_ENGINE, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("statement execution failed unexpectedly")
            counter = "requests_failed"
            reply = _error(frame, protocol.ERR_INTERNAL, str(exc))
        else:
            counter = "requests_ok"
            reply = _result_reply(frame, outcome)
        seconds = time.perf_counter() - started
        if not self._reply(conn, reply):
            # Orphan: the deadline fired and ERROR/timeout was this
            # statement's answer; only the in-flight slot was still ours.
            return False
        self.metrics.increment(counter)
        self.metrics.observe_request(seconds)
        return True

    def _statement_call(self, conn: _Connection, frame: dict):
        """Validate one QUERY/EXEC/EXECUTE frame.

        Returns ``(call, None)`` — the gateway call to make — or
        ``(None, reply)`` when the frame is answered without executing
        (validation failure, drain, unknown or stale handle).
        """
        session = conn.session
        if session is None:
            return None, _error(frame, protocol.ERR_UNAUTHENTICATED, "send HELLO first")
        kind = frame["type"]
        if kind == protocol.EXECUTE:
            target = frame.get("handle")
            if not isinstance(target, int) or isinstance(target, bool):
                return None, _error(
                    frame, protocol.ERR_BAD_REQUEST, "'handle' must be an integer"
                )
        else:
            target = frame.get("sql")
            if not isinstance(target, str):
                return None, _error(
                    frame, protocol.ERR_BAD_REQUEST, "'sql' must be a string"
                )
        args = frame.get("args") or []
        named = frame.get("named")
        if not isinstance(args, list) or not (named is None or isinstance(named, dict)):
            return None, _error(
                frame,
                protocol.ERR_BAD_REQUEST,
                "'args' must be a list and 'named' an object",
            )
        if self.draining:
            self.metrics.increment("requests_shed")
            return None, _error(frame, protocol.ERR_SHUTTING_DOWN, "server is draining")
        if kind == protocol.QUERY:
            return (lambda: session.query(target, args, named)), None
        if kind == protocol.EXEC:
            return (lambda: session.sql(target, args, named)), None
        entry = conn.prepared.get(target)
        if entry is None:
            self.metrics.increment("prepared_unknown")
            reply = _error(
                frame,
                protocol.ERR_MALFORMED,
                f"unknown prepared handle {target}; PREPARE first",
            )
            # Additive flag so a client holding the statement text can
            # recover by re-preparing — a handle legitimately vanishes
            # when an earlier EXECUTE in the same pipeline window drew
            # the stale refusal that dropped it.
            reply["unknown_handle"] = True
            return None, reply
        if entry.policy_version != self.gateway.policy_version:
            # Lazy per-epoch invalidation: the policy was hot-reloaded
            # since this handle was prepared. Drop it and make the
            # client re-prepare, so no handle straddles a reload.
            del conn.prepared[target]
            self.metrics.increment("prepared_stale")
            reply = _error(
                frame,
                protocol.ERR_MALFORMED,
                f"prepared handle {target} is stale (policy"
                f" v{entry.policy_version} -> v{self.gateway.policy_version});"
                " re-prepare",
            )
            reply["stale"] = True
            return None, reply
        plan = entry.plan
        return (lambda: session.execute_prepared(plan, args, named)), None

    def _handle_prepare(self, conn: _Connection, frame: dict) -> dict:
        """PREPARE: vend a handle on the text's plan (shared with every
        other session and with QUERY/EXEC through the database's table).

        The handle table is per-connection and stamped with the policy
        version at prepare time; a hot reload makes every earlier handle
        stale (refused at EXECUTE), so prepared decisions can never
        outlive the epoch that shaped them.
        """
        if conn.session is None:
            return _error(frame, protocol.ERR_UNAUTHENTICATED, "send HELLO first")
        sql = frame.get("sql")
        if not isinstance(sql, str):
            return _error(frame, protocol.ERR_BAD_REQUEST, "'sql' must be a string")
        version = self.gateway.policy_version
        try:
            plan = conn.session.prepare(sql)
        except DbacError as exc:
            return _error(frame, protocol.ERR_ENGINE, str(exc))
        handle = conn.next_handle
        conn.next_handle += 1
        conn.prepared[handle] = _PreparedEntry(plan, version)
        self.metrics.increment("statements_prepared")
        return {
            "type": protocol.PREPARED,
            "id": frame.get("id"),
            "handle": handle,
            "select": plan.is_select,
            "policy_version": version,
        }

    # -- policy-lifecycle admin verbs ---------------------------------------------

    def _handle_admin(self, conn: _Connection, frame: dict, kind: str) -> dict:
        """Run one lifecycle verb on the connection's thread.

        Reloads compile policies and an operator verb may re-derive every
        session's templates, so the deadline is a generous fixed one
        rather than the per-statement budget; an overrun is answered like
        a statement's (``ERROR/timeout``, close) while the verb itself
        runs to completion on this, now orphaned, thread.
        :class:`DbacError` covers bad frame contents, policy parse errors
        (with line numbers), registry errors and lifecycle misuse.
        """
        if self.lifecycle is None:
            return _error(
                frame,
                protocol.ERR_BAD_REQUEST,
                "server was started without policy lifecycle management",
            )
        request_id, budget_s = frame.get("id"), _ADMIN_TIMEOUT_S
        conn.running = (time.monotonic() + budget_s, request_id, budget_s, kind)
        try:
            return {"type": kind, "id": request_id, **self._admin_verbs[kind](frame)}
        except DbacError as exc:
            return _error(frame, protocol.ERR_BAD_REQUEST, str(exc))

    def _policy_from_frame(self, frame: dict, default_name: str):
        """The policy an admin frame carries, with its provenance and label."""
        from repro.policy.serialize import policy_from_text

        text = frame.get("policy_text")
        if not isinstance(text, str) or not text.strip():
            raise NetError(
                f"{frame['type']} needs a non-empty 'policy_text' string",
                code=protocol.ERR_BAD_REQUEST,
            )
        label = frame.get("label", "")
        policy = policy_from_text(text, self.gateway.db.schema, name=label or default_name)
        return policy, frame.get("provenance", "hand-written"), label

    def _admin_policy(self, frame: dict) -> dict:
        return {"policy": self.lifecycle.status()}

    def _admin_reload(self, frame: dict) -> dict:
        policy, provenance, label = self._policy_from_frame(frame, "reloaded")
        report = self.lifecycle.reload(policy, provenance=provenance, label=label)
        return {"report": _reload_to_wire(report)}

    def _admin_rollback(self, frame: dict) -> dict:
        return {"report": _reload_to_wire(self.lifecycle.rollback())}

    def _admin_shadow(self, frame: dict) -> dict:
        action = frame.get("action")
        if action == "start":
            policy, provenance, label = self._policy_from_frame(frame, "candidate")
            version = self.lifecycle.start_shadow(
                policy, provenance=provenance, label=label
            )
            return {
                "action": "start",
                "candidate_version": version.version,
                "fingerprint": version.fingerprint,
            }
        if action == "stop":
            return {"action": "stop", "stats": self.lifecycle.stop_shadow()}
        if action == "status":
            return {"action": "status", "shadow": self.lifecycle.shadow_status()}
        raise NetError(
            "SHADOW needs action: 'start', 'stop', or 'status'",
            code=protocol.ERR_BAD_REQUEST,
        )

    def _admin_promote(self, frame: dict) -> dict:
        from repro.lifecycle.promote import GateConfig

        overrides = {key: frame[key] for key in _PROMOTE_GATES if key in frame}
        try:
            gates = GateConfig(**overrides) if overrides else None
        except TypeError as exc:
            raise NetError(
                f"bad PROMOTE gate override: {exc}", code=protocol.ERR_BAD_REQUEST
            ) from exc
        report = self.lifecycle.promote(gates)
        return {
            "promoted": report.promoted,
            "candidate_version": report.candidate_version,
            "gates": [
                {"name": g.name, "passed": g.passed, "detail": g.detail}
                for g in report.gates
            ],
            "diagnoses": report.diagnoses,
        }

    def _admin_mine(self, frame: dict) -> dict:
        mining = getattr(self.lifecycle, "mining", None)
        if mining is None:
            raise NetError(
                "no mining service attached; start the server with"
                " `repro serve --mine` (LifecycleManager.enable_mining)",
                code=protocol.ERR_BAD_REQUEST,
            )
        action = frame.get("action")
        if action == "status":
            return {"action": "status", "mining": mining.status()}
        if action == "candidates":
            return {
                "action": "candidates",
                "candidates": mining.candidates_wire(),
                "audit": mining.disposition_audit(),
            }
        if action == "approve":
            fingerprint = frame.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                raise NetError(
                    "MINE approve needs a non-empty 'fingerprint' string",
                    code=protocol.ERR_BAD_REQUEST,
                )
            return {"action": "approve", "candidate": mining.approve(fingerprint)}
        if action == "run":
            return {"action": "run", "cycle": mining.run_once()}
        raise NetError(
            "MINE needs action: 'status', 'candidates', 'approve', or 'run'",
            code=protocol.ERR_BAD_REQUEST,
        )


_STATEMENT_VERBS = (protocol.QUERY, protocol.EXEC, protocol.EXECUTE)

#: The ``GateConfig`` fields a PROMOTE frame may override.
_PROMOTE_GATES = ("max_divergences", "min_shadow_checks", "min_precision", "min_recall")

#: An operator verb may recompile policies and re-derive templates, which
#: outlives the per-statement budget.
_ADMIN_TIMEOUT_S = 120.0

#: Flush the coalesced reply buffer once it reaches this many bytes even
#: if more requests are buffered (bounds reply latency under a deep pipeline).
_FLUSH_BYTES = 64 * 1024

#: One read takes whatever the client has pipelined, up to this much.
_RECV_BYTES = 64 * 1024

#: How often a blocked ``accept()`` re-checks for a drain (see ``start``).
_ACCEPT_POLL_S = 0.5

#: How long a last frame (a refusal, a deadline's ERROR/timeout) may wait
#: on a peer that is not reading, and a forced close on its thread.
_FAREWELL_TIMEOUT_S = 1.0


@dataclass
class _PreparedEntry:
    """One PREPARE'd plan in a connection's handle table."""

    plan: object
    policy_version: int


def _error(frame: dict, code: str, message: str) -> dict:
    return {
        "type": protocol.ERROR,
        "id": frame.get("id"),
        "code": code,
        "error": message,
    }


def _result_reply(frame: dict, outcome) -> dict:
    reply: dict = {"type": protocol.RESULT, "id": frame.get("id")}
    if isinstance(outcome, int):
        reply["rowcount"] = outcome
    else:
        reply["columns"] = list(outcome.columns)
        reply["rows"] = [list(row) for row in outcome.rows]
    return reply


def _blocked_reply(frame: dict, violation: PolicyViolation) -> dict:
    decision = violation.decision
    return {
        "type": protocol.BLOCKED,
        "id": frame.get("id"),
        "sql": decision.sql,
        "reason": decision.reason,
        "cached": decision.from_cache,
    }


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
        "templates_carried": report.templates_carried,
        "templates_dropped": report.templates_dropped,
    }


# --------------------------------------------------------------------------
# A server inside another program (tests, benchmarks, embedding)
# --------------------------------------------------------------------------


class BackgroundServer:
    """A started :class:`NetServer` with deterministic teardown.

    The blocking client and the benchmarks need a live server in the
    same process. ``host``/``port`` are valid once :meth:`start`
    returns; use as a context manager so the graceful drain always runs.
    """

    def __init__(
        self,
        gateway: EnforcementGateway,
        config: ServerConfig | None = None,
        lifecycle=None,
    ):
        self.server = NetServer(gateway, config, lifecycle=lifecycle)

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self.server.start()
        return self

    def stop(self) -> None:
        """Graceful drain; returns once every connection is closed. Idempotent."""
        self.server.shutdown()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
