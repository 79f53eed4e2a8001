"""The blocking wire client.

:class:`NetClientConnection` implements the standard
:class:`~repro.engine.connection.Connection` protocol over a TCP socket,
so every workload handler and the contract tests run against a remote
gateway *unmodified* — a blocked query surfaces as the same
:class:`PolicyViolation` the in-process proxy raises, and a SELECT's
answer comes back as the same :class:`~repro.engine.executor.Result`.
"""

from __future__ import annotations

import socket
import time
from collections.abc import Mapping, Sequence

from repro.enforce.decision import Decision, PolicyViolation
from repro.engine.executor import Result
from repro.net import protocol
from repro.net.protocol import ConnectionClosed, NetError
from repro.sqlir import ast
from repro.util.errors import EngineError

#: The connect-retry schedule: 4 retries, doubling from 50 ms and capped
#: at 1 s, is ~0.75 s of total patience — enough to ride out a shard
#: subprocess binding its socket, short enough that a dead server still
#: fails fast.
CONNECT_RETRIES = 4
RETRY_BASE_S = 0.05
RETRY_MAX_S = 1.0


def connect_with_retry(host: str, port: int, timeout_s: float) -> socket.socket:
    """Dial ``host:port`` with bounded exponential backoff.

    A freshly spawned server (a cluster shard, a test fixture) can lose
    the race against its first client; a raw ``ECONNREFUSED`` there is
    noise, not a failure. Retries ``CONNECT_RETRIES`` times on the
    transient dial errors only — ``ConnectionError``
    (refused/reset/aborted) and ``TimeoutError`` — sleeping
    ``RETRY_BASE_S * 2**attempt`` (capped at ``RETRY_MAX_S``) between
    attempts, then re-raises the final error unchanged so callers still
    see the familiar exception type. Non-transient ``OSError``\\s
    (``EAI_NONAME`` for a malformed address, ``ENETUNREACH``, permission
    errors) are misconfiguration, not races: they propagate on the first
    attempt instead of burning the whole backoff schedule against an
    address that can never answer.
    """
    attempt = 0
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout_s)
        except (ConnectionError, TimeoutError):
            if attempt >= CONNECT_RETRIES:
                raise
            time.sleep(min(RETRY_BASE_S * (2**attempt), RETRY_MAX_S))
            attempt += 1


class PreparedWireStatement:
    """A server-side prepared handle, as the client sees it.

    Mutable on purpose: when the server reports the handle unknown
    (evicted past ``PREPARED_CAP``), the client transparently re-prepares
    and updates ``handle``/``policy_version`` in place, so callers hold
    one object throughout. ``policy_version`` is the version current at
    the last PREPARE; every EXECUTE is decided under the current one.
    """

    __slots__ = ("sql", "handle", "select", "policy_version")

    def __init__(self, sql: str, handle: int, select: bool, policy_version: int):
        self.sql = sql
        self.handle = handle
        self.select = select
        self.policy_version = policy_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreparedWireStatement(handle={self.handle},"
            f" policy_version={self.policy_version}, sql={self.sql!r})"
        )


class NetClientConnection:
    """One authenticated wire session; implements ``Connection``.

    ``sql``/``query`` keep one request outstanding at a time (the
    simple, strictly-ordered mode). :meth:`pipeline` keeps up to a
    window of requests in flight on the same socket — the server
    dispatches them in order and replies in order, so session semantics
    are unchanged; only the per-request round trip is amortized.
    :meth:`prepare`/:meth:`execute` hoist a statement's parse and shape
    analysis server-side and ship only bindings per call.

    ``fresh`` is accepted for older callers and ignored: every connection
    is a new session.
    """

    def __init__(
        self,
        host: str,
        port: int,
        bindings: Mapping[str, object] | None = None,
        user: object | None = None,
        fresh: bool = True,
        timeout_s: float = 30.0,
    ):
        if bindings is None:
            if user is None:
                raise NetError("need bindings or user", code=protocol.ERR_BAD_REQUEST)
            bindings = {"MyUId": user}
        self.bindings = dict(bindings)
        self._next_id = 0
        self._closed = False
        self._sock = connect_with_retry(host, port, timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            reply = self._roundtrip(
                {
                    "type": protocol.HELLO,
                    "version": protocol.PROTOCOL_VERSION,
                    "bindings": self.bindings,
                }
            )
            if reply["type"] != protocol.WELCOME:
                raise self._to_error(reply)
            #: Backend identity the server reported in WELCOME (absent on
            #: pre-backend servers).
            self.server_backend = reply.get("backend")
            #: Which cluster shard answered the HELLO (additive WELCOME
            #: field; ``None`` outside a ``repro.cluster`` deployment).
            self.server_shard_id = reply.get("shard_id")
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    # -- the Connection protocol --------------------------------------------------

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        reply = self._request(protocol.EXEC, sql, args, named)
        return self._to_outcome(reply)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        reply = self._request(protocol.QUERY, sql, args, named)
        outcome = self._to_outcome(reply)
        if not isinstance(outcome, Result):
            raise EngineError("query() requires a SELECT statement")
        return outcome

    def close(self) -> None:
        """Send GOODBYE (best effort) and release the socket. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            protocol.write_frame(self._sock, {"type": protocol.GOODBYE})
            self._sock.settimeout(1.0)
            protocol.read_frame(self._sock)  # BYE
        except Exception:
            pass  # the server may already be gone; closing is still fine
        finally:
            self._sock.close()

    # -- prepared statements -------------------------------------------------------

    def prepare(self, sql: str) -> PreparedWireStatement:
        """PREPARE ``sql`` server-side; returns a reusable handle."""
        if self._closed:
            raise EngineError("connection is closed")
        if not isinstance(sql, str):
            raise NetError(
                "the wire client sends SQL text, not AST statements",
                code=protocol.ERR_BAD_REQUEST,
            )
        reply = self._roundtrip(
            {"type": protocol.PREPARE, "id": self._take_id(), "sql": sql}
        )
        if reply.get("type") != protocol.PREPARED:
            raise self._to_error(reply)
        return PreparedWireStatement(
            sql=sql,
            handle=int(reply["handle"]),
            select=bool(reply.get("select", True)),
            policy_version=int(reply.get("policy_version", 0)),
        )

    def execute(
        self,
        prepared: PreparedWireStatement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """EXECUTE a prepared handle, shipping only the bindings.

        If the server reports the handle gone (evicted past its cap),
        re-prepares once transparently and retries.
        """
        if self._closed:
            raise EngineError("connection is closed")
        for attempt in range(2):
            reply = self._roundtrip(self._execute_frame(prepared, args, named))
            if _needs_reprepare(reply) and attempt == 0:
                self._reprepare(prepared)
                continue
            return self._to_outcome(reply)
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute_frame(
        self,
        prepared: PreparedWireStatement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> dict:
        return {
            "type": protocol.EXECUTE,
            "id": self._take_id(),
            "handle": prepared.handle,
            "args": list(args),
            "named": dict(named) if named is not None else None,
        }

    def _reprepare(self, prepared: PreparedWireStatement) -> None:
        fresh = self.prepare(prepared.sql)
        prepared.handle = fresh.handle
        prepared.select = fresh.select
        prepared.policy_version = fresh.policy_version

    # -- pipelining ----------------------------------------------------------------

    def pipeline(
        self,
        requests: Sequence[object],
        window: int = 32,
    ) -> list[object]:
        """Run many requests with up to ``window`` in flight at once.

        Each request is one of:

        * ``"SELECT ..."`` — a QUERY with no parameters;
        * ``(sql, args)`` or ``(sql, args, named)`` — a QUERY;
        * a :class:`PreparedWireStatement` — an EXECUTE with no bindings;
        * ``(prepared, args)`` or ``(prepared, args, named)`` — an EXECUTE.

        Returns one outcome per request, *in request order*: a
        :class:`Result` (SELECT), an ``int`` rowcount (write), a
        :class:`PolicyViolation` (blocked), or a :class:`NetError` —
        per-request failures are returned, not raised, so one blocked
        query does not discard the pipeline's other answers. Evicted
        prepared handles are re-prepared after the main sweep and those
        requests retried at their original indexes.

        Requests are sent in bursts (coalesced into one ``sendall`` per
        window top-up) and the server dispatches them strictly in
        arrival order, so trace history accumulates exactly as if the
        same statements had been sent one at a time.
        """
        if self._closed:
            raise EngineError("connection is closed")
        if window < 1:
            raise ValueError("window must be >= 1")
        frames: list[dict] = []
        prepared_for: list[PreparedWireStatement | None] = []
        arguments: list[tuple[Sequence[object], Mapping[str, object] | None]] = []
        for request in requests:
            frame, prepared, call_args = self._pipeline_frame(request)
            frames.append(frame)
            prepared_for.append(prepared)
            arguments.append(call_args)
        outcomes: list[object] = [None] * len(frames)
        id_to_index = {frame["id"]: index for index, frame in enumerate(frames)}
        unknown: list[int] = []
        sent = 0
        received = 0
        burst = bytearray()
        try:
            while received < len(frames):
                while sent < len(frames) and sent - received < window:
                    protocol.encode_frame_into(frames[sent], burst)
                    sent += 1
                if burst:
                    self._sock.sendall(burst)
                    del burst[:]
                reply = protocol.read_frame(self._sock)
                index = id_to_index.pop(reply.get("id"), None)
                if index is None:
                    raise NetError(
                        f"unmatched pipeline reply {reply.get('type')!r}"
                        f" (id {reply.get('id')!r})",
                        code=protocol.ERR_MALFORMED,
                    )
                received += 1
                if _needs_reprepare(reply) and prepared_for[index] is not None:
                    unknown.append(index)
                    continue
                try:
                    outcomes[index] = self._to_outcome(reply)
                except (PolicyViolation, NetError) as exc:
                    outcomes[index] = exc
        except (ConnectionClosed, OSError) as exc:
            self._closed = True
            self._sock.close()
            if isinstance(exc, ConnectionClosed):
                raise
            raise ConnectionClosed(str(exc)) from exc
        for index in unknown:
            prepared = prepared_for[index]
            assert prepared is not None
            args, named = arguments[index]
            try:
                outcomes[index] = self.execute(prepared, args, named)
            except (PolicyViolation, NetError) as exc:
                outcomes[index] = exc
        return outcomes

    def _pipeline_frame(
        self, request: object
    ) -> tuple[dict, PreparedWireStatement | None, tuple]:
        """Normalize one pipeline request into its wire frame."""
        args: Sequence[object] = ()
        named: Mapping[str, object] | None = None
        if isinstance(request, tuple):
            if not 1 <= len(request) <= 3:
                raise NetError(
                    "pipeline tuple must be (sql|prepared, args?, named?)",
                    code=protocol.ERR_BAD_REQUEST,
                )
            target = request[0]
            if len(request) > 1:
                args = request[1]
            if len(request) > 2:
                named = request[2]
        else:
            target = request
        if isinstance(target, PreparedWireStatement):
            return self._execute_frame(target, args, named), target, (args, named)
        if not isinstance(target, str):
            raise NetError(
                "pipeline request must be SQL text or a PreparedWireStatement",
                code=protocol.ERR_BAD_REQUEST,
            )
        frame = {
            "type": protocol.QUERY,
            "id": self._take_id(),
            "sql": target,
            "args": list(args),
            "named": dict(named) if named is not None else None,
        }
        return frame, None, (args, named)

    # -- extras beyond the Connection protocol ------------------------------------

    def ping(self) -> float:
        """Round-trip a PING; returns the wire latency in seconds."""
        started = time.perf_counter()
        reply = self._roundtrip({"type": protocol.PING, "id": self._take_id()})
        if reply["type"] != protocol.PONG:
            raise self._to_error(reply)
        return time.perf_counter() - started

    def stats(self) -> dict:
        """Fetch the server's STATS document (net + gateway metrics)."""
        reply = self._roundtrip({"type": protocol.STATS, "id": self._take_id()})
        if reply["type"] != protocol.STATS:
            raise self._to_error(reply)
        return reply

    # -- internals ----------------------------------------------------------------

    def _request(
        self,
        kind: str,
        sql: str | ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> dict:
        if self._closed:
            raise EngineError("connection is closed")
        if not isinstance(sql, str):
            raise NetError(
                "the wire client sends SQL text, not AST statements",
                code=protocol.ERR_BAD_REQUEST,
            )
        request_id = self._take_id()
        reply = self._roundtrip(
            {
                "type": kind,
                "id": request_id,
                "sql": sql,
                "args": list(args),
                "named": dict(named) if named is not None else None,
            }
        )
        if reply.get("id") != request_id:
            raise NetError(
                f"reply id {reply.get('id')!r} does not match request {request_id}",
                code=protocol.ERR_MALFORMED,
            )
        return reply

    def _roundtrip(self, message: dict) -> dict:
        try:
            protocol.write_frame(self._sock, message)
            return protocol.read_frame(self._sock)
        except (ConnectionClosed, OSError) as exc:
            self._closed = True
            self._sock.close()
            if isinstance(exc, ConnectionClosed):
                raise
            raise ConnectionClosed(str(exc)) from exc

    def _to_outcome(self, reply: dict) -> Result | int:
        kind = reply["type"]
        if kind == protocol.RESULT:
            if "rowcount" in reply:
                return int(reply["rowcount"])
            return Result(
                columns=list(reply["columns"]),
                rows=[tuple(row) for row in reply["rows"]],
            )
        raise self._to_error(reply)

    def _to_error(self, reply: dict) -> Exception:
        kind = reply.get("type")
        if kind == protocol.BLOCKED:
            decision = Decision(
                allowed=False,
                sql=str(reply.get("sql", "")),
                reason=str(reply.get("reason", "blocked by policy")),
                from_cache=bool(reply.get("cached", False)),
            )
            return PolicyViolation(decision)
        code = str(reply.get("code", protocol.ERR_INTERNAL))
        message = str(reply.get("error", f"unexpected {kind} reply"))
        if code in (protocol.ERR_TIMEOUT, protocol.ERR_SHUTTING_DOWN):
            # Both terminate the connection server-side.
            self._closed = True
        return NetError(message, code=code)

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def closed(self) -> bool:
        return self._closed


def _needs_reprepare(reply: dict) -> bool:
    """True for the unknown-handle refusal, which a re-PREPARE heals:
    the server evicted the handle, and the client holds the text."""
    return (
        reply.get("type") == protocol.ERROR
        and reply.get("code") == protocol.ERR_MALFORMED
        and bool(reply.get("unknown_handle"))
    )


class AdminClient:
    """Operator-side client for the policy-lifecycle admin verbs.

    Admin verbs need no session (they act on the deployment, like
    STATS), so this client skips HELLO entirely: it opens a socket and
    speaks ``POLICY`` / ``RELOAD`` / ``SHADOW`` / ``PROMOTE`` /
    ``ROLLBACK`` / ``MINE`` directly. Every method returns the server's reply
    payload or raises :class:`NetError` with the server's error text —
    which, for a policy that fails to parse, carries the offending line
    number from ``policy_from_text``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 150.0,
    ):
        # Timeout must outlast the server's 120s admin deadline.
        self._next_id = 0
        self._closed = False
        self._sock = connect_with_retry(host, port, timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -- verbs --------------------------------------------------------------------

    def policy_status(self) -> dict:
        """The ``POLICY`` document: versions, fingerprints, shadow state."""
        return self._call({"type": protocol.POLICY})["policy"]

    def reload(
        self, policy_text: str, provenance: str = "hand-written", label: str = ""
    ) -> dict:
        """Hot-swap the serialized policy in; returns the reload report."""
        return self._call(
            {
                "type": protocol.RELOAD,
                "policy_text": policy_text,
                "provenance": provenance,
                "label": label,
            }
        )["report"]

    def shadow_start(
        self, policy_text: str, provenance: str = "extracted", label: str = ""
    ) -> dict:
        return self._call(
            {
                "type": protocol.SHADOW,
                "action": "start",
                "policy_text": policy_text,
                "provenance": provenance,
                "label": label,
            }
        )

    def shadow_stop(self) -> dict:
        return self._call({"type": protocol.SHADOW, "action": "stop"})["stats"]

    def shadow_status(self) -> dict | None:
        return self._call({"type": protocol.SHADOW, "action": "status"})["shadow"]

    def promote(self, **gate_overrides) -> dict:
        """Run the promotion gates; swaps only when every gate passes.

        Keyword overrides: ``max_divergences``, ``min_shadow_checks``,
        ``min_precision``, ``min_recall``.
        """
        return self._call({"type": protocol.PROMOTE, **gate_overrides})

    def rollback(self) -> dict:
        return self._call({"type": protocol.ROLLBACK})["report"]

    def mine_status(self) -> dict:
        """The mining service's status section (mode, window, counters)."""
        return self._call({"type": protocol.MINE, "action": "status"})["mining"]

    def mine_candidates(self) -> dict:
        """Mined candidates plus the per-candidate disposition audit."""
        reply = self._call({"type": protocol.MINE, "action": "candidates"})
        return {"candidates": reply["candidates"], "audit": reply["audit"]}

    def mine_approve(self, fingerprint: str) -> dict:
        """Submit a parked candidate (by content fingerprint) to shadow."""
        return self._call(
            {"type": protocol.MINE, "action": "approve", "fingerprint": fingerprint}
        )["candidate"]

    def mine_run(self) -> dict:
        """Force one mining cycle now; returns the cycle summary."""
        return self._call({"type": protocol.MINE, "action": "run"})["cycle"]

    def stats(self) -> dict:
        return self._call({"type": protocol.STATS})

    # -- plumbing -----------------------------------------------------------------

    def _call(self, message: dict) -> dict:
        if self._closed:
            raise NetError("admin connection is closed", code=protocol.ERR_INTERNAL)
        self._next_id += 1
        message = {**message, "id": self._next_id}
        try:
            protocol.write_frame(self._sock, message)
            reply = protocol.read_frame(self._sock)
        except (ConnectionClosed, OSError) as exc:
            self._closed = True
            self._sock.close()
            raise ConnectionClosed(str(exc)) from exc
        if reply.get("type") == protocol.ERROR:
            raise NetError(
                str(reply.get("error", "admin request failed")),
                code=str(reply.get("code", protocol.ERR_INTERNAL)),
            )
        return reply

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            protocol.write_frame(self._sock, {"type": protocol.GOODBYE})
            self._sock.settimeout(1.0)
            protocol.read_frame(self._sock)  # BYE
        except Exception:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "AdminClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
