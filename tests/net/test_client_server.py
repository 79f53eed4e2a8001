"""End-to-end wire tests: a real server on a real socket.

Every test here runs the full stack — thread-per-connection server,
each statement run on its connection's thread straight into the
enforcement gateway, blocking client — over a loopback TCP connection
bound to an ephemeral port. The classes below are the E12 contract
(shedding, deadlines, idle reaping, drain, frame hygiene); they predate
the blocking server and pin it unchanged.
"""

from __future__ import annotations

import gc
import socket
import struct
import threading
import time
import weakref

import pytest

from repro.enforce.decision import PolicyViolation
from repro.net import (
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
    protocol,
)
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app
from tests.conftest import delay_statements


def make_gateway(**config) -> EnforcementGateway:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy, GatewayConfig(**config))


@pytest.fixture
def server():
    with BackgroundServer(make_gateway(), ServerConfig(port=0)) as background:
        yield background


def connect(background: BackgroundServer, **kwargs) -> NetClientConnection:
    kwargs.setdefault("user", 1)
    return NetClientConnection(background.host, background.port, **kwargs)


def raw_socket(background: BackgroundServer) -> socket.socket:
    sock = socket.create_connection((background.host, background.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestEndToEnd:
    def test_e1_calendar_trace_over_the_wire(self, server):
        """Example 2.1 end to end: history gates Q2, exactly as in-process."""
        connection = connect(server)
        q1 = connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        assert len(q1) == 1
        q2 = connection.query("SELECT * FROM Events WHERE EId = 2")
        assert not q2.is_empty()
        # A fresh session has no history: the same Q2 must be blocked.
        fresh = connect(server, fresh=True)
        with pytest.raises(PolicyViolation) as excinfo:
            fresh.query("SELECT * FROM Events WHERE EId = 2")
        assert not excinfo.value.decision.allowed
        assert "Events" in excinfo.value.decision.sql
        connection.close()
        fresh.close()

    def test_reconnecting_starts_an_empty_trace(self, server):
        first = connect(server)
        first.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        assert not first.query("SELECT * FROM Events WHERE EId = 2").is_empty()
        first.close()
        # Same principal, new wire connection: a new session, whose empty
        # trace cannot justify Q2.
        second = connect(server)
        with pytest.raises(PolicyViolation):
            second.query("SELECT * FROM Events WHERE EId = 2")
        second.close()

    def test_nothing_outlives_its_connection(self, server):
        """A closed wire connection's gateway session is garbage: the
        server keeps no session past the connection that opened it."""
        sessions = []
        for uid in range(1, 9):
            connection = connect(server, user=uid)
            connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            (conn,) = server.server._connections
            sessions.append(weakref.ref(conn.session))
            thread = conn.thread
            connection.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        del conn
        gc.collect()
        assert [ref for ref in sessions if ref() is not None] == []

    def test_writes_return_rowcounts_and_invalidate(self, server):
        connection = connect(server)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        count = connection.sql("UPDATE Events SET Title = Title")
        assert isinstance(count, int) and count > 0
        assert server.server.gateway.metrics.counter("writes") == 1
        connection.close()

    def test_result_values_and_positional_args_survive_the_wire(self, server):
        connection = connect(server)
        result = connection.query(
            "SELECT EId FROM Attendance WHERE UId = ?", [1]
        )
        assert result.columns == ["EId"]
        assert all(isinstance(row, tuple) for row in result.rows)
        connection.close()

    def test_ping_and_stats(self, server):
        connection = connect(server)
        assert connection.ping() < 5.0
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        stats = connection.stats()
        assert stats["net"]["counters"]["requests_ok"] >= 1
        assert "gateway" in stats and "cache_hit_rate" in stats
        assert stats["net"]["active_connections"] >= 1
        connection.close()

    def test_engine_errors_come_back_as_engine_code(self, server):
        connection = connect(server)
        with pytest.raises(NetError) as excinfo:
            connection.query("THIS IS NOT SQL")
        assert excinfo.value.code == protocol.ERR_ENGINE
        # The connection survives an engine error.
        assert connection.ping() < 5.0
        connection.close()


class TestHandshake:
    def test_statement_before_hello_is_unauthenticated(self, server):
        sock = raw_socket(server)
        protocol.write_frame(
            sock, {"type": protocol.QUERY, "id": 1, "sql": "SELECT 1 FROM Events"}
        )
        reply = protocol.read_frame(sock)
        assert reply["code"] == protocol.ERR_UNAUTHENTICATED
        sock.close()

    def test_version_mismatch_is_rejected(self, server):
        sock = raw_socket(server)
        protocol.write_frame(
            sock,
            {"type": protocol.HELLO, "version": 999, "bindings": {"MyUId": 1}},
        )
        assert protocol.read_frame(sock)["code"] == protocol.ERR_BAD_VERSION
        sock.close()

    def test_hello_requires_bindings(self, server):
        sock = raw_socket(server)
        protocol.write_frame(
            sock,
            {"type": protocol.HELLO, "version": protocol.PROTOCOL_VERSION},
        )
        assert protocol.read_frame(sock)["code"] == protocol.ERR_BAD_REQUEST
        sock.close()

    def test_double_hello_is_rejected(self, server):
        connection = connect(server)
        protocol.write_frame(
            connection._sock,
            {
                "type": protocol.HELLO,
                "version": protocol.PROTOCOL_VERSION,
                "bindings": {"MyUId": 2},
            },
        )
        reply = protocol.read_frame(connection._sock)
        assert reply["code"] == protocol.ERR_BAD_REQUEST
        connection.close()

    def test_a_binding_that_is_not_a_scalar_is_a_bad_request(self, server):
        """Refused at HELLO — not an internal error at the first SELECT —
        and the server keeps serving."""
        for value in ([1], {"id": 1}):
            with pytest.raises(NetError) as refused:
                connect(server, bindings={"MyUId": value})
            assert refused.value.code == protocol.ERR_BAD_REQUEST
            assert "MyUId" in str(refused.value)
        connection = connect(server)
        assert len(connection.query("SELECT EId FROM Attendance WHERE UId = 1")) > 0
        connection.close()
        assert server.server.metrics.counter("requests_failed") == 0


class TestFrameHygiene:
    def test_oversized_frame_is_rejected_from_the_prefix(self):
        gateway = make_gateway()
        with BackgroundServer(gateway, ServerConfig(port=0)) as bg:
            sock = raw_socket(bg)
            # No payload needed: the length prefix alone is refused.
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            reply = protocol.read_frame(sock)
            assert reply["code"] == protocol.ERR_OVERSIZED
            assert bg.server.metrics.counter("frames_oversized") == 1
            sock.close()

    def test_malformed_payload_is_rejected_and_closed(self, server):
        sock = raw_socket(server)
        garbage = b"this is not json"
        sock.sendall(struct.pack(">I", len(garbage)) + garbage)
        reply = protocol.read_frame(sock)
        assert reply["code"] == protocol.ERR_MALFORMED
        # The server closes after a framing violation.
        assert sock.recv(1) == b""
        sock.close()

    def test_unknown_message_type_keeps_the_connection(self, server):
        connection = connect(server)
        protocol.write_frame(connection._sock, {"type": "FROBNICATE", "id": 9})
        reply = protocol.read_frame(connection._sock)
        assert reply["code"] == protocol.ERR_BAD_REQUEST
        assert connection.ping() < 5.0  # still alive
        connection.close()


class TestAdmissionControl:
    def test_connection_limit_refuses_with_overloaded(self):
        with BackgroundServer(make_gateway(), ServerConfig(port=0, max_connections=1)) as bg:
            keeper = connect(bg)
            with pytest.raises(NetError) as excinfo:
                connect(bg, user=2)
            assert excinfo.value.code == protocol.ERR_OVERLOADED
            assert bg.server.metrics.counter("connections_rejected") == 1
            keeper.close()

    def test_in_flight_bound_sheds_instead_of_queueing(self):
        config = ServerConfig(port=0, max_in_flight=1)
        with BackgroundServer(delay_statements(make_gateway(), 0.4), config) as bg:
            busy = connect(bg, user=1)
            other = connect(bg, user=2)
            finished = {}

            def slow():
                finished["result"] = busy.query("SELECT EId FROM Attendance WHERE UId = 1")

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)  # the slow statement now occupies the only slot
            shed_started = time.perf_counter()
            with pytest.raises(NetError) as excinfo:
                other.query("SELECT EId FROM Attendance WHERE UId = 2")
            shed_latency = time.perf_counter() - shed_started
            thread.join()
            assert excinfo.value.code == protocol.ERR_OVERLOADED
            assert shed_latency < 0.2, "shedding must not wait for the busy slot"
            assert bg.server.metrics.counter("requests_shed") == 1
            # The admitted statement still completed normally.
            assert finished["result"].columns == ["EId"]
            # Once the slot frees, the shed client's retry succeeds.
            assert other.query("SELECT EId FROM Attendance WHERE UId = 2") is not None
            busy.close()
            other.close()


class TestDeadlines:
    def test_deadline_overrun_errors_and_closes(self):
        config = ServerConfig(port=0, request_timeout_s=0.05)
        with BackgroundServer(delay_statements(make_gateway(), 0.5), config) as bg:
            connection = connect(bg)
            with pytest.raises(NetError) as excinfo:
                connection.query("SELECT EId FROM Attendance WHERE UId = 1")
            assert excinfo.value.code == protocol.ERR_TIMEOUT
            assert connection.closed  # the session may still be busy server-side
            assert bg.server.metrics.counter("requests_timed_out") == 1

    def test_orphaned_statement_releases_its_slot(self):
        config = ServerConfig(port=0, max_in_flight=1, request_timeout_s=0.05)
        with BackgroundServer(delay_statements(make_gateway(), 0.3), config) as bg:
            victim = connect(bg, user=1)
            with pytest.raises(NetError):
                victim.query("SELECT EId FROM Attendance WHERE UId = 1")
            # Wait for the orphan to finish; the slot must come back.
            deadline = time.time() + 5.0
            while bg.server.metrics.in_flight and time.time() < deadline:
                time.sleep(0.02)
            assert bg.server.metrics.in_flight == 0
            # With the slot reclaimed, a new statement is admitted: it hits
            # the (injected) deadline, not the overloaded shed path.
            fresh = connect(bg, user=2)
            with pytest.raises(NetError) as followup:
                fresh.query("SELECT EId FROM Attendance WHERE UId = 2")
            assert followup.value.code == protocol.ERR_TIMEOUT


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["request_timeout_s", "idle_timeout_s"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_a_timeout_that_is_not_positive_is_refused(self, field, value):
        """A negative idle timeout would kill the accept thread on the
        first connection, and 0 would close every connection before its
        HELLO is answered: neither may reach a socket."""
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            ServerConfig(port=0, **{field: value})


class TestIdleReaping:
    def test_idle_connection_gets_bye(self):
        with BackgroundServer(make_gateway(), ServerConfig(port=0, idle_timeout_s=0.1)) as bg:
            connection = connect(bg)
            time.sleep(0.3)
            reply = protocol.read_frame(connection._sock)
            assert reply == {"type": protocol.BYE, "reason": "idle"}
            assert bg.server.metrics.counter("idle_reaped") == 1
            connection.close()

    def test_active_connection_is_not_reaped(self):
        with BackgroundServer(make_gateway(), ServerConfig(port=0, idle_timeout_s=0.4)) as bg:
            connection = connect(bg)
            for _ in range(4):
                time.sleep(0.15)
                assert connection.ping() < 5.0
            connection.close()


class TestGracefulDrain:
    def test_drain_finishes_in_flight_and_delivers_every_reply(self):
        config = ServerConfig(port=0, max_in_flight=8)
        background = BackgroundServer(delay_statements(make_gateway(), 0.25), config).start()
        replies: dict[int, object] = {}
        connections = [connect(background, user=uid) for uid in (1, 2, 3)]

        def issue(index: int, connection: NetClientConnection, uid: int) -> None:
            replies[index] = connection.query(
                "SELECT EId FROM Attendance WHERE UId = ?", [uid]
            )

        threads = [
            threading.Thread(target=issue, args=(i, conn, uid))
            for i, (conn, uid) in enumerate(zip(connections, (1, 2, 3)))
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # all three statements now in flight
        background.stop()  # graceful drain
        for thread in threads:
            thread.join()
        # Zero dropped replies: every in-flight statement got its RESULT.
        assert sorted(replies) == [0, 1, 2]
        for reply in replies.values():
            assert reply.columns == ["EId"]

    def test_connections_arriving_during_drain_are_refused(self):
        background = BackgroundServer(
            delay_statements(make_gateway(), 0.4), ServerConfig(port=0)
        ).start()
        connection = connect(background)
        thread = threading.Thread(
            target=lambda: connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        )
        thread.start()
        time.sleep(0.1)
        stopper = threading.Thread(target=background.stop)
        stopper.start()
        time.sleep(0.05)  # drain has begun; listener is closed
        with pytest.raises((NetError, OSError)):
            connect(background, user=2)
        thread.join()
        stopper.join()

    def test_idle_connections_get_bye_on_drain(self):
        background = BackgroundServer(make_gateway(), ServerConfig(port=0)).start()
        connection = connect(background)
        stopper = threading.Thread(target=background.stop)
        stopper.start()
        reply = protocol.read_frame(connection._sock)
        assert reply == {"type": protocol.BYE, "reason": "shutting down"}
        stopper.join()
        connection.close()


class TestClientLifecycle:
    def test_close_is_idempotent(self, server):
        connection = connect(server)
        connection.close()
        connection.close()
        assert connection.closed

    def test_use_after_close_raises(self, server):
        connection = connect(server)
        connection.close()
        with pytest.raises(Exception, match="closed"):
            connection.sql("SELECT EId FROM Attendance WHERE UId = 1")

    def test_goodbye_lets_the_server_account_the_close(self, server):
        connection = connect(server)
        connection.close()
        deadline = time.time() + 5.0
        while server.server.metrics.active_connections and time.time() < deadline:
            time.sleep(0.02)
        assert server.server.metrics.active_connections == 0
