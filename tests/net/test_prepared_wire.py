"""Prepared-statement handles over the wire: PREPARE / EXECUTE.

The contract under test: EXECUTE ships only bindings yet is
decision-equivalent to sending the same SQL through QUERY — same rows,
same blocks, same trace history — and a handle outlives a hot reload:
each EXECUTE is decided under the policy current when it runs.
"""

from __future__ import annotations

import pytest

from repro.enforce.decision import PolicyViolation
from repro.lifecycle import LifecycleManager
from repro.net import (
    AdminClient,
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
    protocol,
)
from repro.net.server import PREPARED_CAP
from repro.policy.policy import Policy
from repro.policy.serialize import policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app


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


@pytest.fixture
def lifecycle_server():
    gateway = make_gateway()
    lifecycle = LifecycleManager(gateway)
    with BackgroundServer(
        gateway, ServerConfig(port=0), lifecycle=lifecycle
    ) as background:
        yield background, gateway


def connect(background: BackgroundServer, **kwargs) -> NetClientConnection:
    kwargs.setdefault("user", 1)
    return NetClientConnection(background.host, background.port, **kwargs)


class TestPrepareExecute:
    def test_execute_matches_query(self, server):
        connection = connect(server)
        prepared = connection.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        assert prepared.select and prepared.handle >= 1
        direct = connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        via_handle = connection.execute(prepared, [1])
        assert via_handle.columns == direct.columns
        assert sorted(via_handle.rows) == sorted(direct.rows)
        connection.close()

    def test_execute_feeds_trace_history_like_query(self, server):
        """Example 2.1 through the prepared path: the attendance probe via
        EXECUTE must certify the fact that later admits the Events query."""
        connection = connect(server)
        probe = connection.prepare(
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
        )
        assert len(connection.execute(probe, [1, 2])) == 1
        assert not connection.query("SELECT * FROM Events WHERE EId = 2").is_empty()
        connection.close()

    def test_blocked_execute_raises_policy_violation(self, server):
        connection = connect(server)
        prepared = connection.prepare("SELECT * FROM Events WHERE EId = ?")
        with pytest.raises(PolicyViolation) as excinfo:
            connection.execute(prepared, [2])
        assert not excinfo.value.decision.allowed
        connection.close()

    def test_prepared_write_returns_rowcount_and_invalidates(self, server):
        connection = connect(server)
        prepared = connection.prepare("UPDATE Events SET Title = Title")
        assert prepared.select is False
        count = connection.execute(prepared)
        assert isinstance(count, int) and count > 0
        assert server.server.gateway.metrics.counter("writes") == 1
        connection.close()

    def test_prepare_counts_in_metrics(self, server):
        connection = connect(server)
        connection.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        assert server.server.metrics.counter("statements_prepared") == 1
        connection.close()

    def test_unparsable_sql_is_an_engine_error(self, server):
        connection = connect(server)
        with pytest.raises(NetError) as excinfo:
            connection.prepare("THIS IS NOT SQL")
        assert excinfo.value.code == protocol.ERR_ENGINE
        assert connection.ping() < 5.0  # connection survives
        connection.close()


class TestHandleHygiene:
    def test_prepare_before_hello_is_unauthenticated(self, server):
        import socket

        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        sock.settimeout(5.0)
        protocol.write_frame(
            sock, {"type": protocol.PREPARE, "id": 1, "sql": "SELECT 1 FROM Events"}
        )
        assert protocol.read_frame(sock)["code"] == protocol.ERR_UNAUTHENTICATED
        protocol.write_frame(sock, {"type": protocol.EXECUTE, "id": 2, "handle": 1})
        assert protocol.read_frame(sock)["code"] == protocol.ERR_UNAUTHENTICATED
        sock.close()

    def test_unknown_handle_is_malformed_but_keeps_the_connection(self, server):
        connection = connect(server)
        protocol.write_frame(
            connection._sock,
            {"type": protocol.EXECUTE, "id": 7, "handle": 404, "args": []},
        )
        reply = protocol.read_frame(connection._sock)
        assert reply["code"] == protocol.ERR_MALFORMED
        assert "stale" not in reply
        assert server.server.metrics.counter("prepared_unknown") == 1
        assert connection.ping() < 5.0  # still alive: client bug, not framing
        connection.close()

    def test_handle_must_be_an_integer(self, server):
        connection = connect(server)
        protocol.write_frame(
            connection._sock,
            {"type": protocol.EXECUTE, "id": 8, "handle": "one", "args": []},
        )
        assert protocol.read_frame(connection._sock)["code"] == protocol.ERR_BAD_REQUEST
        connection.close()

    def test_handles_are_per_connection(self, server):
        first = connect(server)
        prepared = first.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        second = connect(server, user=2)
        protocol.write_frame(
            second._sock,
            {
                "type": protocol.EXECUTE,
                "id": 5,
                "handle": prepared.handle,
                "args": [2],
            },
        )
        assert protocol.read_frame(second._sock)["code"] == protocol.ERR_MALFORMED
        first.close()
        second.close()


class TestHandleTableCap:
    def test_table_is_bounded_and_an_evicted_handle_heals(self, server):
        connection = connect(server)
        sql = "SELECT EId FROM Attendance WHERE UId = ?"
        first = connection.prepare(sql)
        kept = connection.prepare(sql)
        for i in range(PREPARED_CAP + 8):
            connection.prepare(sql)
            # Executing a handle keeps it: eviction is least recently executed.
            if i % 256 == 0:
                connection.execute(kept, [1])
        (conn,) = server.server._connections
        assert len(conn.prepared) <= PREPARED_CAP
        assert kept.handle in conn.prepared and first.handle not in conn.prepared
        assert server.server.metrics.counter("prepared_evicted") == 10
        # The raw EXECUTE of an evicted handle is an unknown handle ...
        protocol.write_frame(
            connection._sock,
            {"type": protocol.EXECUTE, "id": 9, "handle": first.handle, "args": [1]},
        )
        reply = protocol.read_frame(connection._sock)
        assert reply["code"] == protocol.ERR_MALFORMED and reply["unknown_handle"]
        # ... which the client heals by re-preparing, transparently.
        old_handle = first.handle
        rows = connection.execute(first, [1])
        assert first.handle != old_handle and first.handle in conn.prepared
        assert sorted(rows.rows) == sorted(connection.query(sql, [1]).rows)
        assert len(conn.prepared) <= PREPARED_CAP
        connection.close()


def reduced_policy_text() -> str:
    policy = calendar_app.ground_truth_policy()
    return policy_to_text(
        Policy([v for v in policy.views if v.name != "V2"], name="minus-V2")
    )


class TestReloadStaleness:
    def test_old_handle_is_decided_under_the_new_policy(self, lifecycle_server):
        background, gateway = lifecycle_server
        sql = (
            "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId"
            " WHERE a.UId = ?"
        )
        connection = connect(background)
        prepared = connection.prepare(sql)
        # Under v1, V2 allows it (asked on a second session, so this
        # one's history stays empty).
        witness = connect(background)
        assert witness.execute(witness.prepare(sql), [1]).rows
        witness.close()
        with AdminClient(background.host, background.port, timeout_s=30.0) as operator:
            operator.reload(reduced_policy_text(), provenance="patched")
        assert gateway.policy_version == 2
        # Raw EXECUTE on the handle prepared under v1: decided under v2,
        # whose views no longer show event titles.
        protocol.write_frame(
            connection._sock,
            {
                "type": protocol.EXECUTE,
                "id": 99,
                "handle": prepared.handle,
                "args": [1],
            },
        )
        reply = protocol.read_frame(connection._sock)
        assert reply["type"] == protocol.BLOCKED, reply
        connection.close()

    def test_client_keeps_its_handle_across_reload(self, lifecycle_server):
        background, gateway = lifecycle_server
        connection = connect(background)
        prepared = connection.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        before = connection.execute(prepared, [1])
        old_handle = prepared.handle
        with AdminClient(background.host, background.port, timeout_s=30.0) as operator:
            operator.reload(reduced_policy_text(), provenance="patched")
        # One round trip on the same handle: V1 still allows it.
        after = connection.execute(prepared, [1])
        assert sorted(after.rows) == sorted(before.rows)
        assert prepared.handle == old_handle
        assert background.server.metrics.counter("prepared_unknown") == 0
        connection.close()
