"""The cluster router over real in-process shard servers.

No subprocesses here: each "shard" is a :class:`BackgroundServer` and the
router runs on its own threads in the test process — the full wire path
(client → router → shard) over loopback TCP.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.cluster import router as cluster_router
from repro.cluster.router import ClusterRouter, RouterConfig, shard_index_for
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
from repro.policy import policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app


def make_gateway(**config) -> EnforcementGateway:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy, GatewayConfig(**config))


class TestShardIndexFor:
    def test_deterministic_and_in_range(self):
        for count in (1, 2, 4, 7):
            for uid in range(20):
                index = shard_index_for({"MyUId": uid}, count)
                assert 0 <= index < count
                assert index == shard_index_for({"MyUId": uid}, count)

    def test_key_order_does_not_matter(self):
        left = shard_index_for({"A": 1, "B": 2}, 8)
        right = shard_index_for({"B": 2, "A": 1}, 8)
        assert left == right

    def test_spreads_principals(self):
        homes = {shard_index_for({"MyUId": uid}, 4) for uid in range(50)}
        assert homes == {0, 1, 2, 3}

    def test_single_shard_short_circuit(self):
        assert shard_index_for({"MyUId": 123}, 1) == 0


class _BackgroundRouter:
    """A ClusterRouter (test-side supervisor) that probes its shards every
    0.1 s and marks one down after 2 failed probes of at most 2 s each."""

    def __init__(self, shard_ports, monkeypatch):
        monkeypatch.setattr(cluster_router, "HEALTH_INTERVAL_S", 0.1)
        monkeypatch.setattr(cluster_router, "HEALTH_FAILURES", 2)
        monkeypatch.setattr(cluster_router, "CONNECT_TIMEOUT_S", 2.0)
        self.router = ClusterRouter(
            [("127.0.0.1", port) for port in shard_ports], RouterConfig()
        )
        self.router.start()
        self.port = self.router.port

    def stop(self):
        self.router.stop()


@pytest.fixture
def two_shards(monkeypatch):
    """Two shard servers + a router, all in-process."""
    gateways = [make_gateway(), make_gateway()]
    servers = [
        BackgroundServer(
            gateway,
            ServerConfig(port=0, shard_id=index),
            lifecycle=LifecycleManager(gateway),
        ).start()
        for index, gateway in enumerate(gateways)
    ]
    router = _BackgroundRouter([server.port for server in servers], monkeypatch)
    try:
        yield router, servers, gateways
    finally:
        router.stop()
        for server in servers:
            server.stop()
        for gateway in gateways:
            gateway.close()


class TestRouting:
    def test_session_lands_on_its_hashed_shard(self, two_shards):
        router, servers, _ = two_shards
        for uid in range(6):
            expected = shard_index_for({"MyUId": uid}, 2)
            connection = NetClientConnection("127.0.0.1", router.port, user=uid)
            assert connection.server_shard_id == expected
            result = connection.query(
                "SELECT EId FROM Attendance WHERE UId = ?", [uid]
            )
            assert result.columns == ["EId"]
            connection.close()
        assert router.router.counters["sessions_routed"] == 6

    def test_same_principal_reconnects_to_an_empty_trace(self, two_shards):
        router, _, gateways = two_shards
        first = NetClientConnection("127.0.0.1", router.port, user=1)
        first.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        first.query("SELECT * FROM Events WHERE EId = 2")  # needs the trace
        first.close()
        # Reconnecting as the same principal lands on the same shard (by
        # hash) but opens a new session: no trace is sticky.
        second = NetClientConnection("127.0.0.1", router.port, user=1)
        assert second.server_shard_id == first.server_shard_id
        with pytest.raises(PolicyViolation):
            second.query("SELECT * FROM Events WHERE EId = 2")
        second.close()

    def test_ping_answered_by_router(self, two_shards):
        router, servers, _ = two_shards
        connection = NetClientConnection("127.0.0.1", router.port, user=1)
        assert connection.ping() < 5.0
        connection.close()

    def test_pre_session_query_is_rejected(self, two_shards):
        router, _, _ = two_shards
        sock = socket.create_connection(("127.0.0.1", router.port), timeout=5)
        try:
            protocol.write_frame(
                sock, {"type": protocol.QUERY, "id": 1, "sql": "SELECT 1"}
            )
            reply = protocol.read_frame(sock)
            assert reply["type"] == protocol.ERROR
            assert reply["code"] == protocol.ERR_UNAUTHENTICATED
        finally:
            sock.close()


class TestAggregatedStats:
    def test_stats_merge_across_shards(self, two_shards):
        router, _, _ = two_shards
        uids = [1, 2, 3, 4]
        for uid in uids:
            connection = NetClientConnection("127.0.0.1", router.port, user=uid)
            connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            connection.close()
        admin = AdminClient("127.0.0.1", router.port)
        stats = admin.stats()
        admin.close()
        assert stats["cluster"]["shard_count"] == 2
        assert stats["gateway"]["counters"]["decisions_allowed"] == len(uids)
        assert stats["policy"]["consistent"] is True
        assert stats["router"]["counters"]["sessions_routed"] == len(uids)
        # Both shards contributed histograms (every shard served someone
        # only if the uids spread; assert on the merged check stage).
        assert stats["gateway"]["stages"]["check"]["count"] >= len(uids)


class TestRollingAdmin:
    def test_reload_rolls_across_every_shard(self, two_shards):
        router, _, gateways = two_shards
        text = policy_to_text(gateways[0].policy)
        admin = AdminClient("127.0.0.1", router.port)
        report = admin.reload(text, provenance="hand-written", label="cluster-v2")
        admin.close()
        # AdminClient-compatible report, plus every shard really moved.
        assert report["new_version"] == 2
        assert all(gateway.policy_version == 2 for gateway in gateways)

    def test_policy_status_through_router(self, two_shards):
        router, _, _ = two_shards
        admin = AdminClient("127.0.0.1", router.port)
        status = admin.policy_status()
        admin.close()
        assert status["active_version"] == 1


class TestDegradation:
    def test_down_shard_sheds_only_its_sessions(self, two_shards):
        router, servers, _ = two_shards
        # Find principals homed on each shard.
        on_zero = next(u for u in range(50) if shard_index_for({"MyUId": u}, 2) == 0)
        on_one = next(u for u in range(50) if shard_index_for({"MyUId": u}, 2) == 1)
        servers[1].stop()
        # Wait for the health loop to notice (interval 0.1s, 2 failures;
        # each failed probe may take up to CONNECT_TIMEOUT_S, so the
        # deadline must comfortably exceed 2x that).
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if not router.router._shards[1].healthy:
                break
            time.sleep(0.05)
        assert not router.router._shards[1].healthy
        # Shard 1's principals are shed with the stable error code...
        with pytest.raises(NetError) as excinfo:
            NetClientConnection("127.0.0.1", router.port, user=on_one)
        assert excinfo.value.code == protocol.ERR_UNAVAILABLE
        # ...while shard 0's principals keep working.
        connection = NetClientConnection("127.0.0.1", router.port, user=on_zero)
        connection.query("SELECT EId FROM Attendance WHERE UId = ?", [on_zero])
        connection.close()
        assert router.router.counters["sessions_shed"] >= 1


class TestRouterEdges:
    def test_query_sent_with_hello_reaches_the_shard(self, two_shards):
        router, _, _ = two_shards
        hello = {
            "type": protocol.HELLO,
            "version": protocol.PROTOCOL_VERSION,
            "bindings": {"MyUId": 1},
        }
        query = {
            "type": protocol.QUERY,
            "id": 7,
            "sql": "SELECT EId FROM Attendance WHERE UId = 1",
        }
        sock = socket.create_connection(("127.0.0.1", router.port), timeout=10)
        try:
            # One write: the router must hand the QUERY to the shard, not
            # swallow it while reading the HELLO.
            sock.sendall(protocol.encode_frame(hello) + protocol.encode_frame(query))
            assert protocol.read_frame(sock)["type"] == protocol.WELCOME
            reply = protocol.read_frame(sock)
            assert reply["type"] == protocol.RESULT
            assert reply["id"] == 7
            assert reply["columns"] == ["EId"]
        finally:
            sock.close()

    def test_oversized_frame_before_hello_is_refused(self, two_shards):
        router, _, _ = two_shards
        sock = socket.create_connection(("127.0.0.1", router.port), timeout=10)
        try:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            reply = protocol.read_frame(sock)
            assert reply["type"] == protocol.ERROR
            assert reply["code"] == protocol.ERR_OVERSIZED
        finally:
            sock.close()

    def test_stop_returns_promptly_with_a_spliced_session(self, two_shards, monkeypatch):
        _, servers, _ = two_shards
        # A router of its own, stopped once here and not again by the fixture.
        router = _BackgroundRouter([server.port for server in servers], monkeypatch)
        connection = NetClientConnection("127.0.0.1", router.port, user=1)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        started = time.monotonic()
        router.stop()
        assert time.monotonic() - started < 5.0
        with pytest.raises((NetError, OSError)):
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        connection.close()

    def test_connections_beyond_the_bound_are_refused(self, two_shards, monkeypatch):
        router, _, _ = two_shards
        monkeypatch.setattr(cluster_router, "MAX_CONNECTIONS", 2)
        held = [
            socket.create_connection(("127.0.0.1", router.port), timeout=10)
            for _ in range(2)
        ]
        extra = socket.create_connection(("127.0.0.1", router.port), timeout=10)
        try:
            for sock in held:  # both were admitted: the router answers them
                protocol.write_frame(sock, {"type": protocol.PING, "id": 1})
                assert protocol.read_frame(sock)["type"] == protocol.PONG
            reply = protocol.read_frame(extra)
            assert reply["type"] == protocol.ERROR
            assert reply["code"] == protocol.ERR_OVERLOADED
            assert router.router.counters["connections_rejected"] == 1
        finally:
            for sock in [*held, extra]:
                sock.close()

    def test_sessions_from_concurrent_clients_are_counted_exactly(self, two_shards):
        router, _, _ = two_shards
        errors: list[BaseException] = []

        def client(offset: int) -> None:
            try:
                for uid in range(offset, offset + 10):
                    connection = NetClientConnection("127.0.0.1", router.port, user=uid)
                    connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
                    connection.close()
            except BaseException as exc:  # surfaced below, on the test thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(offset,)) for offset in (0, 10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert router.router.counters["sessions_routed"] == 20
        routed = sum(shard.sessions_routed for shard in router.router._shards)
        assert routed == 20


class TestPoolCounters:
    def test_pool_counters_count_hello_handoffs_not_health_probes(self, two_shards):
        """Probes take and return pooled connections too; ``pool_hits`` and
        ``pool_misses`` say only how each routed session got its own."""
        router, _, _ = two_shards
        counters = router.router.counters

        def wait_for_probes(count: int) -> None:
            deadline = time.monotonic() + 10
            while counters["health_probes"] < count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert counters["health_probes"] >= count

        wait_for_probes(6)
        connection = NetClientConnection("127.0.0.1", router.port, user=1)
        connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        connection.close()
        wait_for_probes(counters["health_probes"] + 6)
        assert counters["sessions_routed"] == 1
        assert counters["pool_hits"] + counters["pool_misses"] == 1
