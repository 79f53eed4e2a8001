"""MINE through the router: fan-out, reconciliation, approve tolerance.

Each shard mines its own audit window, so the router merges candidate
lists by content fingerprint and tolerates per-shard approve failures
(a fingerprint mined on one shard may be unknown on another).
"""

from __future__ import annotations

import pytest

from repro.lifecycle import GateConfig, LifecycleManager
from repro.mining import MiningConfig
from repro.mining import config as mining_config
from repro.net import AdminClient, BackgroundServer, NetClientConnection, ServerConfig
from repro.policy import policy_to_text
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway
from repro.workloads import calendar_app

from tests.cluster.test_router import _BackgroundRouter


def make_mining_gateway() -> EnforcementGateway:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy)


@pytest.fixture
def mining_cluster(monkeypatch):
    gateways = [make_mining_gateway(), make_mining_gateway()]
    lifecycles = [
        LifecycleManager(gateway, gates=GateConfig(min_shadow_checks=3))
        for gateway in gateways
    ]
    monkeypatch.setattr(mining_config, "MIN_WINDOW", 4)
    for lifecycle in lifecycles:
        lifecycle.enable_mining(MiningConfig(mode="propose_only"))
    servers = [
        BackgroundServer(
            gateway, ServerConfig(port=0, shard_id=index), lifecycle=lifecycle
        ).start()
        for index, (gateway, lifecycle) in enumerate(zip(gateways, lifecycles))
    ]
    router = _BackgroundRouter([server.port for server in servers], monkeypatch)
    try:
        yield router, servers, gateways
    finally:
        router.stop()
        for server in servers:
            server.stop()
        for lifecycle in lifecycles:
            lifecycle.mining.close()
        for gateway in gateways:
            gateway.close()


def drive_gap_traffic(server, include_gap_query: bool = True):
    """v1 traffic straight at one shard (bypassing the session router)."""
    session = NetClientConnection(server.host, server.port, bindings={"MyUId": 1})
    for eid in range(1, 6):
        session.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    if include_gap_query:
        session.query("SELECT * FROM Events WHERE EId = 2")
    return session


def reduced_text() -> str:
    full = calendar_app.ground_truth_policy()
    return policy_to_text(
        Policy([v for v in full.views if v.name != "V2"], name="minus-V2")
    )


class TestCandidateReconciliation:
    def test_same_gap_on_both_shards_merges_to_one_candidate(self, mining_cluster):
        router, servers, _ = mining_cluster
        sessions = [drive_gap_traffic(server) for server in servers]
        with AdminClient("127.0.0.1", router.port, timeout_s=60.0) as fleet:
            fleet.reload(reduced_text(), label="gapped")
            for session in sessions:
                for eid in range(1, 4):
                    session.query(
                        f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                    )
            cycle = fleet.mine_run()  # fans out: one cycle per shard
            assert len(cycle["mined"]) == 1
            listing = fleet.mine_candidates()
        for session in sessions:
            session.close()
        # Identical traffic shapes mine content-identical candidates, so
        # the fleet view is one merged entry with two shard rows.
        (candidate,) = listing["candidates"]
        assert candidate["kind"] == "gap-fill"
        assert [row["shard"] for row in candidate["shards"]] == [0, 1]
        supports = {row["support"] for row in candidate["shards"]}
        assert candidate["support"] == max(supports)

    def test_status_fans_out_per_shard(self, mining_cluster):
        router, _, _ = mining_cluster
        with AdminClient("127.0.0.1", router.port, timeout_s=60.0) as fleet:
            reply = fleet._call({"type": "MINE", "action": "status"})
        assert reply["mining"]["mode"] == "propose_only"
        assert [row["shard"] for row in reply["shards"]] == [0, 1]


class TestApproveTolerance:
    def test_fingerprint_known_to_one_shard_still_approves(self, mining_cluster):
        router, servers, gateways = mining_cluster
        # Only shard 0 sees the V2-justified read, so only shard 0 mines
        # the gap-fill candidate.
        sessions = [
            drive_gap_traffic(server, include_gap_query=(index == 0))
            for index, server in enumerate(servers)
        ]
        with AdminClient("127.0.0.1", router.port, timeout_s=60.0) as fleet:
            fleet.reload(reduced_text(), label="gapped")
            for session in sessions:
                for eid in range(1, 4):
                    session.query(
                        f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                    )
            fleet.mine_run()
            (candidate,) = fleet.mine_candidates()["candidates"]
            assert [row["shard"] for row in candidate["shards"]] == [0]
            reply = fleet._call(
                {
                    "type": "MINE",
                    "action": "approve",
                    "fingerprint": candidate["fingerprint"],
                }
            )
        for session in sessions:
            session.close()
        # Shard 0 approved (candidate now shadowing); shard 1's "no such
        # candidate" error is recorded, not fatal.
        assert reply["candidate"]["status"] == "shadowing"
        rows = {row["shard"]: row for row in reply["shards"]}
        assert "reply" in rows[0]
        assert "no mined candidate" in rows[1]["error"]
        assert gateways[0].shadow is not None
        assert gateways[1].shadow is None
