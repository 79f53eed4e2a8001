"""The MINE admin verb over a real socket.

Drives the continuous-mining loop — seeded gap, mining cycle, candidate
listing, approval — through :class:`~repro.net.client.AdminClient`
against a live :class:`~repro.net.server.BackgroundServer`, with an
ordinary session client generating the audit and shadow traffic.
"""

from __future__ import annotations

import pytest

from repro.lifecycle import GateConfig, LifecycleManager
from repro.mining import MiningConfig
from repro.mining import config as mining_config
from repro.net import (
    AdminClient,
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
)
from repro.policy.policy import Policy
from repro.policy.serialize import policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app


def make_stack(mode: str):
    app = calendar_app.make_app()
    db = app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    lifecycle = LifecycleManager(gateway, gates=GateConfig(min_shadow_checks=3))
    lifecycle.enable_mining(MiningConfig(mode=mode))
    return gateway, lifecycle


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    """Mine from 4 audit entries: these tests drive a handful of statements."""
    monkeypatch.setattr(mining_config, "MIN_WINDOW", 4)


@pytest.fixture
def mining_stack():
    gateway, lifecycle = make_stack("propose_only")
    with BackgroundServer(
        gateway, ServerConfig(port=0), lifecycle=lifecycle
    ) as background:
        yield background, gateway, lifecycle
    lifecycle.mining.close()
    gateway.close()


def admin(background) -> AdminClient:
    return AdminClient(background.host, background.port, timeout_s=30.0)


def seed_gap_over_wire(background, client: AdminClient):
    """v1 traffic incl. a V2-justified read, then reload minus V2."""
    session = NetClientConnection(
        background.host, background.port, bindings={"MyUId": 1}
    )
    for eid in range(1, 6):
        session.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    session.query("SELECT * FROM Events WHERE EId = 2")
    full = calendar_app.ground_truth_policy()
    reduced = Policy([v for v in full.views if v.name != "V2"], name="minus-V2")
    client.reload(policy_to_text(reduced), label="gapped")
    for eid in range(1, 4):
        session.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    return session


class TestMineVerb:
    def test_full_operator_loop_status_run_candidates_approve(self, mining_stack):
        background, gateway, lifecycle = mining_stack
        with admin(background) as client:
            status = client.mine_status()
            assert status["mode"] == "propose_only"
            assert status["cycles"] == 0

            session = seed_gap_over_wire(background, client)
            cycle = client.mine_run()
            assert len(cycle["mined"]) == 1
            (fingerprint,) = cycle["mined"]

            listing = client.mine_candidates()
            (candidate,) = listing["candidates"]
            assert candidate["fingerprint"] == fingerprint
            assert candidate["kind"] == "gap-fill"
            assert candidate["status"] == "parked"
            assert listing["audit"][0]["action"] == "mined"

            approved = client.mine_approve(fingerprint)
            assert approved["status"] == "shadowing"
            for eid in range(10, 16):
                session.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            cycle = client.mine_run()
            assert cycle["progressed"]["action"] == "promoted"
            assert client.policy_status()["active_version"] == 3
            session.close()
        assert gateway.policy.meta["provenance"] == "mined"

    def test_stats_carries_the_mining_section(self, mining_stack):
        background, _, _ = mining_stack
        with admin(background) as client:
            stats = client.stats()
        assert stats["policy"]["mining"]["mode"] == "propose_only"

    def test_bad_action_and_missing_fingerprint_are_refused(self, mining_stack):
        background, _, _ = mining_stack
        with admin(background) as client:
            with pytest.raises(NetError, match="action"):
                client._call({"type": "MINE", "action": "bogus"})
            with pytest.raises(NetError, match="fingerprint"):
                client._call({"type": "MINE", "action": "approve"})
            with pytest.raises(NetError, match="no mined candidate"):
                client.mine_approve("feedfacedeadbeef")


class TestWithoutMining:
    def test_mine_without_a_service_is_a_clean_error(self):
        app = calendar_app.make_app()
        db = app.make_database(size=10, seed=3)
        gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
        lifecycle = LifecycleManager(gateway)
        with BackgroundServer(
            gateway, ServerConfig(port=0), lifecycle=lifecycle
        ) as background:
            with admin(background) as client:
                with pytest.raises(NetError, match="no mining service"):
                    client.mine_status()
        gateway.close()
