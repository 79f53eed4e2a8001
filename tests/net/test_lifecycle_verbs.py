"""Policy-lifecycle admin verbs over a real socket.

Runs the full operator loop — POLICY / RELOAD / SHADOW / PROMOTE /
ROLLBACK — through :class:`~repro.net.client.AdminClient` against a live
:class:`~repro.net.server.BackgroundServer` with a
:class:`~repro.lifecycle.LifecycleManager` attached, while an ordinary
session client generates the shadow traffic.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.enforce.decision import PolicyViolation
from repro.lifecycle import GateConfig, LifecycleManager
from repro.net import (
    AdminClient,
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
    protocol,
)
from repro.policy.policy import Policy
from repro.policy.serialize import policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app


@pytest.fixture
def stack():
    """(background server, gateway, lifecycle) wired together."""
    app = calendar_app.make_app()
    db = app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
    lifecycle = LifecycleManager(gateway, gates=GateConfig(min_shadow_checks=3))
    with BackgroundServer(
        gateway, ServerConfig(port=0), lifecycle=lifecycle
    ) as background:
        yield background, gateway, lifecycle


def admin(background) -> AdminClient:
    return AdminClient(background.host, background.port, timeout_s=30.0)


def reduced_text() -> str:
    policy = calendar_app.ground_truth_policy()
    return policy_to_text(
        Policy([v for v in policy.views if v.name != "V2"], name="minus-V2")
    )


def full_text() -> str:
    return policy_to_text(calendar_app.ground_truth_policy())


class TestPolicyStatus:
    def test_status_reports_boot_version(self, stack):
        background, _, _ = stack
        with admin(background) as client:
            status = client.policy_status()
        assert status["active_version"] == 1
        assert status["provenance"] == "hand-written"
        assert status["views"] == 4
        assert status["rollback_target"] is None

    def test_stats_carries_the_policy_section(self, stack):
        background, _, _ = stack
        with admin(background) as client:
            stats = client.stats()
        assert stats["policy"]["active_version"] == 1


class TestReloadVerb:
    def test_reload_swaps_and_reports(self, stack):
        background, gateway, _ = stack
        with admin(background) as client:
            report = client.reload(reduced_text(), provenance="patched")
            assert (report["old_version"], report["new_version"]) == (1, 2)
            assert report["drained"] is True
            assert client.policy_status()["active_version"] == 2
        assert gateway.policy_version == 2
        assert "V2" not in gateway.policy

    def test_policy_reload_cli_says_what_it_kept(self, stack, tmp_path, capsys):
        background, gateway, _ = stack
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        path = tmp_path / "same.txt"
        path.write_text(full_text())
        argv = ["policy-reload", "--host", background.host, "--port", str(background.port)]
        assert main([*argv, "--policy-file", str(path)]) == 0
        assert "1 templates carried / 0 dropped" in capsys.readouterr().out

    def test_reload_changes_wire_decisions_without_reconnecting(self, stack):
        background, _, _ = stack
        session = NetClientConnection(background.host, background.port, user=1)
        session.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        assert not session.query("SELECT * FROM Events WHERE EId = 2").is_empty()
        with admin(background) as client:
            report = client.reload(reduced_text())
            # Q1's template (over V1) is kept, Q2's (over V2) is not.
            assert (report["templates_carried"], report["templates_dropped"]) == (1, 1)
            counters = client.stats()["gateway"]["counters"]
            assert counters["templates_carried"] == 1
        with pytest.raises(PolicyViolation):
            session.query("SELECT * FROM Events WHERE EId = 2")
        session.close()

    def test_bad_policy_text_reports_the_line(self, stack):
        background, gateway, _ = stack
        with admin(background) as client:
            with pytest.raises(NetError) as excinfo:
                client.reload("view broken\nview alsoBroken\n  SELECT 1 FROM Events")
            assert "line 1" in str(excinfo.value)
        assert gateway.policy_version == 1  # nothing swapped

    def test_empty_policy_text_is_a_bad_request(self, stack):
        background, _, _ = stack
        with admin(background) as client:
            with pytest.raises(NetError, match="policy_text"):
                client.reload("   ")


class TestShadowAndPromoteVerbs:
    def test_full_shadow_promote_rollback_loop(self, stack):
        background, gateway, _ = stack
        session = NetClientConnection(background.host, background.port, user=1)
        with admin(background) as client:
            started = client.shadow_start(full_text(), label="mined")
            assert started["candidate_version"] == 2
            for eid in range(1, 5):
                session.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            gateway.shadow.drain(timeout_s=20.0)
            status = client.shadow_status()
            assert status["checks"] >= 3 and status["divergences"] == 0
            promoted = client.promote()
            assert promoted["promoted"] is True
            assert client.policy_status()["active_version"] == 2
            report = client.rollback()
            assert report["new_version"] == 1
            assert client.policy_status()["active_version"] == 1
        session.close()

    def test_failed_promotion_returns_gates_and_diagnoses(self, stack):
        background, gateway, _ = stack
        session = NetClientConnection(background.host, background.port, user=1)
        with admin(background) as client:
            client.shadow_start(reduced_text(), label="regressed")
            session.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            session.query("SELECT * FROM Events WHERE EId = 2")
            for eid in range(3, 6):
                session.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            gateway.shadow.drain(timeout_s=20.0)
            verdict = client.promote()
            assert verdict["promoted"] is False
            failed = [g for g in verdict["gates"] if not g["passed"]]
            assert any(g["name"] == "shadow" for g in failed)
            assert verdict["diagnoses"]
            # Shadow survives the rejection; stop it explicitly.
            stats = client.shadow_stop()
            assert stats["allow_to_block"] == 1
        session.close()

    def test_shadow_stop_without_start_is_an_error(self, stack):
        background, _, _ = stack
        with admin(background) as client:
            with pytest.raises(NetError, match="no shadow"):
                client.shadow_stop()
            assert client.shadow_status() is None

    def test_promote_gate_overrides_travel_the_wire(self, stack):
        background, gateway, _ = stack
        session = NetClientConnection(background.host, background.port, user=1)
        with admin(background) as client:
            client.shadow_start(full_text())
            session.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            gateway.shadow.drain(timeout_s=20.0)
            # Default gate (min 3 checks) would reject one check; the
            # override lowers the floor and the promotion goes through.
            rejected = client.promote()
            assert rejected["promoted"] is False
            promoted = client.promote(min_shadow_checks=1)
            assert promoted["promoted"] is True
        session.close()


    @pytest.mark.parametrize(
        "override",
        [
            {"min_shadow_checks": "x"},
            {"min_shadow_checks": -1},
            {"min_shadow_checks": True},
            {"min_shadow_checks": 1.5},
            {"max_divergences": None},
            {"max_divergences": -2},
            {"min_precision": 1.5},
            {"min_precision": "1"},
            {"min_recall": -0.1},
            {"min_recall": False},
        ],
    )
    def test_a_malformed_gate_override_is_a_bad_request(self, stack, override):
        """Refused before any gate runs, on a connection that stays open:
        the same client then promotes with a good override."""
        background, gateway, _ = stack
        session = NetClientConnection(background.host, background.port, user=1)
        with admin(background) as client:
            client.shadow_start(full_text())
            session.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            gateway.shadow.drain(timeout_s=20.0)
            with pytest.raises(NetError) as refused:
                client.promote(**override)
            assert refused.value.code == protocol.ERR_BAD_REQUEST
            assert f"PROMOTE override {next(iter(override))} must be" in str(refused.value)
            assert client.policy_status()["active_version"] == 1
            promoted = client.promote(min_shadow_checks=1, min_precision=1, min_recall=1.0)
            assert promoted["promoted"] is True
        session.close()


class TestWithoutLifecycle:
    def test_admin_verbs_fail_fast_when_not_configured(self):
        gateway = EnforcementGateway(
            calendar_app.make_database(size=5, seed=3),
            calendar_app.ground_truth_policy(),
            GatewayConfig(),
        )
        with BackgroundServer(gateway, ServerConfig(port=0)) as background:
            with admin(background) as client:
                with pytest.raises(NetError, match="lifecycle"):
                    client.policy_status()

    def test_stats_still_reports_the_active_version(self):
        gateway = EnforcementGateway(
            calendar_app.make_database(size=5, seed=3),
            calendar_app.ground_truth_policy(),
            GatewayConfig(),
        )
        with BackgroundServer(gateway, ServerConfig(port=0)) as background:
            with admin(background) as client:
                assert client.stats()["policy"] == {"active_version": 1}
