"""Shadow mode: candidate policies trialed against live gateway traffic."""

from __future__ import annotations

import threading

import pytest

from repro.enforce.decision import PolicyViolation
from repro.lifecycle import DivergenceLog, ShadowRunner
from repro.lifecycle import shadow as shadow_module
from repro.lifecycle.shadow import Divergence
from repro.policy.policy import Policy, View
from repro.serve import EnforcementGateway, GatewayConfig
from tests.lifecycle.conftest import reduced_policy


def start_shadow(gateway, candidate, version=2) -> ShadowRunner:
    runner = ShadowRunner(gateway, candidate, version)
    gateway.shadow = runner
    return runner


def finish(runner) -> dict:
    assert runner.drain(timeout_s=20.0)
    return runner.stats()


class TestAgreement:
    def test_identical_candidate_never_diverges(self, calendar_pair, gateway):
        app, db = calendar_pair
        runner = start_shadow(gateway, app.ground_truth_policy())
        connection = gateway.connect(1)
        for eid in range(1, 6):
            connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
        stats = finish(runner)
        assert stats["checks"] == 5
        assert stats["divergences"] == 0

    def test_blocked_statements_are_shadow_checked_too(self, calendar_pair, gateway):
        app, db = calendar_pair
        runner = start_shadow(gateway, app.ground_truth_policy())
        connection = gateway.connect(1)
        with pytest.raises(PolicyViolation):
            connection.query("SELECT * FROM Events WHERE EId = 2")
        stats = finish(runner)
        assert stats["checks"] == 1
        assert stats["divergences"] == 0


class TestRegressionDetection:
    def test_allow_to_block_caught_on_history_gated_query(self, calendar_pair, gateway):
        """Candidate minus V2 flips the Example 2.1 allow to a block."""
        app, db = calendar_pair
        runner = start_shadow(gateway, reduced_policy(app.ground_truth_policy()))
        connection = gateway.connect(1)
        connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        connection.query("SELECT * FROM Events WHERE EId = 2")  # allowed by V2
        stats = finish(runner)
        assert stats["allow_to_block"] == 1
        (divergence,) = [
            d for d in runner.log.entries() if d.kind == "allow_to_block"
        ]
        assert "Events" in divergence.sql
        assert divergence.active_allowed and not divergence.candidate_allowed
        assert (divergence.active_version, divergence.candidate_version) == (1, 2)
        assert divergence.trace_len > 0  # the snapshot carries the Q1 history

    def test_block_to_allow_caught_on_attack_query(self, calendar_pair, gateway):
        """An over-broad candidate (all of Events) flips a block to an allow."""
        app, db = calendar_pair
        broad = Policy(
            list(app.ground_truth_policy().views)
            + [View("VAll", "SELECT * FROM Events", db.schema, "too broad")],
            name="over-broad",
        )
        runner = start_shadow(gateway, broad)
        connection = gateway.connect(1)
        with pytest.raises(PolicyViolation):
            connection.query("SELECT * FROM Events WHERE EId = 2")
        stats = finish(runner)
        assert stats["block_to_allow"] == 1
        (divergence,) = runner.log.entries()
        assert divergence.kind == "block_to_allow"
        assert not divergence.active_allowed and divergence.candidate_allowed

    def test_snapshot_pins_decision_time_history(self, calendar_pair, gateway):
        """A later Q1 must not retroactively justify the earlier Q2 shadow check.

        Q2 arrives *before* the Q1 that would justify it under the
        candidate; the shadow check for Q2 must see the empty trace the
        active decision saw, not the trace as of check time.
        """
        app, db = calendar_pair
        runner = start_shadow(gateway, app.ground_truth_policy())
        connection = gateway.connect(1)
        with pytest.raises(PolicyViolation):
            connection.query("SELECT * FROM Events WHERE EId = 2")
        connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        connection.query("SELECT * FROM Events WHERE EId = 2")
        stats = finish(runner)
        # Identical policies: if snapshots leaked, the first (blocked) Q2
        # would shadow-decide allow and show up as a fake divergence.
        assert stats["checks"] == 3
        assert stats["divergences"] == 0


class TestDecisionTimeSnapshot:
    @pytest.mark.parametrize("then", ["advance", "close"])
    def test_shadow_sees_decision_time_facts(self, calendar_pair, then):
        """Example 2.1 with the shadow thread held back, so every candidate
        check runs only after the live trace has moved on (or the
        connection closed). The active policy lacks V2 and blocks Q2
        always; the candidate (ground truth) allows Q2 exactly when Q1's
        fact is in the history it is shown — so its verdicts tell which
        history that was."""
        app, db = calendar_pair
        truth = app.ground_truth_policy()
        gateway = EnforcementGateway(db, reduced_policy(truth), GatewayConfig())
        runner = start_shadow(gateway, truth)
        gate = threading.Event()
        runner._executor.submit(gate.wait)  # every shadow check queues behind this
        try:
            connection = gateway.connect(1)
            q2 = "SELECT * FROM Events WHERE EId = 2"
            with pytest.raises(PolicyViolation):
                connection.query(q2)  # decided on an empty history
            connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            at_decision = connection.trace.facts
            assert len(at_decision) == 1
            with pytest.raises(PolicyViolation):
                connection.query(q2)  # decided with Attendance(1, 2) certified
            if then == "advance":
                connection.query("SELECT Name FROM Users WHERE UId = 1")
                assert connection.trace.facts != at_decision
            else:
                connection.close()
            gate.set()
            stats = finish(runner)
        finally:
            gate.set()
            gateway.close()
        assert stats["errors"] == 0
        # The first Q2 saw no facts: a live-trace leak would flip it too.
        (divergence,) = runner.log.entries()
        assert divergence.kind == "block_to_allow" and divergence.sql.endswith("= 2")
        assert divergence.facts == at_decision
        assert divergence.trace_len == 1


class TestBackpressureAndLog:
    def test_queue_overflow_drops_instead_of_blocking(
        self, calendar_pair, gateway, monkeypatch
    ):
        app, db = calendar_pair
        monkeypatch.setattr(shadow_module, "MAX_PENDING", 0)
        runner = start_shadow(gateway, app.ground_truth_policy())
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        stats = runner.stats()
        assert stats["dropped"] == 1
        assert stats["submitted"] == 0

    def test_divergence_log_is_bounded_but_counters_exact(self, monkeypatch):
        monkeypatch.setattr(shadow_module, "DIVERGENCE_LOG_CAP", 2)
        log = DivergenceLog()
        for index in range(5):
            log.record(
                Divergence(
                    sql=f"SELECT {index}",
                    stmt=None,
                    bindings=(),
                    active_allowed=True,
                    candidate_allowed=False,
                    active_version=1,
                    candidate_version=2,
                )
            )
        assert len(log.entries()) == 2
        assert log.stats()["divergences"] == 5
        assert log.stats()["allow_to_block"] == 5

    def test_closed_runner_sheds_submissions(self, calendar_pair, gateway):
        app, db = calendar_pair
        runner = start_shadow(gateway, app.ground_truth_policy())
        runner.close()
        gateway.shadow = None
        connection = gateway.connect(1)
        bound = db.parse("SELECT EId FROM Attendance WHERE UId = 1")
        decision = connection.decide(bound)
        assert decision.allowed
        assert not runner.submit(connection, bound, decision)
