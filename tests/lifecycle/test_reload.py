"""Hot reload: atomic epoch swap, preserved traces, no torn decisions."""

from __future__ import annotations

import threading
import time

import pytest

from repro.enforce.decision import PolicyViolation
from repro.lifecycle import LifecycleManager, hot_reload
from repro.lifecycle.reload import LifecycleError
from repro.serve import EnforcementGateway, GatewayConfig
from tests.conftest import reverify_audit
from tests.lifecycle.conftest import reduced_policy


class TestHotReload:
    def test_swap_changes_the_deciding_policy(self, calendar_pair, gateway):
        app, db = calendar_pair
        connection = gateway.connect(5)
        connection.query("SELECT EId FROM Attendance WHERE UId = 5")
        report = hot_reload(
            gateway, reduced_policy(app.ground_truth_policy()), version=2,
            provenance="patched",
        )
        assert report.new_version == 2 and gateway.policy_version == 2
        assert "V2" not in gateway.policy
        assert report.drained

    def test_decisions_stamp_their_epoch_version(self, calendar_pair, gateway):
        app, db = calendar_pair
        connection = gateway.connect(1)
        before = connection.decide(db.parse("SELECT EId FROM Attendance WHERE UId = 1"))
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        after = connection.decide(db.parse("SELECT EId FROM Attendance WHERE UId = 1"))
        assert (before.policy_version, after.policy_version) == (1, 2)

    def test_traces_survive_and_keep_gating(self, calendar_pair, gateway):
        """Example 2.1 across a reload: Q1 under v1 justifies Q2 under v2."""
        app, db = calendar_pair
        connection = gateway.connect(1)
        connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        facts_before = len(connection.trace.facts)
        report = hot_reload(gateway, app.ground_truth_policy(), version=2)
        assert report.sessions_preserved == 1
        assert report.trace_facts_preserved == facts_before
        assert len(connection.trace.facts) == facts_before
        # The certified Q1 fact, recorded under v1, still justifies Q2 now.
        assert len(connection.query("SELECT * FROM Events WHERE EId = 2")) == 1
        # A fresh session has no such history and stays blocked.
        with pytest.raises(PolicyViolation):
            gateway.connect(1, fresh=True).query("SELECT * FROM Events WHERE EId = 2")

    def test_caches_are_rebuilt_not_migrated(self, calendar_pair, gateway):
        app, db = calendar_pair
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        old_cache = gateway.shared_cache
        assert old_cache.size == 1
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        assert gateway.shared_cache is not old_cache
        assert gateway.shared_cache.size == 0
        # Re-warms from traffic under the new epoch.
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert gateway.shared_cache.size == 1

    def test_cache_event_counters_are_cumulative_across_a_reload(
        self, calendar_pair, gateway
    ):
        """Every cache *event* counter in the snapshot keeps counting over
        the gateway's life — the new store continues the retired store's
        counts — while the sizes gauge the live (cold again) store."""
        app, _ = calendar_pair
        events = (
            "compile_misses", "compiled_hits", "compiled_blocks",
            "shared_cache_hits", "shared_cache_misses", "shared_cache_stores",
            "shared_cache_invalidations", "shared_cache_compiled_hits",
            "shared_cache_compiled_misses", "shared_cache_blocks_stored",
            "cache_stripe_contention",
        )

        def traffic() -> None:
            for uid in (1, 2, 3):
                connection = gateway.connect(uid, fresh=True)
                with pytest.raises(PolicyViolation):  # fact-free: a Block template
                    connection.query("SELECT * FROM Events WHERE EId = 999")
                connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
                connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            gateway.connect(1).sql("UPDATE Attendance SET UId = UId")

        traffic()
        before = gateway.snapshot().counters
        assert before["compile_misses"] > 0 and before["shared_cache_hits"] > 0
        assert before["compiled_blocks"] > 0 and before["shared_cache_invalidations"] > 0
        rate_before = gateway.cache_hit_rate()
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        swapped = gateway.snapshot().counters
        assert {name: swapped[name] for name in events} == {
            name: before[name] for name in events
        }
        assert gateway.cache_hit_rate() == rate_before
        assert swapped["shared_cache_size"] == swapped["compiled_templates"] == 0
        traffic()
        after = gateway.snapshot().counters
        for name in events:
            assert after[name] >= before[name], name
        # The cold store re-derived what the reload threw away.
        assert after["compile_misses"] == 2 * before["compile_misses"]
        assert after["shared_cache_hits"] == after["cache_hits"]
        assert after["shared_cache_misses"] == after["cache_misses"]
        assert gateway.cache_hit_rate() == after["cache_hits"] / (
            after["cache_hits"] + after["cache_misses"]
        )

    def test_reload_counter_increments(self, calendar_pair, gateway):
        app, _ = calendar_pair
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        assert gateway.metrics.counter("policy_reloads") == 1


class TestNoTornDecisions:
    def test_concurrent_reloads_never_mix_policies(self, calendar_pair):
        """Audit every decision made during a reload storm and re-verify it
        against a fresh checker for the version that claims to have made
        it: with the epoch pinned per decision, the verdicts must agree."""
        self._run_reload_storm(calendar_pair, GatewayConfig())

    def test_reload_storm_through_the_compiled_batched_path(self, calendar_pair):
        """Same storm with the decision cache off, so every decision runs
        the epoch-compiled fast path and the check batcher — the
        re-verification checkers are template-free, so zero disagreements
        also means the compiled path never served a stale epoch's
        template."""
        self._run_reload_storm(calendar_pair, GatewayConfig(cache_mode="none"))

    def _run_reload_storm(self, calendar_pair, config):
        app, db = calendar_pair
        truth = app.ground_truth_policy()
        without_v2 = reduced_policy(truth)
        policies = {1: truth}
        gateway = EnforcementGateway(db, truth, config)
        audits = []
        audit_lock = threading.Lock()

        def audit(record):
            with audit_lock:
                audits.append(record)

        gateway.decision_audit = audit
        stop = threading.Event()
        errors = []

        def traffic(uid: int) -> None:
            connection = gateway.connect(uid)
            try:
                while not stop.is_set():
                    connection.query(f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = 2")
                    try:
                        connection.query("SELECT * FROM Events WHERE EId = 2")
                    except PolicyViolation:
                        pass
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=traffic, args=(uid,)) for uid in (1, 2, 3)]
        for thread in threads:
            thread.start()
        try:
            for version in range(2, 8):
                # Let traffic land a few decisions under the current policy
                # before swapping, so reloads genuinely interleave with
                # decisions on any backend speed (sqlite queries are slower
                # than the reload loop).
                with audit_lock:
                    seen = len(audits)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    with audit_lock:
                        if len(audits) >= seen + 4:
                            break
                    time.sleep(0.002)
                policy = truth if version % 2 == 1 else without_v2
                policies[version] = policy
                hot_reload(gateway, policy, version=version)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        gateway.close()
        assert not errors
        assert len(audits) > 20
        assert reverify_audit(audits, policies, db) == []


class TestCompiledEpochIsolation:
    """Per-skeleton templates are epoch artifacts: a swap must orphan them."""

    def test_allow_template_does_not_survive_a_narrowing_reload(self, calendar_pair):
        app, db = calendar_pair
        gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
        try:
            connection = gateway.connect(2)
            # Learn the template, then hit it, under v1 (V3 allows this).
            connection.query("SELECT Name FROM Users WHERE UId = 2")
            connection.query("SELECT Name FROM Users WHERE UId = 2")
            assert gateway.snapshot().counters["compiled_templates"] >= 1
            hot_reload(
                gateway, reduced_policy(app.ground_truth_policy(), drop="V3"),
                version=2,
            )
            # The v1 allow template must not answer under v2.
            with pytest.raises(PolicyViolation):
                gateway.connect(3, fresh=True).query(
                    "SELECT Name FROM Users WHERE UId = 3"
                )
        finally:
            gateway.close()

    def test_block_template_does_not_survive_a_widening_reload(self, calendar_pair):
        app, db = calendar_pair
        narrow = reduced_policy(app.ground_truth_policy(), drop="V3")
        gateway = EnforcementGateway(db, narrow, GatewayConfig())
        try:
            with pytest.raises(PolicyViolation):
                gateway.connect(2).query("SELECT Name FROM Users WHERE UId = 2")
            assert gateway.snapshot().counters["compiled_blocks"] >= 1
            hot_reload(gateway, app.ground_truth_policy(), version=2)
            # The v1 Block template is gone; v2's full check allows.
            rows = gateway.connect(3, fresh=True).query(
                "SELECT Name FROM Users WHERE UId = 3"
            )
            assert rows is not None
        finally:
            gateway.close()


class TestLifecycleManager:
    def test_registry_versions_track_epoch_versions(self, calendar_pair, gateway):
        app, _ = calendar_pair
        manager = LifecycleManager(gateway)
        report = manager.reload(reduced_policy(app.ground_truth_policy()))
        assert report.new_version == gateway.policy_version == 2
        assert manager.registry.active_version == 2

    def test_rollback_restores_previous_version(self, calendar_pair, gateway):
        app, db = calendar_pair
        manager = LifecycleManager(gateway)
        manager.reload(reduced_policy(app.ground_truth_policy()), provenance="patched")
        connection = gateway.connect(1)
        connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        with pytest.raises(PolicyViolation):
            connection.query("SELECT * FROM Events WHERE EId = 2")
        report = manager.rollback()
        assert report.new_version == 1
        assert gateway.policy_version == 1
        assert "V2" in gateway.policy
        # The rolled-back policy decides with fresh caches but the kept trace.
        assert len(connection.query("SELECT * FROM Events WHERE EId = 2")) == 1
        assert gateway.metrics.counter("policy_rollbacks") == 1

    def test_rollback_invalidates_caches(self, calendar_pair, gateway):
        app, _ = calendar_pair
        manager = LifecycleManager(gateway)
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        manager.reload(app.ground_truth_policy())
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        assert gateway.shared_cache.size == 1
        manager.rollback()
        assert gateway.shared_cache.size == 0

    def test_promote_without_shadow_raises(self, calendar_pair, gateway):
        manager = LifecycleManager(gateway)
        with pytest.raises(LifecycleError):
            manager.promote()
