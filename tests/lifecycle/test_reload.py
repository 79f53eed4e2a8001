"""Hot reload: atomic epoch swap, preserved traces, no torn decisions."""

from __future__ import annotations

import threading
import time

import pytest

from repro.enforce.decision import PolicyViolation
from repro.lifecycle import LifecycleManager, hot_reload
from repro.lifecycle.reload import LifecycleError
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway, GatewayConfig
from tests.conftest import reverify_audit
from tests.lifecycle.conftest import reduced_policy


def _templates(store) -> set:
    """A store's templates, each with the views its proof rests on."""
    return {(template, template.views) for template in store.iter_templates()}


def _reordered(policy: Policy, *names: str) -> Policy:
    """``policy``'s views ``names``, in that order."""
    return Policy([policy.view(name) for name in names], name="-".join(names))


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
        """Example 2.1 across a reload: Q1 under v1 justifies Q2 under v2,
        within one request that holds its connection across the swap."""
        app, db = calendar_pair
        connection = gateway.connect(1)
        connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        facts_before = len(connection.trace.facts)
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        assert len(connection.trace.facts) == facts_before
        # The certified Q1 fact, recorded under v1, still justifies Q2 now.
        assert len(connection.query("SELECT * FROM Events WHERE EId = 2")) == 1
        # A fresh session has no such history and stays blocked.
        with pytest.raises(PolicyViolation):
            gateway.connect(1).query("SELECT * FROM Events WHERE EId = 2")

    def test_identity_reload_carries_every_template(self, calendar_pair, gateway):
        app, db = calendar_pair
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        with pytest.raises(PolicyViolation):  # fact-free: a Block template
            gateway.connect(2).query("SELECT * FROM Events WHERE EId = 999")
        old_cache = gateway.shared_cache
        learned = _templates(old_cache)
        assert len(learned) == 2
        report = hot_reload(gateway, app.ground_truth_policy(), version=2)
        assert gateway.shared_cache is not old_cache
        assert _templates(gateway.shared_cache) == learned
        assert (report.templates_carried, report.templates_dropped) == (2, 0)
        assert gateway.snapshot().counters["templates_carried"] == 2
        before = gateway.snapshot().counters
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        with pytest.raises(PolicyViolation):
            gateway.connect(3).query("SELECT * FROM Events WHERE EId = 999")
        after = gateway.snapshot().counters
        # One probe answers both: the Allow, and the Block (compiled_hits).
        assert after["shared_cache_hits"] == before["shared_cache_hits"] + 2
        assert after["compiled_hits"] == before["compiled_hits"] + 1
        assert after["compile_misses"] == before["compile_misses"]

    def test_cache_event_counters_are_cumulative_across_a_reload(
        self, calendar_pair, gateway
    ):
        """The store's and the compiled policy's event counters keep
        counting over the gateway's life, and the sizes carry over with
        the templates an identity reload keeps."""
        app, _ = calendar_pair
        events = (
            "compile_misses", "compiled_hits", "compiled_blocks",
            "shared_cache_hits", "shared_cache_misses", "shared_cache_stores",
            "shared_cache_invalidations", "shared_cache_compiled_hits",
            "shared_cache_blocks_stored",
            "cache_stripe_contention",
            "compiled_view_def_hits", "compiled_view_def_misses",
        )
        sizes = ("shared_cache_size", "compiled_templates")

        def traffic() -> None:
            for uid in (1, 2, 3):
                connection = gateway.connect(uid)
                with pytest.raises(PolicyViolation):  # fact-free: a Block template
                    connection.query("SELECT * FROM Events WHERE EId = 999")
                connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
                connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            gateway.connect(1).sql("UPDATE Attendance SET UId = UId")

        traffic()
        # No write evicts a template; this is what still counts one (the
        # Block, whose guard holds Events), and the next traffic re-learns it.
        assert gateway.shared_cache.invalidate_table("Events") == 1
        traffic()
        before = gateway.snapshot().counters
        assert before["compile_misses"] > 0 and before["shared_cache_hits"] > 0
        assert before["compiled_blocks"] > 0 and before["shared_cache_invalidations"] > 0
        assert before["compiled_view_def_misses"] > 0
        assert before["shared_cache_size"] == 2
        rate_before = gateway.cache_hit_rate()
        hot_reload(gateway, app.ground_truth_policy(), version=2)
        swapped = gateway.snapshot().counters
        assert {name: swapped[name] for name in events + sizes} == {
            name: before[name] for name in events + sizes
        }
        assert gateway.cache_hit_rate() == rate_before
        traffic()
        after = gateway.snapshot().counters
        for name in events:
            assert after[name] >= before[name], name
        # The carried templates answered everything: nothing re-derived.
        assert after["compile_misses"] == before["compile_misses"]
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
        self._run_reload_storm(calendar_pair)

    def test_reload_storm_through_the_compiled_batched_path(self, calendar_pair):
        """The storm's audit holds template hits, Allow or Block, as well
        as misses, and the re-deciding checkers are template-free, so
        agreement also means the store never served a stale epoch's
        template."""
        audits = self._run_reload_storm(calendar_pair)
        assert any(record.from_cache for record in audits)
        assert not all(record.from_cache for record in audits)

    def _run_reload_storm(self, calendar_pair) -> list:
        """Three sessions' traffic across six hot reloads; returns the
        audit, each record already re-decided against its version."""
        app, db = calendar_pair
        truth = app.ground_truth_policy()
        without_v2 = reduced_policy(truth)
        policies = {1: truth}
        gateway = EnforcementGateway(db, truth)
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
        return audits


class TestCompiledEpochIsolation:
    """A swap keeps exactly the templates the new policy still proves."""

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
                gateway.connect(3).query(
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
            rows = gateway.connect(3).query(
                "SELECT Name FROM Users WHERE UId = 3"
            )
            assert rows is not None
        finally:
            gateway.close()

    def test_allow_that_did_not_use_v3_survives_dropping_v3(self, calendar_pair):
        app, db = calendar_pair
        gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
        try:
            connection = gateway.connect(2)
            connection.query("SELECT EId FROM Attendance WHERE UId = 2")  # over V1
            connection.query("SELECT Name FROM Users WHERE UId = 2")  # over V3
            report = hot_reload(
                gateway, reduced_policy(app.ground_truth_policy(), drop="V3"),
                version=2,
            )
            assert (report.templates_carried, report.templates_dropped) == (1, 1)
            full_checks = gateway.snapshot().counters["compile_misses"]
            gateway.connect(3).query("SELECT EId FROM Attendance WHERE UId = 3")
            assert gateway.snapshot().counters["compile_misses"] == full_checks
            with pytest.raises(PolicyViolation):  # no Attendance fact for V4 either
                gateway.connect(4).query("SELECT Name FROM Users WHERE UId = 4")
        finally:
            gateway.close()

    def test_allows_survive_a_widening(self, calendar_pair):
        app, db = calendar_pair
        narrow = reduced_policy(app.ground_truth_policy(), drop="V3")
        gateway = EnforcementGateway(db, narrow, GatewayConfig())
        try:
            gateway.connect(2).query("SELECT EId FROM Attendance WHERE UId = 2")
            with pytest.raises(PolicyViolation):  # fact-free: a Block template
                gateway.connect(4).query("SELECT Name FROM Users WHERE UId = 4")
            allows = {t for t in _templates(gateway.shared_cache) if t[0].allowed}
            assert len(allows) == 1 and gateway.shared_cache.size == 2
            report = hot_reload(gateway, app.ground_truth_policy(), version=2)
            assert (report.templates_carried, report.templates_dropped) == (1, 1)
            assert _templates(gateway.shared_cache) == allows
            full_checks = gateway.snapshot().counters["compile_misses"]
            fresh = gateway.connect(3)
            fresh.query("SELECT EId FROM Attendance WHERE UId = 3")
            assert gateway.snapshot().counters["compile_misses"] == full_checks
            assert len(fresh.query("SELECT Name FROM Users WHERE UId = 3")) == 1
        finally:
            gateway.close()

    def test_block_whose_guard_a_reordered_narrowing_leaves_is_not_carried(
        self, calendar_pair
    ):
        """Under the calendar policy a fresh check of a Users probe consults
        Users and Attendance facts: V3 and V4 reach them, and V2, which
        joins Attendance to Events, comes before V4 adds Attendance. Under
        ``[V4, V2]`` V4 comes first, so the pass reaches Events too: the
        Block's guard no longer covers what a fresh check consults, and the
        Block is not carried. Under ``[V4, V1]`` the guard is closed."""
        app, db = calendar_pair
        truth = app.ground_truth_policy()
        for order, carried in ((("V4", "V2"), 0), (("V4", "V1"), 1)):
            gateway = EnforcementGateway(db, truth, GatewayConfig())
            try:
                with pytest.raises(PolicyViolation):
                    gateway.connect(2).query(
                        "SELECT Name FROM Users WHERE UId = 3"
                    )
                (block,) = gateway.shared_cache.iter_templates()
                assert not block.allowed
                assert block.guard_relations == {"Users", "Attendance"}
                relevant = gateway.epoch.compiled.relevant_relations
                assert relevant({"Users"}) == {"Users", "Attendance"}
                report = hot_reload(gateway, _reordered(truth, *order), version=2)
                assert report.templates_carried == carried, order
                assert gateway.shared_cache.size == carried
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
        # The rolled-back policy decides with the kept trace.
        assert len(connection.query("SELECT * FROM Events WHERE EId = 2")) == 1
        assert gateway.metrics.counter("policy_rollbacks") == 1

    def test_rollback_keeps_the_templates_whose_views_survive(
        self, calendar_pair, gateway
    ):
        """v1 is the calendar policy, v2 drops V2. Rolling v2 back to v1
        widens: the Allows learned under v2 survive, its Blocks do not."""
        app, _ = calendar_pair
        manager = LifecycleManager(gateway)
        manager.reload(reduced_policy(app.ground_truth_policy()))
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        with pytest.raises(PolicyViolation):  # V2 is gone: a Block template
            gateway.connect(3).query("SELECT * FROM Events WHERE EId = 2")
        learned = _templates(gateway.shared_cache)
        allows = {t for t in learned if t[0].allowed}
        assert len(allows) == 1 and len(learned) == 2
        report = manager.rollback()
        assert report.new_version == 1
        assert (report.templates_carried, report.templates_dropped) == (1, 1)
        assert _templates(gateway.shared_cache) == allows

    def test_promote_without_shadow_raises(self, calendar_pair, gateway):
        manager = LifecycleManager(gateway)
        with pytest.raises(LifecycleError):
            manager.promote()
