"""EnforcementGateway: sessions, writes, metrics, and the gateway-mode runner."""

from __future__ import annotations

import random

import pytest

from repro.enforce import (
    DirectConnection,
    EnforcementProxy,
    PolicyViolation,
    ProxyConfig,
    Session,
)
from repro.engine import Connection, Database
from repro.serve import (
    EnforcementGateway,
    GatewayConfig,
    GatewayConnection,
)
from repro.workloads import calendar_app


@pytest.fixture
def calendar_gateway(calendar_db, calendar_policy):
    return EnforcementGateway(
        calendar_db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
    )


class TestConnectionProtocol:
    def test_every_backend_satisfies_the_protocol(self, calendar_db, calendar_policy):
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        backends = [
            calendar_db,
            DirectConnection(calendar_db),
            EnforcementProxy(calendar_db, calendar_policy, Session.for_user(1)),
            gateway.connect(1),
        ]
        for backend in backends:
            assert isinstance(backend, Connection), type(backend)

    def test_closed_gateway_connection_refuses_statements(self, calendar_gateway):
        connection = calendar_gateway.connect(1)
        connection.close()
        with pytest.raises(Exception, match="closed"):
            connection.sql("SELECT EId FROM Attendance WHERE UId = 1")

    def test_database_parse_is_public_and_cached(self):
        db = calendar_app.make_database(size=5, seed=3)
        first = db.parse("SELECT EId FROM Attendance WHERE UId = 1")
        again = db.parse("SELECT EId FROM Attendance WHERE UId = 1")
        assert first is again


class TestSessions:
    def test_connect_normalizes_and_memoizes(self, calendar_gateway):
        by_id = calendar_gateway.connect(1)
        by_mapping = calendar_gateway.connect({"MyUId": 1})
        by_session = calendar_gateway.connect(Session.for_user(1))
        assert by_id is by_mapping is by_session
        assert calendar_gateway.connect(2) is not by_id
        assert calendar_gateway.metrics.counter("sessions_opened") == 2

    def test_fresh_session_has_empty_trace(self, calendar_gateway):
        returning = calendar_gateway.connect(1)
        returning.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert len(returning.trace) == 1
        fresh = calendar_gateway.connect(1, fresh=True)
        assert len(fresh.trace) == 0
        assert fresh is not returning

    def test_closing_a_session_frees_its_principal(self, calendar_gateway):
        """A closed session leaves the table; the principal's next connect
        is a new session that re-derives its history, never inherits it."""
        first = calendar_gateway.connect(1)
        first.query("SELECT EId FROM Attendance WHERE UId = 1")
        first.close()
        assert calendar_gateway.connections() == []
        again = calendar_gateway.connect(1)
        assert again is not first
        assert len(again.trace) == 0
        assert len(again.query("SELECT EId FROM Attendance WHERE UId = 1")) > 0
        # A fresh=True session was never stored: closing it leaves the
        # stored one in place.
        calendar_gateway.connect(1, fresh=True).close()
        assert calendar_gateway.connect(1) is again
        other = calendar_gateway.connect(2)
        calendar_gateway.close()
        assert calendar_gateway.connections() == []
        with pytest.raises(Exception, match="closed"):
            other.sql("SELECT EId FROM Attendance WHERE UId = 2")

    def test_example_2_1_triple_through_the_gateway(self, calendar_policy):
        """Q1 allowed; Q2 allowed with history, blocked in a fresh session."""
        db = calendar_app.make_database(size=10, seed=3)
        if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
            db.sql("INSERT INTO Attendance VALUES (1, 2)")
        gateway = EnforcementGateway(
            db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
        )
        connection = gateway.connect(1)
        q1 = connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        assert not q1.is_empty()
        q2 = connection.query("SELECT * FROM Events WHERE EId = 2")
        assert not q2.is_empty()
        with pytest.raises(PolicyViolation):
            gateway.connect(1, fresh=True).query("SELECT * FROM Events WHERE EId = 2")
        assert gateway.metrics.counter("cache_disagreements") == 0


class TestSharedCacheThroughGateway:
    def test_one_users_decision_amortizes_for_others(self, calendar_gateway):
        calendar_gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        assert calendar_gateway.shared_cache.hits == 0
        calendar_gateway.connect(2).query("SELECT EId FROM Attendance WHERE UId = 2")
        assert calendar_gateway.shared_cache.hits == 1
        assert calendar_gateway.metrics.counter("cache_disagreements") == 0

    def test_history_dependent_hit_requires_own_history(self, calendar_policy):
        db = calendar_app.make_database(size=10, seed=3)
        for uid, eid in ((1, 2), (4, 2)):
            if db.query(
                "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
            ).is_empty():
                db.sql("INSERT INTO Attendance VALUES (?, ?)", [uid, eid])
        gateway = EnforcementGateway(
            db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
        )
        first = gateway.connect(1)
        first.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        first.query("SELECT * FROM Events WHERE EId = 2")  # stores the template
        # User 4 has not run the guard: the shared template must not fire.
        with pytest.raises(PolicyViolation):
            gateway.connect(4).query("SELECT * FROM Events WHERE EId = 2")
        # After the guard, the shared template serves user 4 from cache.
        other = gateway.connect(4)
        other.query("SELECT 1 FROM Attendance WHERE UId = 4 AND EId = 2")
        before = gateway.shared_cache.hits
        other.query("SELECT * FROM Events WHERE EId = 2")
        assert gateway.shared_cache.hits == before + 1
        assert gateway.metrics.counter("cache_disagreements") == 0


class TestWritesThroughGateway:
    def test_write_keeps_templates_and_retires_facts(self, calendar_gateway):
        """A write evicts no template; each session's next statement
        retires the facts that stood for the rows the write removed."""
        gateway = calendar_gateway
        sql = "SELECT EId FROM Attendance WHERE UId = ?"
        mine, theirs = gateway.connect(1), gateway.connect(2)
        assert len(mine.query(sql, [1])) > 0 and len(theirs.query(sql, [2])) > 0
        kept, doomed = len(mine.trace.facts), len(theirs.trace.facts)
        assert gateway.shared_cache.size == 1
        gateway.connect(3).sql("DELETE FROM Attendance WHERE UId = 2")
        assert gateway.metrics.counter("writes") == 1
        assert gateway.shared_cache.size == 1
        hits = gateway.metrics.counter("cache_hits")
        assert len(mine.query(sql, [1])) == kept
        assert theirs.query(sql, [2]).is_empty()
        assert gateway.metrics.counter("cache_hits") == hits + 2
        assert len(mine.trace.facts) == kept and len(theirs.trace.facts) == 0
        assert gateway.snapshot().counters["facts_retired"] == doomed
        assert gateway.metrics.counter("cache_disagreements") == 0

    def test_write_to_unrelated_table_keeps_templates(self, calendar_gateway):
        calendar_gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        calendar_gateway.connect(1).sql("UPDATE Users SET Name = Name")
        assert calendar_gateway.shared_cache.size == 1


class TestOneStore:
    """One store per epoch, written once per miss — by the compiling
    checker, or by the miss hook when there is none."""

    @staticmethod
    def replay(config: GatewayConfig) -> tuple[EnforcementGateway, list[bool]]:
        """The statement-path stream (blocked, history-gated and allowed
        statements over six sessions); returns the allow/block sequence."""
        from tests.net.test_statement_path import make_stream

        app = calendar_app.make_app()
        gateway = EnforcementGateway(
            app.make_database(12, 3), app.ground_truth_policy(), config
        )
        verdicts = []
        for script in make_stream(gateway.db):
            connection = gateway.connect(script[1][1][0], fresh=True)
            for sql, args in script:
                try:
                    connection.query(sql, args)
                    verdicts.append(True)
                except PolicyViolation:
                    verdicts.append(False)
        return gateway, verdicts

    def test_default_gateway_generalizes_each_miss_once(self):
        gateway, verdicts = self.replay(GatewayConfig())
        counters = gateway.snapshot().counters
        assert len(verdicts) >= 40 and True in verdicts and False in verdicts
        assert counters["cache_misses"] > 0 and counters["cache_hits"] > 0
        assert counters["shared_cache_duplicates_skipped"] == 0
        live = len(list(gateway.shared_cache.iter_templates()))
        assert counters["shared_cache_stores"] == counters["shared_cache_size"] == live

    def test_every_configuration_decides_alike_and_stores_once(self):
        _, expected = self.replay(GatewayConfig())
        for config in (
            GatewayConfig(compile_checks=False),
            GatewayConfig(cache_mode="none"),
        ):
            gateway, verdicts = self.replay(config)
            assert verdicts == expected, config
            (store,) = gateway.epoch.caches()
            assert store.duplicates_skipped == 0, config
            assert store.stores == store.size > 0, config

    def test_no_store_without_cache_or_compilation(self, calendar_db, calendar_policy):
        gateway = EnforcementGateway(
            calendar_db,
            calendar_policy,
            GatewayConfig(cache_mode="none", compile_checks=False),
        )
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        gateway.connect(1).sql("UPDATE Attendance SET UId = UId")
        assert gateway.epoch.caches() == [] and gateway.shared_cache is None
        assert gateway.cache_hit_rate() == 0.0
        assert gateway.metrics.counter("uncached_checks") == 1

    def test_per_session_cache_mode_is_gone(self):
        with pytest.raises(ValueError, match="per-session"):
            GatewayConfig(cache_mode="per-session")


class TestDriver:
    def test_runner_gateway_mode(self, calendar_policy):
        from repro.workloads.runner import AppRunner

        app = calendar_app.make_app()
        db = app.make_database(10, 3)
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        requests = app.request_stream(db, random.Random(4), 30)
        outcomes = runner.run_all(requests)
        assert len(outcomes) == 30
        assert gateway.metrics.counter("sessions_opened") > 0


class TestProxyConfigCompat:
    def test_config_object_is_the_only_construction_path(
        self, calendar_db, calendar_policy
    ):
        configured = EnforcementProxy(
            calendar_db,
            calendar_policy,
            Session.for_user(1),
            ProxyConfig(history_enabled=False, record_decisions=True),
        )
        assert not configured.checker.history_enabled
        assert configured.config.record_decisions is True
        assert configured.config.cache is None

    def test_decision_log_is_a_capped_ring_buffer(self, calendar_db, calendar_policy):
        proxy = EnforcementProxy(
            calendar_db,
            calendar_policy,
            Session.for_user(1),
            ProxyConfig(record_decisions=True, decision_log_cap=5),
        )
        for _ in range(12):
            proxy.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert len(proxy.stats.decisions) == 5
        assert proxy.stats.allowed == 12
        newest = proxy.stats.decisions[-1]
        assert newest.allowed

    def test_ring_overflow_counts_as_audit_dropped(
        self, calendar_db, calendar_policy
    ):
        """Clipping the decision log is never silent: the evictions show
        up per-proxy and in the gateway-wide snapshot counter."""
        proxy = EnforcementProxy(
            calendar_db,
            calendar_policy,
            Session.for_user(1),
            ProxyConfig(record_decisions=True, decision_log_cap=5),
        )
        for _ in range(12):
            proxy.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert proxy.stats.audit_dropped == 7

        gateway = EnforcementGateway(
            calendar_db,
            calendar_policy,
            GatewayConfig(record_decisions=True, decision_log_cap=3),
        )
        try:
            connection = gateway.connect(1)
            for eid in range(1, 11):
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            assert gateway.snapshot().counters["audit_dropped"] == 7
        finally:
            gateway.close()


class TestCompiledGateway:
    """GatewayConfig.compile_checks / batch_checks wiring and counters."""

    def test_snapshot_exposes_compiled_and_batch_counters(
        self, calendar_db, calendar_policy
    ):
        gateway = EnforcementGateway(
            calendar_db, calendar_policy, GatewayConfig(cache_mode="none")
        )
        try:
            connection = gateway.connect(1)
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")
            counters = gateway.snapshot().counters
            assert counters["compiled_hits"] >= 1
            assert counters["compile_misses"] >= 1
            assert counters["compiled_templates"] >= 1
            assert counters["compiled_views"] >= 1
            assert counters["batch_checks"] >= 2
            assert counters["batch_size_1"] >= 2
        finally:
            gateway.close()

    def test_compile_checks_off_reverts_to_the_generic_path(
        self, calendar_db, calendar_policy
    ):
        gateway = EnforcementGateway(
            calendar_db,
            calendar_policy,
            GatewayConfig(cache_mode="none", compile_checks=False, batch_checks=False),
        )
        try:
            connection = gateway.connect(1)
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")
            counters = gateway.snapshot().counters
            assert "compiled_hits" not in counters
            assert "batch_checks" not in counters
        finally:
            gateway.close()

    def test_verification_stays_independent_of_templates(
        self, calendar_db, calendar_policy
    ):
        # verify_cached_decisions re-checks cache hits with
        # allow_compiled=False: the verifying decision must come from the
        # full path, so template counters stay untouched by verification.
        gateway = EnforcementGateway(
            calendar_db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
        )
        try:
            connection = gateway.connect(1)
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")
            hits_after_miss = gateway.snapshot().counters["compiled_hits"]
            connection.query("SELECT EId FROM Attendance WHERE UId = 1")  # cache hit
            counters = gateway.snapshot().counters
            assert counters["compiled_hits"] == hits_after_miss
            assert gateway.metrics.counter("cache_disagreements") == 0
        finally:
            gateway.close()

    def test_compiled_templates_agree_with_cache_templates(
        self, calendar_db, calendar_policy
    ):
        # Same statement through a cache-off compiled gateway and a
        # cache-on uncompiled gateway: identical verdicts either way.
        compiled = EnforcementGateway(
            calendar_db, calendar_policy, GatewayConfig(cache_mode="none")
        )
        generic = EnforcementGateway(
            calendar_db, calendar_policy, GatewayConfig(compile_checks=False)
        )
        try:
            for gateway in (compiled, generic):
                connection = gateway.connect(1)
                assert connection.query("SELECT EId FROM Attendance WHERE UId = 1") is not None
                with pytest.raises(PolicyViolation):
                    connection.query("SELECT * FROM Events WHERE EId = 99")
                with pytest.raises(PolicyViolation):
                    connection.query("SELECT * FROM Events WHERE EId = 99")
        finally:
            compiled.close()
            generic.close()
