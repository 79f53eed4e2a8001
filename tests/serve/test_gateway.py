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
from repro.enforce.cache import DecisionCache
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
    """One store per epoch, probed once per statement and written once
    per miss, by the epoch's checker."""

    @staticmethod
    def replay(config: GatewayConfig | None) -> tuple[EnforcementGateway, list[bool]]:
        """The statement-path stream (blocked, history-gated and allowed
        statements over six sessions); returns the allow/block sequence.
        ``config=None`` replays it through bare proxies (no cache, an
        uncompiled checker): the reference."""
        from tests.net.test_statement_path import make_stream

        app = calendar_app.make_app()
        gateway = EnforcementGateway(
            app.make_database(12, 3), app.ground_truth_policy(), config
        )
        verdicts = []
        for script in make_stream(gateway.db):
            user = script[1][1][0]
            connection = (
                gateway.connect(user, fresh=True)
                if config is not None
                else EnforcementProxy(gateway.db, gateway.policy, Session.for_user(user))
            )
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
        _, expected = self.replay(None)
        for config in (GatewayConfig(), GatewayConfig(verify_cached_decisions=True)):
            gateway, verdicts = self.replay(config)
            assert verdicts == expected, config
            (store,) = gateway.epoch.caches()
            assert store.duplicates_skipped == 0, config
            assert store.stores == store.size > 0, config
            assert gateway.metrics.counter("cache_disagreements") == 0

    def test_per_session_cache_mode_is_gone(self):
        """So is every other way to wire the store: an epoch always
        compiles, owns one store its sessions probe, and batches."""
        for knob in ("cache_mode", "compile_checks", "batch_checks", "check_timeout_s"):
            with pytest.raises(TypeError, match=knob):
                GatewayConfig(**{knob: None})


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


    def test_audit_dropped_counts_fresh_sessions_and_never_runs_backwards(
        self, calendar_db, calendar_policy
    ):
        """A drop is counted when the ring evicts: a ``fresh=True``
        session's drops show, and a closed session's stay."""
        gateway = EnforcementGateway(
            calendar_db,
            calendar_policy,
            GatewayConfig(record_decisions=True, decision_log_cap=2),
        )
        statement = "SELECT EId FROM Attendance WHERE UId = 1"
        try:
            fresh = gateway.connect(1, fresh=True)
            for _ in range(5):
                fresh.query(statement)
            assert fresh.stats.audit_dropped == 3
            assert gateway.snapshot().counters["audit_dropped"] == 3
            stored = gateway.connect(1)
            for _ in range(5):
                stored.query(statement)
            assert gateway.snapshot().counters["audit_dropped"] == 6
            stored.close()
            assert gateway.snapshot().counters["audit_dropped"] == 6
        finally:
            gateway.close()


class TestCompiledGateway:
    """The epoch's compiled store and batcher: wiring and counters."""

    ALLOWED = "SELECT EId FROM Attendance WHERE UId = 1"
    BLOCKED = "SELECT * FROM Events WHERE EId = 99"

    def test_snapshot_exposes_compiled_and_batch_counters(
        self, calendar_db, calendar_policy
    ):
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        try:
            # Blocks first: a certified Attendance fact would leave the
            # Block's guard.
            connection = gateway.connect(1, fresh=True)
            for sql in (self.BLOCKED, self.BLOCKED):
                with pytest.raises(PolicyViolation):
                    connection.query(sql)
            connection.query(self.ALLOWED)
            connection.query(self.ALLOWED)
            counters = gateway.snapshot().counters
            assert counters["compiled_hits"] == 1  # the repeated Block
            assert counters["compile_misses"] == counters["shared_cache_misses"] == 2
            assert counters["shared_cache_hits"] == counters["cache_hits"] == 2
            assert counters["compiled_templates"] == 2
            assert counters["compiled_blocks"] == 1
            assert counters["compiled_views"] >= 1
            assert counters["batch_checks"] == counters["batch_size_1"] == 2
            for gone in ("uncached_checks", "shared_cache_compiled_misses"):
                assert gone not in counters
        finally:
            gateway.close()

    def test_verification_stays_independent_of_templates(
        self, calendar_db, calendar_policy
    ):
        # verify_cached_decisions re-checks cache hits, Allows and Blocks,
        # with allow_compiled=False: the verifying decision comes from the
        # full path and learns nothing, so the store is untouched by it.
        gateway = EnforcementGateway(
            calendar_db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
        )
        try:
            learner, connection = gateway.connect(1, fresh=True), gateway.connect(1)
            with pytest.raises(PolicyViolation):
                learner.query(self.BLOCKED)
            learner.query(self.ALLOWED)
            store = gateway.shared_cache
            learned = store.stats()
            with pytest.raises(PolicyViolation) as blocked:
                connection.query(self.BLOCKED)  # a Block hit
            assert blocked.value.decision.from_cache
            connection.query(self.ALLOWED)  # an Allow hit
            counters = gateway.metrics.counter
            assert counters("cache_verified") == 2
            assert counters("cache_disagreements") == 0
            after = store.stats()
            assert (after["stores"], after["duplicates_skipped"]) == (
                learned["stores"], learned["duplicates_skipped"]
            )
            assert after["hits"] == learned["hits"] + 2
            assert after["compiled_hits"] == learned["compiled_hits"] + 1
        finally:
            gateway.close()

    def test_compiled_templates_agree_with_cache_templates(
        self, calendar_db, calendar_policy
    ):
        # The same statements through the gateway's compiled store and a
        # bare proxy's own cache of Allows: identical verdicts.
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        proxy = EnforcementProxy(
            calendar_db,
            calendar_policy,
            Session.for_user(1),
            ProxyConfig(cache=DecisionCache(calendar_policy)),
        )
        try:
            for connection in (gateway.connect(1), proxy):
                for _ in range(2):
                    with pytest.raises(PolicyViolation):
                        connection.query(self.BLOCKED)
                for _ in range(2):
                    assert connection.query(self.ALLOWED) is not None
            assert proxy.stats.cache_hits == 1  # a bare proxy stores no Block
            assert gateway.connect(1).stats.cache_hits == 2
        finally:
            gateway.close()
