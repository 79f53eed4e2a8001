"""EnforcementGateway: sessions, writes, metrics, and the gateway-mode runner."""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from repro.enforce import DirectConnection, EnforcementProxy, PolicyViolation, Session
from repro.enforce.checker import ComplianceChecker
from repro.engine import Connection
from repro.relalg import memo
from repro.serve import EnforcementGateway, GatewayConfig
from repro.util.errors import DbacError
from repro.workloads import calendar_app
from repro.workloads.runner import AppRunner
from tests.conftest import audit_decisions, reference_verdicts, reverify_audit


@pytest.fixture
def calendar_gateway(calendar_db, calendar_policy):
    """A gateway whose every decision, hit or miss, a template-free
    checker re-decides when the test ends."""
    gateway = EnforcementGateway(calendar_db, calendar_policy)
    records = audit_decisions(gateway)
    yield gateway
    assert reverify_audit(records, {1: calendar_policy}, calendar_db) == []


class TestConnectionProtocol:
    def test_every_backend_satisfies_the_protocol(self, calendar_db, calendar_policy):
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        backends = [calendar_db, DirectConnection(calendar_db), gateway.connect(1)]
        for backend in backends:
            assert isinstance(backend, Connection), type(backend)
        assert type(backends[-1]) is EnforcementProxy  # the one session class

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
    def test_connect_normalizes_and_opens_a_new_session(self, calendar_gateway):
        by_id = calendar_gateway.connect(1)
        by_mapping = calendar_gateway.connect({"MyUId": 1})
        by_session = calendar_gateway.connect(Session.for_user(1))
        assert by_id.session.bindings == by_mapping.session.bindings == {"MyUId": 1}
        assert by_session.session.bindings == {"MyUId": 1}
        assert len({id(by_id), id(by_mapping), id(by_session)}) == 3
        assert calendar_gateway.metrics.counter("sessions_opened") == 3

    def test_a_binding_that_is_not_a_scalar_is_refused(self, calendar_gateway):
        """Bindings are JSON scalars: anything else is refused at connect,
        before it can reach a check or a template key."""
        for session in ({"MyUId": [1]}, {"MyUId": {1}}, [1], Session({"MyUId": (1,)})):
            with pytest.raises(DbacError, match="MyUId"):
                calendar_gateway.connect(session)
        assert calendar_gateway.metrics.counter("sessions_opened") == 0
        for value in (None, True, 1, 1.5, "1"):
            try:  # decided, whichever way
                calendar_gateway.connect({"MyUId": value}).query(
                    "SELECT EId FROM Attendance WHERE UId = 1"
                )
            except PolicyViolation:
                pass
        assert calendar_gateway.metrics.counter("sessions_opened") == 5

    def test_fresh_session_has_empty_trace(self, calendar_gateway):
        returning = calendar_gateway.connect(1)
        returning.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert len(returning.trace) == 1
        fresh = calendar_gateway.connect(1, fresh=True)
        assert len(fresh.trace) == 0
        assert fresh is not returning

    def test_closing_a_session_frees_its_principal(self, calendar_gateway):
        """Closing a session refuses its further statements; the
        principal's next connect is a new session that re-derives its
        history, never inherits it."""
        first = calendar_gateway.connect(1)
        first.query("SELECT EId FROM Attendance WHERE UId = 1")
        first.close()
        with pytest.raises(Exception, match="closed"):
            first.sql("SELECT EId FROM Attendance WHERE UId = 1")
        again = calendar_gateway.connect(1)
        assert again is not first
        assert len(again.trace) == 0
        assert len(again.query("SELECT EId FROM Attendance WHERE UId = 1")) > 0
        assert len(again.trace) == 1

    def test_nothing_outlives_its_request(self, calendar_db, calendar_policy):
        """The gateway keeps no session: once a request drops its
        connection, the connection and its trace are garbage."""
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        statement = "SELECT EId FROM Attendance WHERE UId = ?"
        sessions = []
        for uid in range(1000):
            connection = gateway.connect(uid)
            connection.query(statement, [uid])
            sessions.append(weakref.ref(connection))
        del connection
        gc.collect()
        assert [ref for ref in sessions if ref() is not None] == []
        assert gateway.metrics.counter("sessions_opened") == 1000

    def test_example_2_1_triple_through_the_gateway(self, calendar_policy):
        """Q1 allowed; Q2 allowed with history, blocked in a fresh session."""
        db = calendar_app.make_database(size=10, seed=3)
        if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
            db.sql("INSERT INTO Attendance VALUES (1, 2)")
        gateway = EnforcementGateway(db, calendar_policy)
        records = audit_decisions(gateway)
        connection = gateway.connect(1)
        q1 = connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
        assert not q1.is_empty()
        q2 = connection.query("SELECT * FROM Events WHERE EId = 2")
        assert not q2.is_empty()
        with pytest.raises(PolicyViolation):
            gateway.connect(1).query("SELECT * FROM Events WHERE EId = 2")
        assert reverify_audit(records, {1: calendar_policy}, db) == []


class TestSharedCacheThroughGateway:
    def test_one_users_decision_amortizes_for_others(self, calendar_gateway):
        calendar_gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        assert calendar_gateway.shared_cache.hits == 0
        calendar_gateway.connect(2).query("SELECT EId FROM Attendance WHERE UId = 2")
        assert calendar_gateway.shared_cache.hits == 1

    def test_history_dependent_hit_requires_own_history(self, calendar_policy):
        db = calendar_app.make_database(size=10, seed=3)
        for uid, eid in ((1, 2), (4, 2)):
            if db.query(
                "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
            ).is_empty():
                db.sql("INSERT INTO Attendance VALUES (?, ?)", [uid, eid])
        gateway = EnforcementGateway(db, calendar_policy)
        records = audit_decisions(gateway)
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
        assert reverify_audit(records, {1: calendar_policy}, db) == []


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

    def test_write_to_unrelated_table_keeps_templates(self, calendar_gateway):
        calendar_gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        calendar_gateway.connect(1).sql("UPDATE Users SET Name = Name")
        assert calendar_gateway.shared_cache.size == 1


class TestOneStore:
    """One store per epoch, probed once per statement and written once
    per miss, by the epoch's checker."""

    @staticmethod
    def streams():
        """The statement-path stream (blocked, history-gated and allowed
        statements over six sessions) on a fresh database, and its policy."""
        from tests.net.test_statement_path import make_stream

        app = calendar_app.make_app()
        db = app.make_database(12, 3)
        scripts = [({"MyUId": script[1][1][0]}, script) for script in make_stream(db)]
        return db, app.ground_truth_policy(), scripts

    @classmethod
    def replay(cls) -> tuple[EnforcementGateway, list[bool]]:
        """The stream through a default gateway; returns the allow/block
        sequence."""
        db, policy, scripts = cls.streams()
        gateway = EnforcementGateway(db, policy)
        verdicts = []
        for bindings, script in scripts:
            connection = gateway.connect(bindings)
            for sql, args in script:
                try:
                    connection.query(sql, args)
                    verdicts.append(True)
                except PolicyViolation:
                    verdicts.append(False)
        return gateway, verdicts

    def test_default_gateway_generalizes_each_miss_once(self):
        gateway, verdicts = self.replay()
        counters = gateway.snapshot().counters
        assert len(verdicts) >= 40 and True in verdicts and False in verdicts
        assert counters["cache_misses"] > 0 and counters["cache_hits"] > 0
        assert counters["shared_cache_duplicates_skipped"] == 0
        live = len(list(gateway.shared_cache.iter_templates()))
        assert counters["shared_cache_stores"] == counters["shared_cache_size"] == live

    def test_every_configuration_decides_alike_and_stores_once(self):
        """The one configuration there is decides as the reference does,
        statement by statement, and its store holds each template once."""
        expected = reference_verdicts(*self.streams())
        gateway, verdicts = self.replay()
        assert verdicts == expected
        (store,) = gateway.epoch.caches()
        assert store.duplicates_skipped == 0
        assert store.stores == store.size > 0

    def test_per_session_cache_mode_is_gone(self):
        """So is every other way to wire the store: an epoch always
        compiles, owns one store its sessions probe, and batches; and no
        switch re-checks its hits (the audit hook is how a test does)."""
        for knob in (
            "cache_mode",
            "compile_checks",
            "batch_checks",
            "check_timeout_s",
            "verify_cached_decisions",
        ):
            with pytest.raises(TypeError, match=knob):
                GatewayConfig(**{knob: None})


class TestReverifyAudit:
    """The oracle the audited tests lean on sees a wrong verdict, on a
    hit as on a miss, so their empty result is not vacuous."""

    FETCH_ALL = "SELECT * FROM Events"

    def test_a_doctored_allow_is_returned(self, calendar_db, calendar_policy):
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        records = audit_decisions(gateway)
        for _ in range(2):  # a miss, then the same Block from the store
            with pytest.raises(PolicyViolation):
                gateway.connect(1).query(self.FETCH_ALL)
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
        miss, hit, allowed = records
        assert (miss.from_cache, hit.from_cache) == (False, True)
        assert not miss.allowed and not hit.allowed and allowed.allowed
        versions = {1: calendar_policy}
        assert reverify_audit(records, versions, calendar_db) == []
        doctored = [dataclasses.replace(record, allowed=True) for record in (miss, hit)]
        assert reverify_audit([*doctored, allowed], versions, calendar_db) == doctored
        flipped = dataclasses.replace(allowed, allowed=False)
        assert reverify_audit([miss, flipped], versions, calendar_db) == [flipped]


class TestDriver:
    def test_runner_gateway_mode(self, calendar_policy):
        app = calendar_app.make_app()
        db = app.make_database(10, 3)
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        requests = app.request_stream(db, random.Random(4), 30)
        outcomes = runner.run_all(requests)
        assert len(outcomes) == 30
        assert gateway.metrics.counter("sessions_opened") > 0


class TestSessionSurface:
    def test_connect_is_the_only_construction_path(self, calendar_db, calendar_policy):
        """A session has nothing to configure: no history switch, no cache
        of its own, no decision log — on the gateway or the checker."""
        for gone in ("history_enabled", "record_decisions", "decision_log_cap"):
            with pytest.raises(TypeError, match=gone):
                GatewayConfig(**{gone: None})
        with pytest.raises(TypeError, match="history_enabled"):
            ComplianceChecker(calendar_db.schema, calendar_policy, history_enabled=False)
        connection = EnforcementGateway(calendar_db, calendar_policy).connect(1)
        for gone in ("config", "stats", "checker", "policy"):
            assert not hasattr(connection, gone), gone

    def test_audit_dropped_counts_fresh_sessions_and_never_runs_backwards(
        self, calendar_db, calendar_policy
    ):
        """``audit_dropped`` is always present, and counts the audit
        stream's drops from every session, closed ones included."""
        from repro.mining import AuditStream

        gateway = EnforcementGateway(calendar_db, calendar_policy)
        statement = "SELECT EId FROM Attendance WHERE UId = 1"
        try:
            assert gateway.snapshot().counters["audit_dropped"] == 0
            stream = AuditStream()
            gateway.decision_audit = stream
            stream.subscribe(cap=2)
            dropped = []
            for _ in range(2):
                session = gateway.connect(1)
                for _ in range(3):
                    session.query(statement)
                session.close()
                dropped.append(gateway.snapshot().counters["audit_dropped"])
            assert dropped == [1, 4]
        finally:
            gateway.close()

    def test_last_decision_is_the_last_outcome(self, calendar_db, calendar_policy):
        proxy = EnforcementGateway(calendar_db, calendar_policy).connect(1)
        assert proxy.last_decision is None
        proxy.query("SELECT EId FROM Attendance WHERE UId = 1")
        assert proxy.last_decision.allowed
        with pytest.raises(PolicyViolation) as blocked:
            proxy.query("SELECT * FROM Events WHERE EId = 99")
        assert proxy.last_decision is blocked.value.decision


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
            connection = gateway.connect(1)
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

    def test_snapshot_carries_only_the_containment_memo_counters(
        self, calendar_db, calendar_policy
    ):
        memo.reset_memo_stats()
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        try:
            gateway.connect(1).query(self.ALLOWED)  # one full check
            counters = gateway.snapshot().counters
            assert counters["memo_containment_hits"] + counters[
                "memo_containment_misses"
            ] > 0
            # The containment memo is the rewriting core's only memo.
            assert sorted(name for name in counters if name.startswith("memo_")) == [
                f"memo_containment_{counter}"
                for counter in ("evictions", "hits", "misses", "size")
            ]
        finally:
            gateway.close()

    def test_verification_stays_independent_of_templates(
        self, calendar_db, calendar_policy
    ):
        # The audit replay re-decides hits, Allows and Blocks, with a
        # template-free checker of its own: it reads nothing from the
        # store it audits and learns nothing into it.
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        records = audit_decisions(gateway)
        try:
            learner, connection = gateway.connect(1), gateway.connect(1)
            with pytest.raises(PolicyViolation):
                learner.query(self.BLOCKED)
            learner.query(self.ALLOWED)
            store = gateway.shared_cache
            learned = store.stats()
            with pytest.raises(PolicyViolation) as blocked:
                connection.query(self.BLOCKED)  # a Block hit
            assert blocked.value.decision.from_cache
            connection.query(self.ALLOWED)  # an Allow hit
            served = store.stats()
            assert [record.from_cache for record in records] == [False, False, True, True]
            assert reverify_audit(records, {1: calendar_policy}, calendar_db) == []
            after = store.stats()
            assert after == served
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
        """The one miss rule: the epoch's checker learns every miss, Allow
        and Block, so each repeat is a hit — and the store's answers
        agree with the bare checker's."""
        statements = [(self.BLOCKED, []), (self.BLOCKED, [])]
        statements += [(self.ALLOWED, []), (self.ALLOWED, [])]
        expected = reference_verdicts(
            calendar_app.make_database(size=10, seed=3),
            calendar_policy,
            [({"MyUId": 1}, statements)],
        )
        assert expected == [False, False, True, True]
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        try:
            session = gateway.connect(1)
            verdicts = []
            for sql, args in statements:
                try:
                    session.query(sql, args)
                    verdicts.append(True)
                except PolicyViolation:
                    verdicts.append(False)
            assert verdicts == expected
            counters = gateway.snapshot().counters
            assert (counters["cache_hits"], counters["cache_misses"]) == (2, 2)
            assert counters["compiled_blocks"] == 1
        finally:
            gateway.close()
