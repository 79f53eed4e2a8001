"""Enforcement-proxy tests: the application-facing behavior of a session."""

import sys
import threading

import pytest

from repro.enforce import EnforcementProxy, PolicyViolation
from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.relalg.compile import compile_policy
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters


@pytest.fixture
def gateway(calendar_db, calendar_policy):
    return EnforcementGateway(calendar_db, calendar_policy)


@pytest.fixture
def proxy(gateway):
    return gateway.connect(1)


def attending_pair(calendar_db):
    row = calendar_db.query("SELECT UId, EId FROM Attendance").first()
    return row


class TestFlow:
    def test_example_2_1_flow(self, calendar_db, gateway):
        uid, eid = attending_pair(calendar_db)
        proxy = gateway.connect(uid)
        assert type(proxy) is EnforcementProxy
        check = proxy.query(
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
        )
        assert not check.is_empty()
        detail = proxy.query("SELECT * FROM Events WHERE EId = ?", [eid])
        assert len(detail) == 1
        counter = gateway.metrics.counter
        assert (counter("decisions_allowed"), counter("decisions_blocked")) == (2, 0)

    def test_block_raises_with_decision(self, proxy, gateway):
        with pytest.raises(PolicyViolation) as err:
            proxy.query("SELECT * FROM Events")
        assert not err.value.decision.allowed
        assert gateway.metrics.counter("decisions_blocked") == 1

    def test_never_modifies_queries(self, calendar_db, gateway):
        # First trait of §2.2: executed as-is — results match a direct run.
        uid, eid = attending_pair(calendar_db)
        proxy = gateway.connect(uid)
        direct = calendar_db.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
        proxied = proxy.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
        assert proxied.rows == direct.rows

    def test_writes_pass_through(self, proxy, calendar_db):
        before = calendar_db.row_count("Events")
        proxy.sql("INSERT INTO Events VALUES (999, 'new', 900, 'room1')")
        assert calendar_db.row_count("Events") == before + 1

    def test_trace_accumulates(self, calendar_db, gateway):
        uid, eid = attending_pair(calendar_db)
        proxy = gateway.connect(uid)
        proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
        assert len(proxy.trace) == 1
        assert proxy.trace.facts

    def test_session_isolation(self, calendar_db, gateway):
        uid, eid = attending_pair(calendar_db)
        mine = gateway.connect(uid)
        other_uid = uid + 1
        other = gateway.connect(other_uid)
        mine.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
        # The other session has no history; the detail fetch must block
        # unless that user also attends the event.
        attends = not calendar_db.query(
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [other_uid, eid]
        ).is_empty()
        if not attends:
            with pytest.raises(PolicyViolation):
                other.query("SELECT * FROM Events WHERE EId = ?", [eid])


class TestCacheIntegration:
    def test_cache_hit_on_repeat(self, calendar_db, gateway):
        uid, eid = attending_pair(calendar_db)
        proxy = gateway.connect(uid)
        proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
        proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
        assert gateway.metrics.counter("cache_hits") == 1

    def test_cache_shared_across_sessions(self, calendar_db, gateway):
        pairs = calendar_db.query("SELECT UId, EId FROM Attendance").rows[:2]
        for uid, eid in pairs:
            gateway.connect(uid).query(
                "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
            )
        assert gateway.shared_cache.hits >= 1

    def test_one_cache_on_two_threads_loses_no_update(
        self, calendar_db, calendar_policy
    ):
        """Two threads probing one ``DecisionCache`` and learning their
        misses into it through one checker — no gateway lock or batcher to
        serialise them: every lookup is counted exactly once and every
        miss is stored (or found stored) once."""
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(
            calendar_db.schema,
            calendar_policy,
            compiled=compile_policy(calendar_db.schema, calendar_policy),
            skeletons=cache,
        )
        statement = calendar_db.parse("SELECT EId FROM Attendance WHERE UId = ?")
        rounds = 300
        errors: list[BaseException] = []

        def session(uid: int) -> None:
            try:
                bindings = {"MyUId": uid}
                bound = bind_parameters(statement, [uid], None)
                for round_no in range(rounds):
                    if cache.lookup(bound, bindings, None) is None:
                        checker.check(bound, bindings, None)
                    if round_no % 50 == 49:
                        cache.invalidate_table("Attendance")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside the critical sections
        try:
            threads = [threading.Thread(target=session, args=(uid,)) for uid in (1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert cache.hits + cache.misses == 2 * rounds
        assert cache.stores + cache.duplicates_skipped == cache.misses
        assert cache.size == len(list(cache.iter_templates())) <= 1
