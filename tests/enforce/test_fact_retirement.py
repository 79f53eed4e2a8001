"""A write retires the certified facts it falsifies — and a SELECT that a
write overtook is decided again.

``Trace.retire`` is the matching rule (a labeled null matches anything,
``1`` matches ``True``); the proxy tests inject a write between
``decide`` and ``execute_bound``, the window a lock-free read leaves
open, and check both ways out of it: a re-decision that blocks, or a
result whose decision rested on no retired fact. Reads run *inside* a
write too — after it logged its rows, before and after a row changes —
and the gateway must count and audit a retried statement once.
"""

from __future__ import annotations

import pytest

from repro.enforce import EnforcementProxy, PolicyViolation, Session
from repro.enforce.proxy import STATEMENT_ATTEMPTS
from repro.enforce.trace import Trace
from repro.relalg.cq import Atom, Const, Var
from repro.serve import EnforcementGateway
from repro.workloads import calendar_app

Q1 = "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
Q2 = "SELECT Title FROM Events WHERE EId = ?"
MINE = "SELECT EId FROM Attendance WHERE UId = ?"


def attendance(*args) -> Atom:
    return Atom("Attendance", tuple(a if isinstance(a, Var) else Const(a) for a in args))


class TestRetire:
    def test_constants_compare_with_equality_and_nulls_match_anything(self):
        somebody = Var("\x00ln1")
        facts = [attendance(1, 2), attendance(1, True), attendance(somebody, 2), attendance(4, 5)]
        trace = Trace.from_facts(facts)
        assert trace.retire([("Attendance", (1, 1))]) == 1  # 1 == True
        assert trace.retire([("Attendance", (3, 2))]) == 1  # the null matches 3
        assert trace.retire([("Events", (4, 5)), ("Attendance", (5, 4))]) == 0
        assert trace.facts == (attendance(1, 2), attendance(4, 5))
        assert list(trace.facts_of("Attendance")) == [attendance(1, 2), attendance(4, 5)]
        assert trace.certified(attendance(1, 2)) is not None
        assert trace.clear() == 2 and trace.facts == ()


@pytest.fixture
def attended(calendar_db):
    """A (user, event, another event of theirs) triple of the fixture data."""
    rows = calendar_db.query("SELECT UId, EId FROM Attendance ORDER BY UId, EId").rows
    for uid, eid in rows:
        others = [e for u, e in rows if u == uid and e != eid]
        if len(others) >= 2:
            return uid, eid, others
    pytest.fail("no user attends three events")


def inject_writes(proxy, writer, writes):
    """Run the next of ``writes`` right after each of the proxy's decisions."""
    decide = proxy.decide

    def decide_then_write(bound, skeleton=None):
        decision = decide(bound, skeleton=skeleton)
        if writes:
            writer.sql(*writes.pop(0))
        return decision

    proxy.decide = decide_then_write


class TestWriteBetweenDecideAndExecute:
    def test_retiring_a_used_fact_forces_a_blocking_redecision(
        self, calendar_db, calendar_policy, attended
    ):
        uid, eid, _ = attended
        proxy = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        writer = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        assert not proxy.query(Q1, [uid, eid]).is_empty()
        inject_writes(
            proxy, writer, [("DELETE FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])]
        )
        with pytest.raises(PolicyViolation) as blocked:
            proxy.query(Q2, [eid])
        assert "concurrent write" not in blocked.value.decision.reason
        assert proxy.stats.statement_retries == 1
        assert proxy.stats.facts_retired == 1
        assert proxy.trace.facts == ()

    def test_a_write_that_retires_nothing_leaves_the_result(
        self, calendar_db, calendar_policy, attended
    ):
        uid, eid, _ = attended
        other = next(
            u for (u,) in calendar_db.query("SELECT UId FROM Attendance").rows if u != uid
        )
        proxy = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        writer = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(other))
        proxy.query(Q1, [uid, eid])
        facts = proxy.trace.facts
        inject_writes(proxy, writer, [("DELETE FROM Attendance WHERE UId = ?", [other])])
        seq = calendar_db.changes.seq
        assert len(proxy.query(Q2, [eid])) == 1
        assert calendar_db.changes.seq > seq  # the write did land mid-statement
        assert proxy.stats.statement_retries == 0 and proxy.stats.facts_retired == 0
        assert set(facts) <= set(proxy.trace.facts)

    def test_writes_that_keep_retiring_facts_end_in_a_block(
        self, calendar_db, calendar_policy, attended
    ):
        uid, eid, others = attended
        proxy = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        writer = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        assert len(proxy.query(MINE, [uid])) >= STATEMENT_ATTEMPTS
        events = [eid, *others][:STATEMENT_ATTEMPTS]
        inject_writes(
            proxy,
            writer,
            [("DELETE FROM Attendance WHERE UId = ? AND EId = ?", [uid, e]) for e in events],
        )
        with pytest.raises(PolicyViolation) as blocked:
            proxy.query(MINE, [uid])
        assert "concurrent write" in blocked.value.decision.reason
        assert proxy.stats.statement_retries == STATEMENT_ATTEMPTS - 1
        assert proxy.stats.facts_retired == STATEMENT_ATTEMPTS
        assert (proxy.stats.allowed, proxy.stats.blocked) == (1, 1)


def inside(table, method, before=None, after=None):
    """Make the next call of ``table.method`` run ``before()`` ahead of the
    original and ``after()`` behind it: reads inside a write that has
    logged its rows but not finished. Returns what each read returned or
    raised, in order."""
    original = getattr(table, method)
    outcomes = []

    def read(statement):
        try:
            outcomes.append(statement())
        except PolicyViolation as exc:
            outcomes.append(exc)

    def wrapped(*args):
        setattr(table, method, original)
        if before is not None:
            read(before)
        result = original(*args)
        if after is not None:
            read(after)
        return result

    setattr(table, method, wrapped)
    return outcomes


class TestReadsInsideAWrite:
    """The log moves before a write's mutation is visible, and ``settled``
    stays behind it until the write is done."""

    @pytest.fixture
    def calendar_db(self):
        """The in-memory engine, whatever the suite's backend: the reads
        run inside its ``Table`` methods."""
        return calendar_app.make_database(size=10, seed=3, backend="memory")

    def test_a_read_that_sees_the_update_does_not_use_the_fact_it_falsified(
        self, calendar_db, calendar_policy, attended
    ):
        uid, eid, _ = attended
        mine = {e for (e,) in calendar_db.query(MINE, [uid]).rows}
        elsewhere = next(
            e for (e,) in calendar_db.query("SELECT EId FROM Events").rows if e not in mine
        )
        proxy = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        writer = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        assert not proxy.query(Q1, [uid, eid]).is_empty()
        outcomes = inside(
            calendar_db.table("Attendance"),
            "update_id",
            after=lambda: proxy.query(Q2, [eid]),
        )
        writer.sql(
            "UPDATE Attendance SET EId = ? WHERE UId = ? AND EId = ?", [elsewhere, uid, eid]
        )
        assert isinstance(outcomes[0], PolicyViolation)
        assert attendance(uid, eid) not in proxy.trace.facts

    def test_a_fact_certified_before_the_delete_lands_is_retired(
        self, calendar_db, calendar_policy, attended
    ):
        uid, eid, _ = attended
        proxy = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        writer = EnforcementProxy(calendar_db, calendar_policy, Session.for_user(uid))
        outcomes = inside(
            calendar_db.table("Attendance"),
            "delete_ids",
            before=lambda: proxy.query(Q1, [uid, eid]),
            after=lambda: proxy.query(Q2, [eid]),
        )
        writer.sql("DELETE FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
        certified, fetched = outcomes
        assert not certified.is_empty()  # the row was still there
        assert isinstance(fetched, PolicyViolation)
        with pytest.raises(PolicyViolation):
            proxy.query(Q2, [eid])


class TestOutcomesAreObservedOnce:
    """The gateway counts and audits a statement once, however many times
    it was decided."""

    @pytest.fixture
    def audited(self, calendar_db, calendar_policy, attended):
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        records = []
        gateway.decision_audit = records.append
        uid, _, _ = attended
        session = gateway.connect(uid)
        writer = gateway.connect(uid, fresh=True)
        assert len(session.query(MINE, [uid])) >= STATEMENT_ATTEMPTS
        records.clear()
        return gateway, records, session, writer

    @staticmethod
    def outcomes(gateway):
        counters = gateway.snapshot().counters
        return counters.get("decisions_allowed", 0), counters.get("decisions_blocked", 0)

    def test_a_retried_statement_is_one_allow(self, audited, attended):
        gateway, records, session, writer = audited
        uid, eid, _ = attended
        allowed, blocked = self.outcomes(gateway)
        delete = "DELETE FROM Attendance WHERE UId = ? AND EId = ?"
        inject_writes(session, writer, [(delete, [uid, eid])])
        session.query(MINE, [uid])
        assert session.stats.statement_retries == 1
        assert [record.allowed for record in records] == [True]
        assert self.outcomes(gateway) == (allowed + 1, blocked)

    def test_running_out_of_attempts_is_one_audited_block(self, audited, attended):
        gateway, records, session, writer = audited
        uid, eid, others = attended
        allowed, blocked = self.outcomes(gateway)
        inject_writes(
            session,
            writer,
            [
                ("DELETE FROM Attendance WHERE UId = ? AND EId = ?", [uid, e])
                for e in [eid, *others][:STATEMENT_ATTEMPTS]
            ],
        )
        with pytest.raises(PolicyViolation):
            session.query(MINE, [uid])
        assert [(r.allowed, r.policy_version) for r in records] == [(False, 1)]
        assert self.outcomes(gateway) == (allowed, blocked + 1)
