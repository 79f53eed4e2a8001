"""Property test: reads interleaved with writes that *change* the rows
decisions depend on.

Two gateway sessions read their attendance and fetch events while any
session deletes an attendance row, puts it back, or retitles an event.
After every statement, each session's trace — as its next decision
will see it, i.e. once swept — holds only facts some current row stands
for (labeled nulls match anything), and never two facts that disagree
under a primary key. Every decision, hit or miss, is audited, and a
template-free checker over the facts it stood on must reach it too.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce import PolicyViolation
from repro.serve import EnforcementGateway
from repro.util.errors import IntegrityError
from repro.workloads import calendar_app
from tests.conftest import (
    audit_decisions,
    contradicted_facts,
    key_violations,
    reverify_audit,
)

USERS = (1, 2)
#: Example 2.1's guard and fetch. (A blocked fetch costs ~10x more per
#: fact in the session's trace, so the reads certify one fact each and
#: the pool holds two events.)
READS = (
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", "user, event"),
    ("SELECT Title FROM Events WHERE EId = ?", "event"),
)
WRITES = (
    ("DELETE FROM Attendance WHERE UId = ? AND EId = ?", "user, event"),
    ("INSERT INTO Attendance VALUES (?, ?)", "user, event"),
    ("UPDATE Events SET Title = ? WHERE EId = ?", "title, event"),
)
TITLES = ("retro", "secret-after-removal", "standup")


@pytest.fixture(scope="module")
def database():
    """The fixture data, restored before each example."""
    db = calendar_app.make_database(size=6, seed=3)
    return db, db.snapshot()


@pytest.fixture(scope="module")
def events(database):
    """One event each of users 1 and 2 attends."""
    db, _ = database
    return [
        db.query("SELECT EId FROM Attendance WHERE UId = ?", [user]).rows[0][0]
        for user in USERS
    ]


def statements(events):
    def build(template, user, event, title):
        values = {"user": user, "event": event, "title": title}
        return template[0], [values[name] for name in template[1].split(", ")]

    return st.lists(
        st.tuples(
            st.sampled_from(USERS),  # which session sends it
            st.builds(
                build,
                st.sampled_from(READS + READS + WRITES),
                st.sampled_from(USERS),
                st.sampled_from(events),
                st.sampled_from(TITLES),
            ),
        ),
        min_size=1,
        max_size=12,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_fact_a_session_keeps_holds(database, events, calendar_policy, data):
    db, snapshot = database
    db.restore(snapshot)
    gateway = EnforcementGateway(db, calendar_policy)
    records = audit_decisions(gateway)
    sessions = {user: gateway.connect(user) for user in USERS}
    for user, (sql, args) in data.draw(statements(events)):
        if sql.startswith("SELECT 1"):
            args = [user, args[1]]  # a guard asks about the sender's own row
        try:
            sessions[user].sql(sql, args)
        except (PolicyViolation, IntegrityError):
            pass
        for connection in sessions.values():
            connection._sweep()  # what its next statement does first
            facts = connection.trace.facts
            assert not contradicted_facts(facts, db), (sql, args, facts)
            assert not key_violations(facts, db.schema), (sql, args, facts)
    assert reverify_audit(records, {1: calendar_policy}, db) == []
