"""The paper's Example 2.1, end-to-end through the real proxy (a gateway
session).

This is the reproduction's acceptance test: the exact query sequence of
§2.2 with the exact verdicts the paper states, against live data.
"""

import pytest

from repro.enforce import PolicyViolation
from repro.relalg.cq import Atom, Const
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app
from tests.conftest import audit_decisions, reverify_audit


def bound(sql):
    return bind_parameters(parse_select(sql), [])


@pytest.fixture
def setup():
    db = calendar_app.make_database(size=10, seed=3)
    # Ensure the paper's concrete rows exist: user 1 attends event 2.
    if db.query(
        "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"
    ).is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.ground_truth_policy()
    return db, policy


def test_full_example(setup):
    db, policy = setup
    gateway = EnforcementGateway(db, policy)
    proxy = gateway.connect(1)

    # (Q1) Does User #1 attend Event #2? — allowed under V1.
    q1 = proxy.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
    assert not q1.is_empty()

    # (Q2) Fetch details about Event #2 — allowed *given Q1's answer*,
    # and on that fact alone.
    assert proxy.decide(bound("SELECT * FROM Events WHERE EId = 2")).facts_used == (
        Atom("Attendance", (Const(1), Const(2))),
    )
    q2 = proxy.query("SELECT * FROM Events WHERE EId = 2")
    assert len(q2) == 1
    counter = gateway.metrics.counter
    assert (counter("decisions_allowed"), counter("decisions_blocked")) == (2, 0)


def test_q2_blocked_in_isolation(setup):
    db, policy = setup
    fresh = EnforcementGateway(db, policy).connect(1)
    with pytest.raises(PolicyViolation):
        fresh.query("SELECT * FROM Events WHERE EId = 2")


def test_q2_blocked_for_non_attendee(setup):
    db, policy = setup
    db.sql("DELETE FROM Attendance WHERE UId = 2 AND EId = 2")
    proxy = EnforcementGateway(db, policy).connect(2)
    check = proxy.query("SELECT 1 FROM Attendance WHERE UId = 2 AND EId = 2")
    assert check.is_empty()  # allowed, but returns nothing
    with pytest.raises(PolicyViolation):
        proxy.query("SELECT * FROM Events WHERE EId = 2")


def gateway_session(db, policy):
    return EnforcementGateway(db, policy), None


def verifying_session(db, policy):
    """A gateway whose every decision is audited, for a template-free
    checker to re-decide."""
    gateway = EnforcementGateway(db, policy)
    return gateway, audit_decisions(gateway)


@pytest.mark.parametrize("open_gateway", [gateway_session, verifying_session])
def test_q2_follows_the_attendance_row(setup, open_gateway):
    """``Q2`` is allowed only while the row ``Q1`` certified exists.

    Another session deletes ``Attendance(1, 2)`` and retitles the event:
    user 1's *same* session is blocked, as a fresh one would be. Once the
    row is back, ``Q2`` stays blocked until the guard runs again.
    """
    db, policy = setup
    q1 = "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"
    q2 = "SELECT Title FROM Events WHERE EId = 2"
    gateway, records = open_gateway(db, policy)
    proxy = gateway.connect(1)
    assert not proxy.query(q1).is_empty()
    assert len(proxy.query(q2)) == 1

    other = gateway.connect(3)
    other.sql("DELETE FROM Attendance WHERE UId = 1 AND EId = 2")
    other.sql("UPDATE Events SET Title = 'secret-after-removal' WHERE EId = 2")
    with pytest.raises(PolicyViolation):
        proxy.query(q2)
    assert proxy.query(q1).is_empty()

    other.sql("INSERT INTO Attendance VALUES (1, 2)")
    with pytest.raises(PolicyViolation):
        proxy.query(q2)
    assert not proxy.query(q1).is_empty()
    assert proxy.query(q2).rows == [("secret-after-removal",)]
    assert gateway.metrics.counter("facts_retired") >= 2
    if records is not None:
        assert len(records) == 7
        assert reverify_audit(records, {1: policy}, db) == []


def test_a_commit_by_another_connection_to_the_file_blocks_q2(tmp_path):
    """Two databases on one SQLite file, as cluster shards share one: a
    DELETE through the first reaches the facts of a session on the
    second, which cannot tell which rows changed and drops them all."""
    path = str(tmp_path / "calendar.db")
    writer = calendar_app.make_database(size=10, seed=3, backend="sqlite", db_path=path)
    if writer.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        writer.sql("INSERT INTO Attendance VALUES (1, 2)")
    reader = calendar_app.make_database(size=10, seed=3, backend="sqlite", db_path=path)
    proxy = EnforcementGateway(reader, calendar_app.ground_truth_policy()).connect(1)
    assert not proxy.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty()
    assert len(proxy.query("SELECT * FROM Events WHERE EId = 2")) == 1
    writer.sql("DELETE FROM Attendance WHERE UId = 1 AND EId = 2")
    with pytest.raises(PolicyViolation):
        proxy.query("SELECT * FROM Events WHERE EId = 2")
    assert proxy.trace.facts == ()
    writer.close()
    reader.close()
