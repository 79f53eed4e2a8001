"""Lock-free readers racing a writer that changes the rows they read,
on a gateway's one store.

The serving claim under test: a writer deleting and re-inserting the
rows N reader threads are reading and certifying must (a) never let an
exception escape any thread — a reader never finds a row id without its
row — (b) leave no reader's trace holding a fact the final database
contradicts, once each reader has swept, and (c) never serve a decision
a template-free checker over the same facts would disagree with (every
decision, hit or miss, is audited and re-decided afterwards).
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import EnforcementGateway
from repro.workloads import calendar_app
from tests.conftest import audit_decisions, contradicted_facts, reverify_audit

READERS = 6
ROUNDS = 40
MINE = "SELECT EId FROM Attendance WHERE UId = ?"


@pytest.fixture
def gateway(calendar_policy):
    db = calendar_app.make_database(size=READERS + 2, seed=3)
    return EnforcementGateway(db, calendar_policy)


@pytest.fixture
def audit(gateway):
    """Every decision the gateway makes during the test."""
    return audit_decisions(gateway)


class TestInvalidationRace:
    def test_readers_race_a_writer_without_stale_survivors(self, gateway, audit):
        start = threading.Barrier(READERS + 1)
        errors: list[BaseException] = []
        attended = gateway.db.query("SELECT UId, EId FROM Attendance").rows
        readers = {}

        def reader(uid: int) -> None:
            try:
                connection = readers[uid] = gateway.connect(uid)
                start.wait()
                for _ in range(ROUNDS):
                    connection.query(MINE, [uid])
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def writer() -> None:
            try:
                connection = gateway.connect(READERS + 1)
                start.wait()
                for round_no in range(ROUNDS):
                    uid = round_no % READERS + 1
                    connection.sql("DELETE FROM Attendance WHERE UId = ?", [uid])
                    for row in attended:
                        if row[0] == uid and round_no < ROUNDS - READERS:
                            connection.sql("INSERT INTO Attendance VALUES (?, ?)", row)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(uid,)) for uid in range(1, READERS + 1)
        ] + [threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        # (c) a template-free checker over the facts each decision stood
        # on reaches every verdict of the race, hits included.
        assert any(record.from_cache for record in audit)
        assert reverify_audit(audit, {1: gateway.policy}, gateway.db) == []
        assert gateway.shared_cache.stores > 0

        # (b) the writer's last rounds deleted every reader's rows for
        # good, and one more write deletes rows reader 1 certifies again.
        # Each reader's next statement sweeps; after it, no trace holds a
        # fact the database contradicts.
        first, writer_session = readers[1], gateway.connect(READERS + 1)
        for row in attended:
            if row[0] == 1:
                writer_session.sql("INSERT INTO Attendance VALUES (?, ?)", row)
        certified = len(first.query(MINE, [1]))
        assert certified > 0
        retired = gateway.snapshot().counters["facts_retired"]
        writer_session.sql("DELETE FROM Attendance WHERE UId = ?", [1])
        for uid, connection in readers.items():
            assert connection.query(MINE, [uid]).is_empty()
            assert not contradicted_facts(connection.trace.facts, gateway.db)
        assert gateway.snapshot().counters["facts_retired"] >= retired + certified

    def test_eviction_is_atomic_with_respect_to_lookups(self, gateway, audit):
        """A lookup never observes a half-evicted bucket: it either hits a
        live template or misses; both re-verify clean against the checker."""
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = 1")
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    gateway.shared_cache.invalidate_table("Attendance")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for uid in range(2, READERS + 2):
                reader = gateway.connect(uid)
                for _ in range(ROUNDS):
                    reader.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
        finally:
            stop.set()
            churner.join()
        assert not errors, errors
        assert reverify_audit(audit, {1: gateway.policy}, gateway.db) == []
