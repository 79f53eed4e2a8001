"""Lock-free readers racing a writer that changes the rows they read,
on a gateway's one store.

The serving claim under test: a writer deleting and re-inserting the
rows N reader threads are reading and certifying must (a) never let an
exception escape any thread — a reader never finds a row id without its
row — (b) leave no reader's trace holding a fact the final database
contradicts, once each reader has swept, and (c) never serve a decision
the uncached checker would disagree with (``verify_cached_decisions``
re-checks every hit on the spot).
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app
from tests.conftest import contradicted_facts

READERS = 6
ROUNDS = 40
MINE = "SELECT EId FROM Attendance WHERE UId = ?"


@pytest.fixture
def gateway(calendar_policy):
    db = calendar_app.make_database(size=READERS + 2, seed=3)
    return EnforcementGateway(
        db, calendar_policy, GatewayConfig(verify_cached_decisions=True)
    )


class TestInvalidationRace:
    def test_readers_race_a_writer_without_stale_survivors(self, gateway):
        start = threading.Barrier(READERS + 1)
        errors: list[BaseException] = []
        attended = gateway.db.query("SELECT UId, EId FROM Attendance").rows

        def reader(uid: int) -> None:
            try:
                connection = gateway.connect(uid)
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
        # (c) every cache hit taken during the race was re-verified against
        # the uncached checker; none may disagree.
        assert gateway.metrics.counter("cache_disagreements") == 0
        assert gateway.shared_cache.stores > 0

        # (b) the writer's last rounds deleted every reader's rows for
        # good, and one more write deletes rows reader 1 certifies again.
        # Each reader's next statement sweeps; after it, no trace holds a
        # fact the database contradicts.
        first, writer_session = gateway.connect(1), gateway.connect(READERS + 1)
        for row in attended:
            if row[0] == 1:
                writer_session.sql("INSERT INTO Attendance VALUES (?, ?)", row)
        certified = len(first.query(MINE, [1]))
        assert certified > 0
        retired = gateway.snapshot().counters["facts_retired"]
        writer_session.sql("DELETE FROM Attendance WHERE UId = ?", [1])
        for uid in range(1, READERS + 1):
            connection = gateway.connect(uid)
            assert connection.query(MINE, [uid]).is_empty()
            assert not contradicted_facts(connection.trace.facts, gateway.db)
        assert gateway.snapshot().counters["facts_retired"] >= retired + certified

    def test_eviction_is_atomic_with_respect_to_lookups(self, gateway):
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
        assert gateway.metrics.counter("cache_disagreements") == 0
