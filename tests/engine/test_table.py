"""Row-storage tests: inserts, indexes, deletes, snapshots."""

import sys
import threading

import pytest

from repro.engine import Column, ColumnType, TableSchema
from repro.engine.table import Table
from repro.util.errors import IntegrityError


@pytest.fixture
def table():
    return Table(
        TableSchema(
            "T",
            (
                Column("id", ColumnType.INT, nullable=False),
                Column("name", ColumnType.TEXT),
            ),
            primary_key=("id",),
        )
    )


class TestInsert:
    def test_insert_and_iterate_in_order(self, table):
        table.insert((1, "a"))
        table.insert((2, "b"))
        assert list(table.rows()) == [(1, "a"), (2, "b")]

    def test_wrong_width_rejected(self, table):
        with pytest.raises(IntegrityError):
            table.insert((1,))

    def test_type_checked(self, table):
        with pytest.raises(IntegrityError):
            table.insert(("x", "a"))

    def test_not_null_enforced(self, table):
        with pytest.raises(IntegrityError):
            table.insert((None, "a"))

    def test_null_allowed_when_nullable(self, table):
        table.insert((1, None))
        assert list(table.rows()) == [(1, None)]

    def test_duplicate_pk_rejected(self, table):
        table.insert((1, "a"))
        with pytest.raises(IntegrityError):
            table.insert((1, "b"))


class TestLookup:
    def test_index_lookup(self, table):
        table.insert((1, "a"))
        table.insert((2, "a"))
        table.insert((3, "b"))
        rows = [row for _, row in table.lookup("name", "a")]
        assert rows == [(1, "a"), (2, "a")]

    def test_lookup_miss(self, table):
        table.insert((1, "a"))
        assert list(table.lookup("name", "zzz")) == []

    def test_contains_value(self, table):
        table.insert((1, "a"))
        assert table.contains_value("id", 1)
        assert not table.contains_value("id", 99)


class TestDeleteUpdate:
    def test_delete_updates_indexes(self, table):
        row_id = table.insert((1, "a"))
        assert table.delete_ids([row_id]) == 1
        assert not table.contains_value("id", 1)
        assert len(table) == 0

    def test_delete_frees_pk(self, table):
        row_id = table.insert((1, "a"))
        table.delete_ids([row_id])
        table.insert((1, "again"))

    def test_update_in_place(self, table):
        row_id = table.insert((1, "a"))
        table.update_id(row_id, (1, "z"))
        assert list(table.rows()) == [(1, "z")]
        assert [row for _, row in table.lookup("name", "z")] == [(1, "z")]

    def test_update_missing_row(self, table):
        with pytest.raises(IntegrityError):
            table.update_id(99, (1, "a"))


class TestSnapshot:
    def test_snapshot_restore(self, table):
        table.insert((1, "a"))
        snapshot = table.snapshot()
        table.insert((2, "b"))
        table.restore(snapshot)
        assert list(table.rows()) == [(1, "a")]
        # Indexes rebuilt correctly.
        assert table.contains_value("id", 1)
        assert not table.contains_value("id", 2)

    def test_restore_then_insert_does_not_collide(self, table):
        table.insert((1, "a"))
        snapshot = table.snapshot()
        table.insert((2, "b"))
        table.restore(snapshot)
        table.insert((3, "c"))
        assert [row[0] for row in table.rows()] == [1, 3]


class TestLockFreeReads:
    def test_readers_never_find_an_id_without_its_row(self, table):
        """Index probes and scans racing one writer's in-place updates
        (the serving gateway's shape: writes serialized, reads not)."""
        ids = [table.insert((i, "even" if i % 2 else "odd")) for i in range(40)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            flips = 0
            while not stop.is_set():
                flips += 1
                for row_id in ids[:10]:
                    table.update_id(row_id, (row_id, "even" if flips % 2 else "odd"))

        def reader() -> None:
            try:
                for _ in range(500):
                    list(table.lookup("name", "even"))
                    list(table.lookup("name", "odd"))
                    list(table.rows())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside the mutation
        threads = [threading.Thread(target=reader) for _ in range(3)]
        updater = threading.Thread(target=writer)
        try:
            updater.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            updater.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*threads, updater))
        assert not errors, errors
        assert len(table) == 40
