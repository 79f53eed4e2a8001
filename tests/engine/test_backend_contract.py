"""The backend contract, enforced identically on every registered backend.

One parametrized suite pins the :class:`~repro.engine.backend.EngineBackend`
contract — execute/snapshot/restore round-trips, close() idempotency and
enforcement, insert/row_count consistency, integrity errors — for the
in-memory backend, in-memory SQLite, and file-backed SQLite, so a new
backend inherits the whole battery by appearing in ``BACKENDS``. Registry
and factory behavior (``open_database``, ``REPRO_BACKEND``) is covered at
the end.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Schema,
    TableSchema,
    available_backends,
    open_database,
)
from repro.engine.backend import create_backend, register_backend
from repro.engine.backend.registry import BACKEND_ENV_VAR, default_backend_name
from repro.util.errors import EngineError, IntegrityError

BACKENDS = ["memory", "sqlite", "sqlite-file"]


def make_schema() -> Schema:
    """All four column types, a composite-PK child, an FK, and a nullable."""
    return Schema.of(
        TableSchema(
            "Items",
            (
                Column("id", ColumnType.INT, nullable=False),
                Column("label", ColumnType.TEXT, nullable=False),
                Column("score", ColumnType.REAL, nullable=True),
                Column("active", ColumnType.BOOL, nullable=False),
            ),
            primary_key=("id",),
        ),
        TableSchema(
            "Tags",
            (
                Column("item", ColumnType.INT, nullable=False),
                Column("tag", ColumnType.TEXT, nullable=False),
            ),
            primary_key=("item", "tag"),
            foreign_keys=(ForeignKey("item", "Items", "id"),),
        ),
    )


ITEMS = [
    (1, "alpha", 0.5, True),
    (2, "beta", None, False),
    (3, "gamma", 2.25, True),
]
TAGS = [(1, "red"), (1, "blue"), (3, "red")]


def open_backend_db(kind: str, tmp_path) -> Database:
    if kind == "sqlite-file":
        return open_database(
            make_schema(), backend="sqlite", path=str(tmp_path / "contract.db")
        )
    return open_database(make_schema(), backend=kind)


@pytest.fixture(params=BACKENDS)
def db(request, tmp_path) -> Database:
    database = open_backend_db(request.param, tmp_path)
    database.insert_rows("Items", ITEMS)
    database.insert_rows("Tags", TAGS)
    yield database
    if not database.backend.closed:
        database.close()


class TestExecuteRoundTrips:
    def test_select_returns_inserted_rows(self, db):
        result = db.query("SELECT id, label, score, active FROM Items ORDER BY id")
        assert result.columns == ["id", "label", "score", "active"]
        assert result.rows == ITEMS

    def test_values_round_trip_types(self, db):
        (row,) = db.query("SELECT * FROM Items WHERE id = 1").rows
        assert row == (1, "alpha", 0.5, True)
        assert isinstance(row[3], bool)
        (row,) = db.query("SELECT * FROM Items WHERE id = 2").rows
        assert row[2] is None
        assert row[3] is False

    def test_insert_then_select(self, db):
        assert db.sql("INSERT INTO Items VALUES (4, 'delta', 1.0, FALSE)") == 1
        assert db.row_count("Items") == 4
        (row,) = db.query("SELECT label FROM Items WHERE id = 4").rows
        assert row == ("delta",)

    def test_update_returns_affected_count(self, db):
        assert db.sql("UPDATE Items SET active = FALSE WHERE active = TRUE") == 2
        assert db.query("SELECT id FROM Items WHERE active = TRUE").is_empty()

    def test_delete_returns_affected_count(self, db):
        assert db.sql("DELETE FROM Tags WHERE item = 1") == 2
        assert db.row_count("Tags") == 1

    def test_parameter_binding(self, db):
        result = db.query("SELECT label FROM Items WHERE id = ? AND active = ?", [1, True])
        assert result.rows == [("alpha",)]

    def test_join_across_tables(self, db):
        result = db.query(
            "SELECT i.label, t.tag FROM Items i JOIN Tags t ON t.item = i.id"
            " WHERE t.tag = 'red' ORDER BY i.id"
        )
        assert result.rows == [("alpha", "red"), ("gamma", "red")]

    def test_unordered_select_is_compared_as_multiset(self, db):
        # Row ORDER without ORDER BY is backend-defined; only the multiset
        # is part of the contract.
        rows = db.query("SELECT id FROM Items").rows
        assert sorted(rows) == [(1,), (2,), (3,)]


class TestInsertRowCountConsistency:
    def test_insert_rows_reports_count(self, db):
        assert db.insert_rows("Items", [(10, "j", None, True), (11, "k", 0.0, False)]) == 2
        assert db.row_count("Items") == 5

    def test_total_rows_sums_tables(self, db):
        assert db.total_rows() == len(ITEMS) + len(TAGS)

    def test_relation_contents_shape(self, db):
        contents = db.relation_contents()
        assert set(contents) == {"Items", "Tags"}
        assert contents["Items"] == set(ITEMS)
        assert contents["Tags"] == set(TAGS)

    def test_row_count_unknown_table_raises(self, db):
        with pytest.raises(EngineError):
            db.row_count("Nope")


class TestIntegrity:
    def test_duplicate_primary_key(self, db):
        with pytest.raises(IntegrityError):
            db.insert_rows("Items", [(1, "dup", None, True)])

    def test_composite_primary_key(self, db):
        with pytest.raises(IntegrityError):
            db.insert_rows("Tags", [(1, "red")])

    def test_foreign_key_enforced(self, db):
        with pytest.raises(IntegrityError):
            db.sql("INSERT INTO Tags VALUES (999, 'ghost')")

    def test_not_null_enforced(self, db):
        with pytest.raises(IntegrityError):
            db.insert_rows("Items", [(7, None, None, True)])

    def test_value_type_checked(self, db):
        with pytest.raises(IntegrityError):
            db.insert_rows("Items", [(8, "x", "not-a-real", True)])
        with pytest.raises(IntegrityError):
            db.insert_rows("Items", [("not-an-int", "x", None, True)])

    def test_unknown_insert_column(self, db):
        with pytest.raises(IntegrityError):
            db.sql("INSERT INTO Items (id, nosuch) VALUES (9, 1)")

    def test_failed_insert_leaves_counts_unchanged(self, db):
        before = db.row_count("Items")
        with pytest.raises(IntegrityError):
            db.insert_rows("Items", [(1, "dup", None, True)])
        assert db.row_count("Items") == before


class TestSnapshotRestore:
    def test_round_trip_restores_contents(self, db):
        snapshot = db.snapshot()
        db.sql("DELETE FROM Tags")
        db.sql("UPDATE Items SET label = 'mangled'")
        db.insert_rows("Items", [(50, "extra", None, False)])
        db.restore(snapshot)
        assert db.relation_contents() == {
            "Items": set(ITEMS),
            "Tags": set(TAGS),
        }

    def test_snapshot_is_isolated_from_later_writes(self, db):
        snapshot = db.snapshot()
        db.sql("DELETE FROM Tags WHERE item = 1")
        db.restore(snapshot)
        assert db.row_count("Tags") == len(TAGS)

    def test_restore_twice(self, db):
        snapshot = db.snapshot()
        db.sql("DELETE FROM Tags")
        db.restore(snapshot)
        db.sql("DELETE FROM Tags")
        db.restore(snapshot)
        assert db.relation_contents()["Tags"] == set(TAGS)


class TestChangeLog:
    """``changes`` logs the old image of every row a write changed, and
    nothing for a write that changed no row."""

    def logged_since(self, db, seq):
        return db.changes.since(seq)[1]

    def test_identity_update_logs_nothing(self, db):
        seq = db.changes.seq
        assert db.sql("UPDATE Items SET label = label, active = active") == 3
        assert db.sql("UPDATE Tags SET tag = tag WHERE item = 1") == 2
        assert db.changes.seq == seq
        assert self.logged_since(db, seq) == []

    def test_insert_logs_nothing(self, db):
        seq = db.changes.seq
        db.sql("INSERT INTO Items VALUES (4, 'delta', 1.0, FALSE)")
        db.insert_rows("Tags", [(4, "new")])
        assert db.changes.seq == seq

    def test_update_logs_only_rows_whose_values_changed(self, db):
        seq = db.changes.seq
        assert db.sql("UPDATE Items SET active = FALSE WHERE id <= 2") == 2
        assert self.logged_since(db, seq) == [("Items", (1, "alpha", 0.5, True))]
        db.query("SELECT id FROM Items")  # this connection's own commit
        assert db.changes.seq == seq + 1

    def test_wide_update_logs_each_changed_row(self, db):
        db.insert_rows("Items", [(i, "bulk", None, i % 2 == 0) for i in range(10, 1210)])
        seq = db.changes.seq
        assert db.sql("UPDATE Items SET active = TRUE WHERE label = 'bulk'") == 1200
        logged = self.logged_since(db, seq)
        assert sorted(row[0] for _, row in logged) == list(range(11, 1210, 2))

    def test_delete_logs_every_removed_row(self, db):
        seq = db.changes.seq
        assert db.sql("DELETE FROM Tags WHERE item = ?", [1]) == 2
        assert sorted(self.logged_since(db, seq)) == [
            ("Tags", (1, "blue")),
            ("Tags", (1, "red")),
        ]

    def test_restore_logs_that_anything_may_have_changed(self, db):
        snapshot = db.snapshot()
        seq = db.changes.seq
        db.restore(snapshot)
        assert db.changes.seq > seq and self.logged_since(db, seq) is None

    def test_images_past_the_cap_are_not_reported(self):
        from repro.engine.changes import ChangeLog

        log = ChangeLog(cap=2)
        log.record("T", [(1,), (2,), (3,)])
        assert log.since(1) == (3, [("T", (3,)), ("T", (2,))])
        assert log.since(0) == (3, None)


class TestClose:
    def test_close_is_idempotent(self, db):
        db.close()
        db.close()
        assert db.backend.closed

    def test_statements_after_close_raise_mentioning_closed(self, db):
        db.close()
        with pytest.raises(EngineError, match="closed"):
            db.query("SELECT * FROM Items")

    def test_backend_refuses_work_after_close(self, db):
        backend = db.backend
        db.close()
        with pytest.raises(EngineError, match="closed"):
            backend.snapshot()
        with pytest.raises(EngineError, match="closed"):
            backend.insert_rows("Items", [(60, "late", None, True)])


class TestBackendIdentity:
    def test_describe_names_the_backend(self, db):
        info = db.backend.describe()
        assert info["name"] == db.backend_name
        assert db.backend_name in ("memory", "sqlite")

    def test_table_access_is_memory_only(self, db):
        if db.backend_name == "memory":
            assert db.table("Items") is not None
        else:
            with pytest.raises(EngineError, match="Table objects"):
                db.table("Items")


class TestSqliteDurability:
    def test_file_backend_survives_reopen(self, tmp_path):
        path = str(tmp_path / "durable.db")
        first = open_database(make_schema(), backend="sqlite", path=path)
        first.insert_rows("Items", ITEMS)
        first.close()
        second = open_database(make_schema(), backend="sqlite", path=path)
        assert second.relation_contents()["Items"] == set(ITEMS)
        second.close()

    def test_memory_sqlite_is_ephemeral(self):
        first = open_database(make_schema(), backend="sqlite")
        first.insert_rows("Items", ITEMS)
        first.close()
        second = open_database(make_schema(), backend="sqlite")
        assert second.row_count("Items") == 0
        second.close()

    def test_workload_loader_does_not_reseed_a_durable_file(self, tmp_path):
        from repro.workloads import calendar_app

        path = str(tmp_path / "calendar.db")
        first = calendar_app.make_database(size=5, seed=3, db_path=path, backend="sqlite")
        contents = first.relation_contents()
        first.sql("DELETE FROM Attendance WHERE UId = 1")
        mutated = first.relation_contents()
        first.close()
        # Reopening must neither double-insert (UNIQUE violations) nor
        # overwrite the durable data with fresh seed rows.
        second = calendar_app.make_database(size=5, seed=3, db_path=path, backend="sqlite")
        assert second.relation_contents() == mutated
        assert second.relation_contents() != contents
        second.close()


class TestRegistryAndFactory:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "memory" in names
        assert "sqlite" in names

    def test_unknown_backend_raises_with_available_list(self):
        with pytest.raises(EngineError, match="memory"):
            open_database(make_schema(), backend="nosuch")

    def test_duplicate_registration_refused(self):
        with pytest.raises(EngineError, match="already registered"):
            register_backend("memory", lambda schema, **kw: None)

    def test_memory_rejects_path(self, tmp_path):
        with pytest.raises(EngineError, match="path"):
            open_database(make_schema(), backend="memory", path=str(tmp_path / "x.db"))
        with pytest.raises(EngineError, match="path"):
            Database(make_schema(), path=str(tmp_path / "x.db"))

    def test_create_backend_builds_named_backend(self):
        backend = create_backend("sqlite", make_schema())
        assert backend.name == "sqlite"
        backend.close()

    def test_env_var_reroutes_open_database(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        assert default_backend_name() == "sqlite"
        db = open_database(make_schema())
        assert db.backend_name == "sqlite"
        db.close()

    def test_env_var_does_not_touch_bare_database(self, monkeypatch):
        # Engine tests that construct Database(schema) directly always get
        # the in-memory backend; only open_database consults the env.
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        db = Database(make_schema())
        assert db.backend_name == "memory"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        db = open_database(make_schema(), backend="memory")
        assert db.backend_name == "memory"

    def test_adopting_a_backend_instance(self):
        backend = create_backend("sqlite", make_schema())
        db = Database(backend=backend)
        assert db.backend is backend
        assert db.schema is backend.schema
        db.close()
        assert backend.closed
