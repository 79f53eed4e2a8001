"""Database-level tests: sql() entry point, snapshots, bulk inserts."""

import pytest

from repro.engine import Database, Schema
from repro.util.errors import EngineError, IntegrityError


class TestSqlEntryPoint:
    def test_create_table_via_sql(self):
        db = Database(Schema())
        db.sql("CREATE TABLE T (id INTEGER PRIMARY KEY, name TEXT)")
        db.sql("INSERT INTO T VALUES (1, 'x')")
        assert db.query("SELECT name FROM T").rows == [("x",)]

    def test_statement_cache_reuses_parse(self, tiny_db):
        sql = "SELECT Name FROM Users WHERE UId = ?"
        tiny_db.query(sql, [1])
        cached = tiny_db.parse(sql)
        tiny_db.query(sql, [2])
        assert tiny_db.parse(sql) is cached
        # One table: the text's plan carries that parse.
        assert tiny_db.prepare(sql) is tiny_db.prepare(sql)
        assert tiny_db.prepare(sql).statement is cached

    def test_plan_table_evicts_the_least_recently_used(self, tiny_db, monkeypatch):
        from repro.engine import database

        monkeypatch.setattr(database, "PLAN_TABLE_CAP", 3)
        texts = [f"SELECT Name FROM Users WHERE UId = {n}" for n in range(4)]
        plans = [tiny_db.prepare(sql) for sql in texts[:3]]
        assert tiny_db.prepare(texts[0]) is plans[0]  # refreshed: now the newest
        tiny_db.prepare(texts[3])  # one past the cap: texts[1] is the oldest
        assert list(tiny_db._plans) == [texts[2], texts[0], texts[3]]
        # An evicted plan still executes for whoever kept it, and its text
        # plans afresh.
        assert tiny_db.execute_prepared(plans[1]).rows == tiny_db.query(texts[1]).rows
        assert tiny_db.prepare(texts[1]) is not plans[1]
        assert len(tiny_db._plans) == 3

    def test_query_rejects_dml(self, tiny_db):
        before = tiny_db.query("SELECT * FROM Orders").rows
        assert before
        with pytest.raises(EngineError):
            tiny_db.query("DELETE FROM Orders")
        # Refused means not executed: the table is intact.
        assert tiny_db.query("SELECT * FROM Orders").rows == before

    def test_unknown_table(self, tiny_db):
        with pytest.raises(EngineError):
            tiny_db.query("SELECT 1 FROM Missing")


class TestBulkInsert:
    def test_insert_rows(self, tiny_db):
        count = tiny_db.insert_rows("Users", [(7, "gina", 20), (8, "hank", 21)])
        assert count == 2
        assert tiny_db.row_count("Users") == 5

    def test_insert_rows_checks_fk(self, tiny_db):
        with pytest.raises(IntegrityError):
            tiny_db.insert_rows("Orders", [(30, 999, 1.0, None)])


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, tiny_db):
        snapshot = tiny_db.snapshot()
        tiny_db.sql("DELETE FROM Orders")
        tiny_db.sql("UPDATE Users SET Name = 'zz' WHERE UId = 1")
        tiny_db.restore(snapshot)
        assert tiny_db.row_count("Orders") == 3
        assert tiny_db.query("SELECT Name FROM Users WHERE UId = 1").scalar() == "alice"

    def test_snapshot_is_isolated(self, tiny_db):
        snapshot = tiny_db.snapshot()
        tiny_db.sql("INSERT INTO Users VALUES (9, 'new', 1)")
        # The snapshot taken before the insert must not contain the row.
        tiny_db.restore(snapshot)
        assert tiny_db.row_count("Users") == 3


class TestIntrospection:
    def test_relation_contents(self, tiny_db):
        contents = tiny_db.relation_contents()
        assert set(contents) == {"Users", "Orders"}
        assert (1, "alice", 34) in contents["Users"]

    def test_total_rows(self, tiny_db):
        assert tiny_db.total_rows() == 6
