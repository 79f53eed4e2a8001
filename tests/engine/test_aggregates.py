"""GROUP BY and aggregate-function tests."""

import pytest

from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select, parse_sql
from repro.sqlir.printer import to_sql
from repro.util.errors import EngineError, TranslationError


@pytest.fixture
def db(employees_db):
    return employees_db


class TestParsing:
    def test_group_by_parses_and_roundtrips(self):
        sql = "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept ORDER BY Dept"
        assert to_sql(parse_sql(to_sql(parse_sql(sql)))) == to_sql(parse_sql(sql))

    def test_aggregate_functions_parse(self):
        stmt = parse_select("SELECT SUM(Salary), AVG(Age), MIN(Age), MAX(Age) FROM Employees")
        names = [item.expr.name for item in stmt.items]
        assert names == ["SUM", "AVG", "MIN", "MAX"]

    def test_group_by_rejected_by_translator(self, db):
        stmt = parse_select("SELECT Dept FROM Employees GROUP BY Dept")
        with pytest.raises(TranslationError):
            translate_select(stmt, db.schema)


class TestGlobalAggregates:
    def test_sum(self, db):
        total = db.query("SELECT SUM(Salary) FROM Employees").scalar()
        rows = db.query("SELECT Salary FROM Employees").rows
        assert total == sum(r[0] for r in rows)

    def test_min_max(self, db):
        ages = [r[0] for r in db.query("SELECT Age FROM Employees").rows]
        assert db.query("SELECT MIN(Age) FROM Employees").scalar() == min(ages)
        assert db.query("SELECT MAX(Age) FROM Employees").scalar() == max(ages)

    def test_avg(self, db):
        ages = [r[0] for r in db.query("SELECT Age FROM Employees").rows]
        assert db.query("SELECT AVG(Age) FROM Employees").scalar() == pytest.approx(
            sum(ages) / len(ages)
        )

    def test_aggregate_over_empty_set_is_null(self, db):
        assert (
            db.query("SELECT SUM(Salary) FROM Employees WHERE Age > 200").scalar()
            is None
        )
        assert (
            db.query("SELECT COUNT(*) FROM Employees WHERE Age > 200").scalar() == 0
        )

    def test_sum_skips_null(self, tiny_db):
        # carol's Age is NULL and must not poison the sum.
        ages = tiny_db.query("SELECT SUM(Age) FROM Users").scalar()
        assert ages == 34 + 28


class TestGroupBy:
    def test_count_per_group(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept"
        ).rows
        manual: dict[str, int] = {}
        for (dept,) in db.query("SELECT Dept FROM Employees").rows:
            manual[dept] = manual.get(dept, 0) + 1
        assert dict(rows) == manual

    def test_multiple_aggregates_per_group(self, db):
        rows = db.query(
            "SELECT Dept, MIN(Age), MAX(Age) FROM Employees GROUP BY Dept"
        ).rows
        for dept, low, high in rows:
            ages = [
                r[0]
                for r in db.query(
                    "SELECT Age FROM Employees WHERE Dept = ?", [dept]
                ).rows
            ]
            assert (low, high) == (min(ages), max(ages))

    def test_group_by_with_where(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(*) FROM Employees WHERE Age >= 40 GROUP BY Dept"
        ).rows
        for dept, count in rows:
            expected = db.query(
                "SELECT COUNT(*) FROM Employees WHERE Dept = ? AND Age >= 40",
                [dept],
            ).scalar()
            assert count == expected

    def test_order_by_group_key(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept ORDER BY Dept"
        ).rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_group_by_join(self, calendar_db):
        rows = calendar_db.query(
            "SELECT u.Name, COUNT(*) FROM Users u"
            " JOIN Attendance a ON a.UId = u.UId GROUP BY u.Name"
        ).rows
        for name, count in rows:
            expected = calendar_db.query(
                "SELECT COUNT(*) FROM Users u JOIN Attendance a ON a.UId = u.UId"
                " WHERE u.Name = ?",
                [name],
            ).scalar()
            assert count == expected

    def test_non_grouped_column_rejected(self, db):
        # Strictness is a memory-engine semantic; SQLite legitimately
        # permits bare columns in an aggregate query (it picks a witness
        # row), so under REPRO_BACKEND=sqlite there is nothing to reject.
        if db.backend_name != "memory":
            pytest.skip("bare-column GROUP BY strictness is memory-engine-specific")
        with pytest.raises(EngineError):
            db.query("SELECT Name, COUNT(*) FROM Employees GROUP BY Dept")

    def test_count_distinct_in_group(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(DISTINCT ZIP) FROM Employees GROUP BY Dept"
        ).rows
        for dept, count in rows:
            zips = {
                r[0]
                for r in db.query(
                    "SELECT ZIP FROM Employees WHERE Dept = ?", [dept]
                ).rows
            }
            assert count == len(zips)


class TestHaving:
    def test_having_filters_groups(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept"
            " HAVING COUNT(*) >= 5"
        ).rows
        all_counts = dict(
            db.query("SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept").rows
        )
        assert dict(rows) == {d: c for d, c in all_counts.items() if c >= 5}

    def test_having_over_group_key(self, db):
        rows = db.query(
            "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept"
            " HAVING Dept = 'eng'"
        ).rows
        assert [r[0] for r in rows] in ([], ["eng"]) or all(
            r[0] == "eng" for r in rows
        )

    def test_having_with_avg(self, db):
        rows = db.query(
            "SELECT Dept, AVG(Age) FROM Employees GROUP BY Dept"
            " HAVING AVG(Age) >= 40"
        ).rows
        for _, avg_age in rows:
            assert avg_age >= 40

    def test_having_roundtrips(self):
        sql = (
            "SELECT Dept, COUNT(*) FROM Employees GROUP BY Dept"
            " HAVING COUNT(*) >= 5"
        )
        assert parse_sql(to_sql(parse_sql(sql))) == parse_sql(sql)
