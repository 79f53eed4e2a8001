"""EXISTS-subquery tests: parsing, execution, and RLS integration."""

import pytest

from repro.enforce import PolicyViolation
from repro.enforce.baselines import RowLevelSecurityProxy
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters, collect_parameters
from repro.sqlir.parser import parse_select, parse_sql
from repro.sqlir.printer import to_sql
from repro.util.errors import EngineError, TranslationError
from repro.workloads import calendar_app


class TestParsing:
    def test_exists_parses(self):
        stmt = parse_select(
            "SELECT Title FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)"
        )
        assert isinstance(stmt.where, ast.Exists)

    def test_not_exists(self):
        stmt = parse_select(
            "SELECT 1 FROM Events e WHERE NOT EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)"
        )
        assert isinstance(stmt.where, ast.Not)
        assert isinstance(stmt.where.operand, ast.Exists)

    def test_roundtrip(self):
        sql = (
            "SELECT Title FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = ?MyUId)"
        )
        assert parse_sql(to_sql(parse_sql(sql))) == parse_sql(sql)

    def test_params_collected_inside_subquery(self):
        stmt = parse_select(
            "SELECT 1 FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.UId = ? AND a.EId = ?X)"
        )
        positional, named = collect_parameters(stmt)
        assert positional == [0]
        assert named == ["X"]

    def test_binding_reaches_subquery(self):
        stmt = parse_select(
            "SELECT 1 FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.UId = ?)"
        )
        bound = bind_parameters(stmt, [7])
        assert "a.UId = 7" in to_sql(bound)


class TestExecution:
    def test_correlated_exists(self, calendar_db):
        rows = calendar_db.query(
            "SELECT e.EId FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = ?)",
            [1],
        ).rows
        expected = {
            (eid,)
            for (eid,) in calendar_db.query(
                "SELECT EId FROM Attendance WHERE UId = 1"
            ).rows
        }
        assert set(rows) == expected

    def test_not_exists(self, calendar_db):
        with_attendees = {
            r[0] for r in calendar_db.query("SELECT EId FROM Attendance").rows
        }
        rows = calendar_db.query(
            "SELECT e.EId FROM Events e WHERE NOT EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)"
        ).rows
        assert {r[0] for r in rows}.isdisjoint(with_attendees)

    def test_uncorrelated_exists(self, calendar_db):
        count = calendar_db.query(
            "SELECT COUNT(*) FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Users u WHERE u.UId = 1)"
        ).scalar()
        assert count == calendar_db.row_count("Events")

    def test_unknown_alias_in_subquery(self, calendar_db):
        with pytest.raises(EngineError):
            calendar_db.query(
                "SELECT 1 FROM Events e WHERE EXISTS"
                " (SELECT 1 FROM Attendance a WHERE a.EId = zz.EId)"
            )


class TestBoundaries:
    def test_translator_rejects_exists(self, calendar_schema):
        stmt = parse_select(
            "SELECT Title FROM Events e WHERE EXISTS"
            " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)"
        )
        with pytest.raises(TranslationError):
            translate_select(stmt, calendar_schema)

    def test_proxy_blocks_exists_queries(self, calendar_db, calendar_policy):
        proxy = EnforcementGateway(calendar_db, calendar_policy).connect(1)
        with pytest.raises(PolicyViolation) as err:
            proxy.query(
                "SELECT Title FROM Events e WHERE EXISTS"
                " (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = 1)"
            )
        assert "fragment" in err.value.decision.reason


class TestRlsWithExists:
    def test_events_filtered_to_attended(self, calendar_db):
        app = calendar_app.make_app()
        rls = RowLevelSecurityProxy(calendar_db, app.rls_predicates, {"MyUId": 1})
        mine = {
            r[0]
            for r in calendar_db.query(
                "SELECT EId FROM Attendance WHERE UId = 1"
            ).rows
        }
        rows = rls.query("SELECT EId FROM Events").rows
        assert {r[0] for r in rows} == mine
