"""Canonical-database (freezing) tests."""

import pytest

from repro.evaluate.answers import evaluate_cq
from repro.relalg.cq import CQ, Atom, Comp, Const, Var
from repro.relalg.frozen import freeze, solve_assignment
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select
from repro.util.errors import DbacError


def tr1(sql, schema):
    return translate_select(parse_select(sql), schema).disjuncts[0]


class TestFreeze:
    def test_query_returns_head_on_frozen_instance(self, dict_schema):
        query = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b WHERE S.c = 7", dict_schema)
        frozen = freeze(query)
        instance = {rel: set(rows) for rel, rows in frozen.facts.items()}
        assert frozen.head_row in evaluate_cq(query, instance)

    def test_constants_preserved(self, dict_schema):
        query = tr1("SELECT a FROM R WHERE b = 42", dict_schema)
        frozen = freeze(query)
        rows = frozen.facts["R"]
        assert any(row[1] == 42 for row in rows)

    def test_distinct_vars_get_distinct_values(self, dict_schema):
        query = tr1("SELECT a, b FROM R", dict_schema)
        frozen = freeze(query)
        row = next(iter(frozen.facts["R"]))
        assert row[0] != row[1]

    def test_equal_vars_share_value(self, dict_schema):
        query = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b", dict_schema)
        frozen = freeze(query)
        r_row = next(iter(frozen.facts["R"]))
        s_row = next(iter(frozen.facts["S"]))
        assert r_row[1] == s_row[0]

    def test_order_constraints_satisfied(self, dict_schema):
        query = tr1(
            "SELECT Name FROM Employees WHERE Age >= 60 AND Age < 65", dict_schema
        )
        frozen = freeze(query)
        row = next(iter(frozen.facts["Employees"]))
        age = row[2]
        assert 60 <= age < 65

    def test_unsatisfiable_raises(self, dict_schema):
        query = tr1("SELECT a FROM R WHERE b < 1 AND b > 2", dict_schema)
        with pytest.raises(DbacError):
            freeze(query)

    def test_param_values_pinned(self, dict_schema):
        query = tr1("SELECT EId FROM Attendance WHERE UId = ?MyUId", dict_schema)
        frozen = freeze(query, param_values={"MyUId": 9})
        row = next(iter(frozen.facts["Attendance"]))
        assert row[0] == 9


class TestSolveAssignment:
    def test_simple_chain(self):
        query = CQ(
            head=(),
            body=(Atom("T", (Var("x"),)), Atom("T", (Var("y"),))),
            comps=(Comp("<", Var("x"), Var("y")),),
        )
        assignment = solve_assignment(query)
        assert assignment is not None
        assert assignment[Var("x")] < assignment[Var("y")]

    def test_tight_integer_bounds(self):
        query = CQ(
            head=(),
            body=(Atom("T", (Var("x"),)),),
            comps=(
                Comp("<=", Const(5), Var("x")),
                Comp("<=", Var("x"), Const(5)),
            ),
        )
        assignment = solve_assignment(query)
        assert assignment is not None
        assert assignment[Var("x")] == 5

    def test_strict_point_unsatisfiable(self):
        query = CQ(
            head=(),
            body=(Atom("T", (Var("x"),)),),
            comps=(
                Comp("<", Const(5), Var("x")),
                Comp("<", Var("x"), Const(6)),
            ),
        )
        assignment = solve_assignment(query)
        # Satisfiable with a float strictly between 5 and 6.
        assert assignment is not None
        assert 5 < assignment[Var("x")] < 6

    def test_null_equality(self):
        query = CQ(
            head=(),
            body=(Atom("T", (Var("x"),)),),
            comps=(Comp("=", Var("x"), Const(None)),),
        )
        assignment = solve_assignment(query)
        assert assignment is not None
        assert assignment[Var("x")] is None
