"""Utility-module tests."""

from repro.util.errors import DbacError, EngineError, ParseError, PolicyError
from repro.util.text import comma_join, fresh_name_factory, indent, sql_quote


class TestSqlQuote:
    def test_null(self):
        assert sql_quote(None) == "NULL"

    def test_booleans(self):
        assert sql_quote(True) == "TRUE"
        assert sql_quote(False) == "FALSE"

    def test_string_escaping(self):
        assert sql_quote("it's") == "'it''s'"

    def test_numbers(self):
        assert sql_quote(5) == "5"
        assert sql_quote(2.5) == "2.5"


class TestTextHelpers:
    def test_comma_join(self):
        assert comma_join(["a", "b"]) == "a, b"
        assert comma_join([]) == ""

    def test_indent(self):
        assert indent("a\nb") == "  a\n  b"

    def test_fresh_names_unique(self):
        fresh = fresh_name_factory("t")
        assert fresh() == "t0"
        assert fresh() == "t1"


class TestErrorHierarchy:
    def test_all_derive_from_dbac_error(self):
        for exc_type in (ParseError, EngineError, PolicyError):
            assert issubclass(exc_type, DbacError)

    def test_parse_error_renders_caret(self):
        error = ParseError("bad token", position=3, sql="SELECT")
        text = str(error)
        assert "bad token" in text
        assert "^" in text

    def test_parse_error_without_position(self):
        assert str(ParseError("oops")) == "oops"


class TestDecisionExplain:
    def test_allow_explanation_names_views(self, calendar_schema, calendar_policy):
        from repro.enforce.checker import ComplianceChecker
        from repro.sqlir.params import bind_parameters
        from repro.sqlir.parser import parse_select

        checker = ComplianceChecker(calendar_schema, calendar_policy)
        stmt = bind_parameters(
            parse_select("SELECT EId FROM Attendance WHERE UId = ?"), [1]
        )
        decision = checker.check(stmt, {"MyUId": 1})
        text = decision.explain()
        assert "V1" in text

    def test_block_explanation_states_gap(self, calendar_schema, calendar_policy):
        from repro.enforce.checker import ComplianceChecker
        from repro.sqlir.parser import parse_select

        checker = ComplianceChecker(calendar_schema, calendar_policy)
        decision = checker.check(parse_select("SELECT * FROM Events"), {"MyUId": 1})
        assert "no combination of policy views" in decision.explain()

    def test_history_explanation_lists_facts(self, calendar_schema, calendar_policy):
        from repro.enforce.checker import ComplianceChecker
        from repro.enforce.trace import Trace
        from repro.engine.executor import Result
        from repro.relalg.translate import translate_select
        from repro.sqlir.params import bind_parameters
        from repro.sqlir.parser import parse_select

        checker = ComplianceChecker(calendar_schema, calendar_policy)
        trace = Trace()
        q1 = translate_select(
            bind_parameters(
                parse_select("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"),
                [1, 2],
            ),
            calendar_schema,
        ).disjuncts[0]
        trace.record("q1", q1, Result(columns=["c"], rows=[(1,)]))
        decision = checker.check(
            bind_parameters(parse_select("SELECT * FROM Events WHERE EId = ?"), [2]),
            {"MyUId": 1},
            trace,
        )
        text = decision.explain()
        assert "certified trace facts" in text
        assert "Attendance(1, 2)" in text
