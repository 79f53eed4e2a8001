"""Compliance-checker tests, centered on Example 2.1."""

import pytest

from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


@pytest.fixture
def checker(calendar_schema, calendar_policy):
    return ComplianceChecker(calendar_schema, calendar_policy)


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


class TestExample21:
    """The paper's Example 2.1, step by step."""

    def test_q1_allowed(self, checker):
        decision = checker.check(
            bound("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"),
            {"MyUId": 1},
        )
        assert decision.allowed
        assert decision.rewritings

    def test_q2_blocked_without_history(self, checker):
        decision = checker.check(
            bound("SELECT * FROM Events WHERE EId = 2"), {"MyUId": 1}
        )
        assert not decision.allowed

    def test_q2_allowed_with_history(self, checker, calendar_schema):
        trace = Trace()
        q1 = translate_select(
            bound("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"),
            calendar_schema,
        ).disjuncts[0]
        trace.record("q1", q1, Result(columns=["c"], rows=[(1,)]))
        decision = checker.check(
            bound("SELECT * FROM Events WHERE EId = 2"), {"MyUId": 1}, trace
        )
        assert decision.allowed
        assert decision.facts_considered >= 1

    def test_q2_still_blocked_when_q1_was_empty(self, checker, calendar_schema):
        trace = Trace()
        q1 = translate_select(
            bound("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"),
            calendar_schema,
        ).disjuncts[0]
        trace.record("q1", q1, Result(columns=["c"], rows=[]))
        decision = checker.check(
            bound("SELECT * FROM Events WHERE EId = 2"), {"MyUId": 1}, trace
        )
        assert not decision.allowed

    def test_history_disabled_blocks_q2(self, checker):
        # The check sees no trace: Q1's certified answer is not offered.
        decision = checker.check(
            bound("SELECT * FROM Events WHERE EId = 2"), {"MyUId": 1}, None
        )
        assert not decision.allowed


class TestSoundness:
    def test_other_users_attendance_blocked(self, checker):
        decision = checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 9"), {"MyUId": 1}
        )
        assert not decision.allowed

    def test_full_events_blocked(self, checker):
        decision = checker.check(bound("SELECT * FROM Events"), {"MyUId": 1})
        assert not decision.allowed

    def test_facts_of_other_users_do_not_help(self, checker, calendar_schema):
        # A fact about user 1's attendance must not justify user 9's view.
        trace = Trace()
        q1 = translate_select(
            bound("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"),
            calendar_schema,
        ).disjuncts[0]
        trace.record("q1", q1, Result(columns=["c"], rows=[(1,)]))
        decision = checker.check(
            bound("SELECT * FROM Events WHERE EId = 3"), {"MyUId": 1}, trace
        )
        assert not decision.allowed

    def test_untranslatable_query_blocked(self, checker):
        decision = checker.check(bound("SELECT COUNT(*) FROM Events"), {"MyUId": 1})
        assert not decision.allowed
        assert "fragment" in decision.reason


class TestUnions:
    def test_in_list_query_allowed_when_all_disjuncts_covered(self, checker):
        decision = checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 1 AND EId IN (2, 3)"),
            {"MyUId": 1},
        )
        assert decision.allowed
        assert len(decision.rewritings) == 2

    def test_union_blocked_if_any_disjunct_leaks(self, checker):
        decision = checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 1 OR UId = 9"),
            {"MyUId": 1},
        )
        assert not decision.allowed


class TestDecisionMetadata:
    def test_reason_and_duration_populated(self, checker):
        decision = checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 1"), {"MyUId": 1}
        )
        assert decision.allowed
        assert decision.duration_s >= 0
        assert "computable" in decision.reason

    def test_describe_mentions_verdict(self, checker):
        decision = checker.check(bound("SELECT * FROM Events"), {"MyUId": 1})
        assert decision.describe().startswith("BLOCK")
