"""Decision-template cache tests: generalization and its soundness limits."""

import pytest

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


@pytest.fixture
def checker(calendar_schema, calendar_policy):
    return ComplianceChecker(calendar_schema, calendar_policy)


@pytest.fixture
def cache(calendar_policy):
    return DecisionCache(calendar_policy)


def warm(cache, checker, sql, args, bindings, trace=None):
    stmt = bound(sql, args)
    decision = checker.check(stmt, bindings, trace)
    assert decision.allowed
    cache.store(stmt, bindings, decision)
    return decision


class TestTemplateGeneralization:
    def test_same_shape_different_constants_hits(self, cache, checker):
        warm(cache, checker, "SELECT EId FROM Attendance WHERE UId = ?", [1], {"MyUId": 1})
        hit = cache.lookup(
            bound("SELECT EId FROM Attendance WHERE UId = ?", [7]), {"MyUId": 7}, None
        )
        assert hit is not None
        assert hit.from_cache

    def test_user_equality_pattern_enforced(self, cache, checker):
        warm(cache, checker, "SELECT EId FROM Attendance WHERE UId = ?", [1], {"MyUId": 1})
        # Asking for user 7's rows as user 8 breaks the equality pattern.
        miss = cache.lookup(
            bound("SELECT EId FROM Attendance WHERE UId = ?", [7]), {"MyUId": 8}, None
        )
        assert miss is None

    def test_distinctness_pattern_enforced(self, cache, checker):
        # Store with constants that do not collide with the SELECT-list
        # literal 1; a collision would (soundly but needlessly) constrain
        # the template's equality pattern.
        warm(
            cache,
            checker,
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
            [5, 9],
            {"MyUId": 5},
        )
        # uid == eid collapses two slots that were distinct in the template.
        miss = cache.lookup(
            bound("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [3, 3]),
            {"MyUId": 3},
            None,
        )
        assert miss is None
        # Same pattern (uid == session, eid distinct) hits.
        hit = cache.lookup(
            bound("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [3, 4]),
            {"MyUId": 3},
            None,
        )
        assert hit is not None

    def test_order_comparison_slots_pinned(
        self, cache, calendar_schema, calendar_policy
    ):
        from repro.policy import Policy, View
        from repro.workloads import employees

        schema = employees.make_schema()
        policy = employees.ground_truth_policy()
        checker = ComplianceChecker(schema, policy)
        cache = DecisionCache(policy)
        stmt = bound("SELECT Name FROM Employees WHERE Age >= ?", [60])
        decision = checker.check(stmt, {"MyUId": 1})
        assert decision.allowed
        cache.store(stmt, {"MyUId": 1}, decision)
        # Same shape with a different bound must NOT hit: 40 is pinned.
        miss = cache.lookup(
            bound("SELECT Name FROM Employees WHERE Age >= ?", [40]), {"MyUId": 1}, None
        )
        assert miss is None
        hit = cache.lookup(
            bound("SELECT Name FROM Employees WHERE Age >= ?", [60]), {"MyUId": 1}, None
        )
        assert hit is not None

    def test_block_decisions_not_cached(self, cache, checker):
        stmt = bound("SELECT * FROM Events")
        decision = checker.check(stmt, {"MyUId": 1})
        assert not decision.allowed
        cache.store(stmt, {"MyUId": 1}, decision)
        assert cache.size == 0


class TestFactPatterns:
    def test_history_dependent_decision_needs_matching_facts(
        self, cache, checker, calendar_schema
    ):
        trace = Trace()
        q1 = translate_select(
            bound("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"),
            calendar_schema,
        ).disjuncts[0]
        trace.record("q1", q1, Result(columns=["c"], rows=[(1,)]))
        warm(
            cache,
            checker,
            "SELECT * FROM Events WHERE EId = ?",
            [2],
            {"MyUId": 1},
            trace,
        )
        # Fresh trace without the fact: must not hit.
        assert (
            cache.lookup(
                bound("SELECT * FROM Events WHERE EId = ?", [2]), {"MyUId": 1}, Trace()
            )
            is None
        )
        # A matching fact for different constants: hits with renamed slots.
        other = Trace()
        q1b = translate_select(
            bound("SELECT 1 FROM Attendance WHERE UId = 5 AND EId = 9"),
            calendar_schema,
        ).disjuncts[0]
        other.record("q1b", q1b, Result(columns=["c"], rows=[(1,)]))
        hit = cache.lookup(
            bound("SELECT * FROM Events WHERE EId = ?", [9]), {"MyUId": 5}, other
        )
        assert hit is not None


class TestStats:
    def test_hit_rate(self, cache, checker):
        warm(cache, checker, "SELECT EId FROM Attendance WHERE UId = ?", [1], {"MyUId": 1})
        cache.lookup(
            bound("SELECT EId FROM Attendance WHERE UId = ?", [2]), {"MyUId": 2}, None
        )
        cache.lookup(bound("SELECT * FROM Events"), {"MyUId": 2}, None)
        assert cache.hits == 1
        assert cache.misses >= 1
        assert 0 < cache.hit_rate < 1


class TestParamsAreNamed:
    def test_a_template_never_answers_a_session_binding_another_param(
        self, calendar_db, calendar_policy
    ):
        """A proof about ``UId = ?MyUId`` says nothing to a session with
        no ``MyUId``: a fresh check Blocks it, and so must the template."""
        gateway = EnforcementGateway(calendar_db, calendar_policy)
        sql = "SELECT EId FROM Attendance WHERE UId = ?"
        try:
            gateway.connect({"MyUId": 1}).query(sql, [1])
            other = gateway.connect({"Other": 1})
            with pytest.raises(PolicyViolation) as blocked:
                other.query(sql, [1])
            assert not blocked.value.decision.from_cache
        finally:
            gateway.close()
