"""Prepared plans: the hoisted hit path must be decision-identical.

Two layers under test. :mod:`repro.sqlir.prepared` itself — sentinel
probing must reproduce ``skeletonize(bind(...))`` exactly for static
plans and *refuse* (fall back) whenever it could not — and the
:class:`EnforcementProxy` prepared API, which must agree with ``sql()``
on every decision, row, and trace fact.
"""

from __future__ import annotations

import pytest

from repro.enforce.decision import PolicyViolation
from repro.enforce.proxy import EnforcementProxy
from repro.serve import EnforcementGateway
from repro.sqlir.parser import parse_sql
from repro.sqlir.prepared import prepare_plan
from repro.sqlir.skeleton import skeletonize
from repro.workloads import calendar_app


def plan_for(sql: str):
    return prepare_plan(parse_sql(sql), sql)


class TestPlanConstruction:
    def test_static_plan_reproduces_classic_skeleton(self):
        sql = "SELECT EId FROM Attendance WHERE UId = ? AND EId = ?"
        plan = plan_for(sql)
        assert plan.is_select and plan.static
        for args in ([1, 2], [7, 7], ["a", "b"]):
            fast = plan.skeleton_for(args)
            classic = skeletonize(plan.bind(args))
            assert fast == classic

    def test_constants_and_args_mix_in_slot_order(self):
        sql = "SELECT EId FROM Attendance WHERE UId = 42 AND EId = ?"
        plan = plan_for(sql)
        fast = plan.skeleton_for([9])
        classic = skeletonize(plan.bind([9]))
        assert fast == classic
        assert 42 in fast.values and 9 in fast.values

    def test_named_parameters(self):
        sql = "SELECT EId FROM Attendance WHERE UId = ?me"
        plan = plan_for(sql)
        assert plan.named_params == ("me",)
        fast = plan.skeleton_for((), {"me": 3})
        classic = skeletonize(plan.bind((), {"me": 3}))
        assert fast == classic

    def test_grouped_statement_keeps_group_by_and_having(self):
        sql = (
            "SELECT EId FROM Attendance WHERE UId = ? GROUP BY EId"
            " HAVING COUNT(*) > ? ORDER BY EId"
        )
        plan = plan_for(sql)
        assert plan.static
        fast = plan.skeleton_for([1, 0])
        assert fast == skeletonize(plan.bind([1, 0]))
        assert fast.statement.group_by and fast.statement.having is not None
        assert fast.generalizable == (True, False)  # HAVING's ">" pins its slot

    def test_write_plan_is_parse_skip_only(self):
        plan = plan_for("UPDATE Events SET Title = 'x' WHERE EId = ?")
        assert plan.is_select is False
        assert plan.static is False
        assert plan.skeleton_for([1]) is None

    def test_no_parameter_statement(self):
        sql = "SELECT EId FROM Attendance WHERE UId = 1"
        plan = plan_for(sql)
        assert plan.static
        assert plan.skeleton_for() == skeletonize(plan.bind())


class TestFallbacks:
    def test_bool_argument_forces_classic_path(self):
        plan = plan_for("SELECT EId FROM Attendance WHERE UId = ?")
        assert plan.skeleton_for([True]) is None
        assert plan.skeleton_for([False]) is None

    def test_none_argument_forces_classic_path(self):
        plan = plan_for("SELECT EId FROM Attendance WHERE UId = ?")
        assert plan.skeleton_for([None]) is None

    def test_missing_binding_forces_classic_path(self):
        plan = plan_for("SELECT EId FROM Attendance WHERE UId = ? AND EId = ?")
        assert plan.skeleton_for([1]) is None  # one arg short
        named_plan = plan_for("SELECT EId FROM Attendance WHERE UId = ?me")
        assert named_plan.skeleton_for() is None

    def test_parameter_inside_exists_is_non_static(self):
        """skeletonize leaves EXISTS subqueries intact, so a parameter in
        there would change the skeleton per execution: the sentinel
        survives inline and the plan must refuse the fast path."""
        sql = (
            "SELECT EId FROM Events WHERE EXISTS "
            "(SELECT 1 FROM Attendance WHERE Attendance.UId = ?)"
        )
        plan = plan_for(sql)
        assert plan.static is False
        assert plan.skeleton_for([1]) is None
        # The classic path still works off the same plan object.
        bound = plan.bind([1])
        assert skeletonize(bound) is not None


def make_proxy(user_id: int = 1) -> EnforcementProxy:
    db = calendar_app.make_database(size=8, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy).connect(user_id)


class TestProxyPreparedPath:
    def test_rows_match_the_classic_path(self):
        proxy = make_proxy()
        sql = "SELECT EId FROM Attendance WHERE UId = ?"
        plan = proxy.prepare(sql)
        classic = proxy.sql(sql, [1])
        prepared = proxy.execute_prepared(plan, [1])
        assert sorted(prepared.rows) == sorted(classic.rows)

    def test_blocked_statements_stay_blocked(self):
        proxy = make_proxy()
        plan = proxy.prepare("SELECT * FROM Events WHERE EId = ?")
        with pytest.raises(PolicyViolation):
            proxy.execute_prepared(plan, [999])

    def test_prepared_probe_certifies_trace_facts(self):
        """Example 2.1 with the probe executed via the prepared path."""
        proxy = make_proxy()
        probe = proxy.prepare("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?")
        assert len(proxy.execute_prepared(probe, [1, 2])) == 1
        follow = proxy.sql("SELECT * FROM Events WHERE EId = 2")
        assert not follow.is_empty()

    def test_prepared_write_passes_through(self):
        proxy = make_proxy()
        plan = proxy.prepare("UPDATE Events SET Title = Title")
        count = proxy.execute_prepared(plan)
        assert isinstance(count, int) and count > 0

    def test_decision_agreement_across_a_session(self):
        """Replay the same mixed workload through two fresh proxies, one
        classic and one prepared; every (sql, args) pair must agree on
        allow/block and rows."""
        statements = [
            ("SELECT EId FROM Attendance WHERE UId = ?", [1]),
            ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 2]),
            ("SELECT * FROM Events WHERE EId = ?", [2]),
            ("SELECT * FROM Events WHERE EId = ?", [999]),
            ("SELECT UId, EId FROM Attendance WHERE UId = ?", [1]),
        ]
        classic_proxy = make_proxy()
        prepared_proxy = make_proxy()
        plans = {sql: prepared_proxy.prepare(sql) for sql, _ in statements}
        for sql, args in statements:
            try:
                classic = ("ok", sorted(classic_proxy.sql(sql, args).rows))
            except PolicyViolation:
                classic = ("blocked", None)
            try:
                prepared = (
                    "ok",
                    sorted(prepared_proxy.execute_prepared(plans[sql], args).rows),
                )
            except PolicyViolation:
                prepared = ("blocked", None)
            assert prepared == classic, f"disagreement on {sql} {args}"

    def test_fast_path_populates_the_decision_cache(self):
        policy = calendar_app.make_app().ground_truth_policy()
        db = calendar_app.make_database(size=8, seed=3)
        gateway = EnforcementGateway(db, policy)
        proxy = gateway.connect(1)
        plan = proxy.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        proxy.execute_prepared(plan, [1])
        assert gateway.shared_cache.size == 1
        proxy.execute_prepared(plan, [1])
        assert gateway.metrics.counter("cache_hits") == 1
