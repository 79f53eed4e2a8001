"""A Block considers only the facts that could have allowed it.

The checker conjoins a session's facts only after the policy views alone
failed, and only the facts :func:`~repro.enforce.checker.helpful_facts`
keeps, so a Block costs what the empty-trace Block costs however much
unrelated history the session holds. Asserted as counts of rewriting
searches, not as wall time. Also here: the Block that names the fact it
lacked, and the per-check search budget that fails closed.
"""

from __future__ import annotations

import pytest

import repro.enforce.checker as checker_module
from repro.enforce import EnforcementProxy, PolicyViolation, Session
from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.relalg.compile import compile_policy
from repro.relalg.cq import Atom, Const
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app

PROBE = "SELECT Title FROM Events WHERE Time > 5"
LIST_MY_EVENTS = "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1"
Q2 = "SELECT * FROM Events WHERE EId = 2"


def bound(sql):
    return bind_parameters(parse_select(sql), [])


def attends(*events: int) -> Trace:
    """A trace certifying that user 1 attends ``events``: V2's guard facts."""
    return Trace.from_facts(Atom("Attendance", (Const(1), Const(e))) for e in events)


@pytest.fixture
def searches(monkeypatch) -> list:
    """One entry per rewriting search the checker starts."""
    calls: list = []
    search = checker_module.find_equivalent_rewriting

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(checker_module, "find_equivalent_rewriting", counted)
    return calls


@pytest.fixture
def calendar():
    return calendar_app.make_database(size=10, seed=3), calendar_app.ground_truth_policy()


def test_list_my_events_leaves_the_probe_as_cheap_as_an_empty_trace(calendar, searches):
    db, policy = calendar
    with pytest.raises(PolicyViolation):
        EnforcementProxy(db, policy, Session.for_user(1)).query(PROBE)
    empty_trace = len(searches)

    proxy = EnforcementProxy(db, policy, Session.for_user(1))
    proxy.query(LIST_MY_EVENTS)
    assert len(proxy.trace.facts) >= 6
    searches.clear()
    with pytest.raises(PolicyViolation) as blocked:
        proxy.query(PROBE)
    assert blocked.value.decision.facts_considered == len(proxy.trace.facts)
    assert blocked.value.decision.facts_kept == 0
    assert blocked.value.decision.reason == "no equivalent rewriting over policy views"
    assert len(searches) == empty_trace


def test_searches_stay_flat_in_the_number_of_guard_facts(calendar, searches):
    db, policy = calendar
    checker = ComplianceChecker(db.schema, policy)
    counts = {}
    for facts in (0, 1, 2, 4, 8, 32):
        searches.clear()
        decision = checker.check(bound(PROBE), {"MyUId": 1}, attends(*range(1, facts + 1)))
        assert not decision.allowed
        assert (decision.facts_considered, decision.facts_kept) == (facts, 0)
        counts[facts] = len(searches)
    assert set(counts.values()) == {counts[0]}, counts


def test_the_one_guard_fact_that_helps_is_the_one_considered(calendar, searches):
    db, policy = calendar
    checker = ComplianceChecker(db.schema, policy)
    counts = []
    for facts in (1, 2, 4, 8, 32):
        searches.clear()
        decision = checker.check(bound(Q2), {"MyUId": 1}, attends(*range(2, facts + 2)))
        assert decision.allowed
        assert (decision.facts_considered, decision.facts_kept) == (facts, 1)
        assert decision.facts_used == (Atom("Attendance", (Const(1), Const(2))),)
        counts.append(len(searches))
    assert len(set(counts)) == 1, counts


class TestTheMissingFact:
    def test_a_block_that_tried_facts_names_the_pattern_it_lacked(self, calendar):
        """User 3's attendance at event 2: V2 covers the event with the
        certified ``Attendance(1, 2)``, but only V4 reveals another user's
        attendance, and it also needs that user's ``Users`` row."""
        db, policy = calendar
        decision = ComplianceChecker(db.schema, policy).check(
            bound(
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId"
                " WHERE e.EId = 2 AND a.UId = 3"
            ),
            {"MyUId": 1},
            attends(2),
        )
        assert not decision.allowed and decision.facts_kept == 1
        assert decision.reason.startswith(
            "no equivalent rewriting over policy views and trace facts; would need Users(3, "
        )

    def test_a_block_whose_facts_were_all_pruned_reads_as_on_an_empty_trace(self, calendar):
        db, policy = calendar
        checker = ComplianceChecker(db.schema, policy)
        fresh = checker.check(bound("SELECT * FROM Events WHERE EId = 3"), {"MyUId": 1})
        pruned = checker.check(
            bound("SELECT * FROM Events WHERE EId = 3"), {"MyUId": 1}, attends(2)
        )
        assert not pruned.allowed
        assert (pruned.facts_considered, pruned.facts_kept) == (1, 0)
        assert pruned.reason == fresh.reason


class TestSearchBudget:
    STATEMENT = "SELECT EId FROM Attendance WHERE UId = 1"

    def test_an_exhausted_budget_blocks_what_the_search_allows(self, calendar, monkeypatch):
        db, policy = calendar
        checker = ComplianceChecker(
            db.schema,
            policy,
            compiled=compile_policy(db.schema, policy),
            skeletons=DecisionCache(policy),
        )
        assert checker.check(bound(self.STATEMENT), {"MyUId": 1}, allow_compiled=False).allowed
        monkeypatch.setattr(checker_module, "CHECK_STEP_BUDGET", 1)
        decision = checker.check(bound(self.STATEMENT), {"MyUId": 1})
        assert not decision.allowed
        assert decision.reason.startswith("budget:") and decision.over_budget
        assert checker.skeletons.size == 0  # not templated
        monkeypatch.undo()
        assert checker.check(bound(self.STATEMENT), {"MyUId": 1}).allowed
        assert checker.skeletons.size == 1

    def test_the_gateway_counts_and_audits_it(self, calendar, monkeypatch):
        db, policy = calendar
        gateway = EnforcementGateway(db, policy)
        records = []
        gateway.decision_audit = records.append
        connection = gateway.connect(1)
        monkeypatch.setattr(checker_module, "CHECK_STEP_BUDGET", 1)
        with pytest.raises(PolicyViolation) as blocked:
            connection.query(self.STATEMENT)
        assert blocked.value.decision.over_budget
        assert connection.stats.checks_over_budget == 1
        assert gateway.snapshot().counters["checks_over_budget"] == 1
        assert [record.allowed for record in records] == [False]
        assert gateway.shared_cache.size == 0
        monkeypatch.undo()
        assert connection.query(self.STATEMENT).rows
        assert gateway.snapshot().counters["checks_over_budget"] == 1
