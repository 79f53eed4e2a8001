"""The compiled checker learns templates that never change a decision.

A checker handed a :class:`CompiledPolicy` and a template store runs the
full check every time and generalizes each outcome into the store; the
store's one probe (:meth:`DecisionCache.lookup`) replays it for later
statements of the same shape. These tests pin the contract that the
replay never changes an answer. Block templates are the delicate part
— a Block derived under one trace is only sound to replay while the
requester's trace still has no facts in the decision's relevant
relations — so Example 2.1's dynamics (blocked before attending, allowed
after) get a dedicated regression, and a hypothesis property drives
random SPJ statements and traces through probe-then-check and a
template-free twin demanding identical allow/block and rewritings.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg.compile import compile_policy
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


def learning_checker(schema, policy):
    """A compiled checker and the store it learns into, as an epoch has."""
    return ComplianceChecker(
        schema,
        policy,
        compiled=compile_policy(schema, policy),
        skeletons=DecisionCache(policy),
    )


@pytest.fixture
def compiled_checker(calendar_schema, calendar_policy):
    return learning_checker(calendar_schema, calendar_policy)


def attendance_trace(schema, uid, eid, rows=((1,),)):
    trace = Trace()
    q = translate_select(
        bound(f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = {eid}"),
        schema,
    ).disjuncts[0]
    trace.record("q", q, Result(columns=["c"], rows=list(rows)))
    return trace


class TestAllowFastPath:
    def test_second_check_is_a_template_hit_with_same_answer(self, compiled_checker):
        store = compiled_checker.skeletons
        stmt = bound("SELECT EId FROM Attendance WHERE UId = 1")
        first = compiled_checker.check(stmt, {"MyUId": 1})
        assert (store.hits, store.misses) == (0, 0)  # the checker never probes
        second = store.lookup(stmt, {"MyUId": 1}, None)
        assert store.hits == 1 and store.compiled_hits == 0  # an Allow answered
        assert first.allowed and second.allowed
        assert second.from_cache and not first.from_cache

    def test_template_generalizes_across_users(self, compiled_checker):
        compiled_checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 1"), {"MyUId": 1}
        )
        decision = compiled_checker.skeletons.lookup(
            bound("SELECT EId FROM Attendance WHERE UId = 7"), {"MyUId": 7}, None
        )
        assert decision is not None and decision.allowed

    def test_template_does_not_leak_across_mismatched_bindings(self, compiled_checker):
        compiled_checker.check(
            bound("SELECT EId FROM Attendance WHERE UId = 1"), {"MyUId": 1}
        )
        # User 1's template must not allow user 9 reading user 1's rows.
        stmt = bound("SELECT EId FROM Attendance WHERE UId = 1")
        assert compiled_checker.skeletons.lookup(stmt, {"MyUId": 9}, None) is None
        assert not compiled_checker.check(stmt, {"MyUId": 9}).allowed

    def test_fact_backed_allow_reconstructs_facts_used(
        self, compiled_checker, calendar_schema
    ):
        trace = attendance_trace(calendar_schema, 1, 2)
        stmt = bound("SELECT * FROM Events WHERE EId = 2")
        first = compiled_checker.check(stmt, {"MyUId": 1}, trace)
        assert first.allowed and first.facts_used
        second = compiled_checker.skeletons.lookup(stmt, {"MyUId": 1}, trace)
        assert second is not None and second.allowed
        # The hit names the trace facts that satisfied the pattern, so
        # audit/metrics consumers see what it rested on.
        assert second.facts_used
        assert {fact.rel for fact in second.facts_used} == {"Attendance"}
        assert compiled_checker.skeletons.lookup(stmt, {"MyUId": 1}, Trace()) is None


class TestBlockTemplates:
    """Example 2.1's dynamics: Blocks replay only while their guard holds."""

    def test_block_is_templated_and_replayed_without_facts(self, compiled_checker):
        store = compiled_checker.skeletons
        stmt = bound("SELECT * FROM Events WHERE EId = 2")
        first = compiled_checker.check(stmt, {"MyUId": 1})
        assert not first.allowed
        assert store.blocks_stored == 1
        second = store.lookup(stmt, {"MyUId": 1}, Trace())
        assert second is not None and not second.allowed and second.from_cache
        assert store.compiled_hits == store.hits == 1

    def test_block_template_yields_once_attendance_lands(
        self, compiled_checker, calendar_schema
    ):
        stmt = bound("SELECT * FROM Events WHERE EId = 2")
        assert not compiled_checker.check(stmt, {"MyUId": 1}).allowed
        # The attendance fact breaks the guard: the template must NOT
        # replay the stale Block; the full check now allows.
        trace = attendance_trace(calendar_schema, 1, 2)
        assert compiled_checker.skeletons.lookup(stmt, {"MyUId": 1}, trace) is None
        assert compiled_checker.check(stmt, {"MyUId": 1}, trace).allowed
        assert compiled_checker.skeletons.compiled_hits == 0

    def test_empty_result_facts_do_not_break_the_guard(
        self, compiled_checker, calendar_schema
    ):
        stmt = bound("SELECT * FROM Events WHERE EId = 2")
        assert not compiled_checker.check(stmt, {"MyUId": 1}).allowed
        trace = attendance_trace(calendar_schema, 1, 2, rows=())
        # An empty q1 certifies nothing: the guard still holds.
        decision = compiled_checker.skeletons.lookup(stmt, {"MyUId": 1}, trace)
        assert decision is not None and not decision.allowed
        assert not compiled_checker.check(stmt, {"MyUId": 1}, trace).allowed

    def test_fact_derived_block_is_never_templated(
        self, compiled_checker, calendar_schema
    ):
        # A check that *considered* facts cannot produce a replayable
        # Block: those facts may not hold for the next requester.
        trace = attendance_trace(calendar_schema, 1, 2)
        stmt = bound("SELECT * FROM Events WHERE EId = 3")
        decision = compiled_checker.check(stmt, {"MyUId": 1}, trace)
        assert not decision.allowed
        if decision.facts_considered:
            assert compiled_checker.skeletons.blocks_stored == 0

    def test_fragment_block_replays_unconditionally(
        self, compiled_checker, calendar_schema
    ):
        stmt = bound("SELECT COUNT(*) FROM Events")
        first = compiled_checker.check(stmt, {"MyUId": 1})
        assert not first.allowed and "fragment" in first.reason
        trace = attendance_trace(calendar_schema, 1, 2)
        second = compiled_checker.skeletons.lookup(stmt, {"MyUId": 1}, trace)
        assert second is not None and not second.allowed
        assert compiled_checker.skeletons.compiled_hits == 1


class TestAllowCompiledFlag:
    def test_allow_compiled_false_bypasses_and_does_not_learn(
        self, compiled_checker
    ):
        stmt = bound("SELECT EId FROM Attendance WHERE UId = 1")
        decision = compiled_checker.check(stmt, {"MyUId": 1}, allow_compiled=False)
        assert decision.allowed
        store = compiled_checker.skeletons
        assert (store.size, store.stores, store.hits, store.misses) == (0, 0, 0, 0)
        blocked = bound("SELECT * FROM Events WHERE EId = 2")
        assert not compiled_checker.check(blocked, {"MyUId": 1}, allow_compiled=False).allowed
        assert store.size == store.blocks_stored == 0

    def test_allow_compiled_false_ignores_existing_templates(self, compiled_checker):
        stmt = bound("SELECT EId FROM Attendance WHERE UId = 1")
        compiled_checker.check(stmt, {"MyUId": 1})
        store = compiled_checker.skeletons
        stores = store.stores
        decision = compiled_checker.check(stmt, {"MyUId": 1}, allow_compiled=False)
        assert decision.allowed and not decision.from_cache
        assert decision.rewritings  # a full check's proof, not a replay
        assert (store.stores, store.duplicates_skipped, store.hits) == (stores, 0, 0)

    def test_a_checker_without_a_store_learns_nothing(
        self, calendar_schema, calendar_policy
    ):
        checker = ComplianceChecker(
            calendar_schema,
            calendar_policy,
            compiled=compile_policy(calendar_schema, calendar_policy),
        )
        assert checker.skeletons is None
        assert checker.check(bound("SELECT EId FROM Attendance WHERE UId = 1"), {"MyUId": 1}).allowed
        assert checker.skeletons is None


# --------------------------------------------------------------------------
# Hypothesis: compiled and template-free checkers are indistinguishable
# --------------------------------------------------------------------------

SHAPES = [
    ("SELECT EId FROM Attendance WHERE UId = ?", 1),
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 2),
    ("SELECT * FROM Events WHERE EId = ?", 1),
    ("SELECT Title, Loc FROM Events WHERE EId = ?", 1),
    ("SELECT Name FROM Users WHERE UId = ?", 1),
    ("SELECT EId FROM Attendance WHERE UId = ? AND EId IN (?, ?)", 3),
    ("SELECT COUNT(*) FROM Events", 0),
]

values = st.sampled_from([1, 2, 3, 4])


@st.composite
def scenarios(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        shape, holes = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
        args = [draw(values) for _ in range(holes)]
        user = draw(values)
        # Optional trace: user has witnessed attending (uid, eid).
        witnessed = draw(
            st.lists(st.tuples(values, values), max_size=2)
        )
        steps.append((shape, args, user, witnessed))
    return steps


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=scenarios())
def test_compiled_checker_agrees_with_template_free_checker(steps):
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    with_templates = learning_checker(schema, policy)
    store = with_templates.skeletons
    template_free = ComplianceChecker(schema, policy)
    for shape, args, user, witnessed in steps:
        stmt = bound(shape, args)
        trace = Trace()
        for uid, eid in witnessed:
            q = translate_select(
                bound(f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = {eid}"),
                schema,
            ).disjuncts[0]
            trace.record("w", q, Result(columns=["c"], rows=[(1,)]))
        # What a gateway session does: probe the store once, else check.
        got = store.lookup(stmt, {"MyUId": user}, trace)
        replayed = got is not None
        if not replayed:
            got = with_templates.check(stmt, {"MyUId": user}, trace)
        want = template_free.check(stmt, {"MyUId": user}, trace)
        assert got.allowed == want.allowed, (shape, args, user, witnessed)
        if not replayed:
            # Full-path decisions must match to the rewriting; template
            # hits replay the answer without re-deriving one.
            assert got.rewritings == want.rewritings
