"""Property test: the cached decision path agrees with the uncached checker.

The shared cache's safety argument (see ``repro.enforce.cache``) says a
template hit is only possible when a fresh :class:`ComplianceChecker`
run for the *requesting* session would also allow. We fuzz that claim:
random query shapes, random constants, random session bindings, and a
randomly populated trace — whenever the cache answers, the checker must
answer the same.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app

#: Query shapes over the calendar schema, with the number of holes.
SHAPES = [
    ("SELECT EId FROM Attendance WHERE UId = ?", 1),
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 2),
    ("SELECT * FROM Events WHERE EId = ?", 1),
    ("SELECT Title, Loc FROM Events WHERE EId = ?", 1),
    ("SELECT Name FROM Users WHERE UId = ?", 1),
    ("SELECT * FROM Events", 0),
]

ids = st.integers(min_value=1, max_value=6)


@st.composite
def scenarios(draw):
    """Two query instances of one shape, plus sessions and trace seeds."""
    shape_index = draw(st.integers(min_value=0, max_value=len(SHAPES) - 1))
    sql, holes = SHAPES[shape_index]
    store_args = [draw(ids) for _ in range(holes)]
    probe_args = [draw(ids) for _ in range(holes)]
    store_user = draw(ids)
    probe_user = draw(ids)
    # Attendance rows each session has "seen" (guard-query results).
    store_seen = draw(st.lists(st.tuples(ids, ids), max_size=3))
    probe_seen = draw(st.lists(st.tuples(ids, ids), max_size=3))
    return sql, store_args, probe_args, store_user, probe_user, store_seen, probe_seen


@pytest.fixture(scope="module")
def schema():
    return calendar_app.make_schema()


@pytest.fixture(scope="module")
def policy():
    return calendar_app.ground_truth_policy()


def make_trace(schema, seen):
    trace = Trace()
    for uid, eid in seen:
        guard = translate_select(
            bind_parameters(
                parse_select("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"),
                [uid, eid],
            ),
            schema,
        ).disjuncts[0]
        trace.record("guard", guard, Result(columns=["c"], rows=[(1,)]))
    return trace


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios())
def test_cache_hits_agree_with_uncached_checker(scenario, schema, policy):
    sql, store_args, probe_args, store_user, probe_user, store_seen, probe_seen = (
        scenario
    )
    checker = ComplianceChecker(schema, policy)
    cache = DecisionCache(policy)

    store_stmt = bind_parameters(parse_select(sql), store_args)
    store_trace = make_trace(schema, store_seen)
    stored = checker.check(store_stmt, {"MyUId": store_user}, store_trace)
    cache.store(store_stmt, {"MyUId": store_user}, stored)

    probe_stmt = bind_parameters(parse_select(sql), probe_args)
    probe_trace = make_trace(schema, probe_seen)
    hit = cache.lookup(probe_stmt, {"MyUId": probe_user}, probe_trace)
    fresh = checker.check(probe_stmt, {"MyUId": probe_user}, probe_trace)

    if hit is not None:
        # The safety property: a cache hit never over-allows.
        assert hit.allowed
        assert fresh.allowed == hit.allowed, (
            f"cache allowed {sql} args={probe_args} user={probe_user} "
            f"seen={probe_seen}, checker said {fresh.reason!r}"
        )
    # And storing never flips an uncached verdict (block decisions are
    # simply not cached).
    if not stored.allowed:
        assert cache.size == 0
