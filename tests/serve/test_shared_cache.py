"""DecisionCache shared between sessions: cross-session safety,
invalidation, thread safety."""

from __future__ import annotations

import threading

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


def trace_with_attendance(schema, uid, eid):
    """A trace whose session has seen its Attendance(uid, eid) row."""
    trace = Trace()
    guard = translate_select(
        bound(f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = {eid}"),
        schema,
    ).disjuncts[0]
    trace.record("guard", guard, Result(columns=["c"], rows=[(1,)]))
    return trace


class TestCrossSessionSafety:
    def test_history_free_template_serves_other_sessions(
        self, calendar_schema, calendar_policy
    ):
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        stmt = bound("SELECT EId FROM Attendance WHERE UId = ?", [1])
        decision = checker.check(stmt, {"MyUId": 1})
        assert decision.allowed
        cache.store(stmt, {"MyUId": 1}, decision)
        # Another user asking about *their own* rows: same equality
        # pattern, hit.
        other = cache.lookup(
            bound("SELECT EId FROM Attendance WHERE UId = ?", [9]), {"MyUId": 9}, Trace()
        )
        assert other is not None and other.allowed
        # Another user asking about user 1's rows: pattern broken, miss.
        assert (
            cache.lookup(
                bound("SELECT EId FROM Attendance WHERE UId = ?", [1]),
                {"MyUId": 9},
                Trace(),
            )
            is None
        )

    def test_trace_dependent_template_never_leaks_across_sessions(
        self, calendar_schema, calendar_policy
    ):
        """User A's history must not allow user B's fetch (Example 2.1)."""
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        trace_a = trace_with_attendance(calendar_schema, 1, 2)
        stmt = bound("SELECT * FROM Events WHERE EId = ?", [2])
        decision = checker.check(stmt, {"MyUId": 1}, trace_a)
        assert decision.allowed and decision.facts_used
        cache.store(stmt, {"MyUId": 1}, decision)

        # Same query shape from a session with an empty trace: miss.
        assert (
            cache.lookup(bound("SELECT * FROM Events WHERE EId = ?", [2]), {"MyUId": 3}, Trace())
            is None
        )
        # A session that certified a *different* event: still a miss for
        # event 2, hit for its own event.
        trace_b = trace_with_attendance(calendar_schema, 3, 7)
        assert (
            cache.lookup(bound("SELECT * FROM Events WHERE EId = ?", [2]), {"MyUId": 3}, trace_b)
            is None
        )
        hit = cache.lookup(
            bound("SELECT * FROM Events WHERE EId = ?", [7]), {"MyUId": 3}, trace_b
        )
        assert hit is not None and hit.allowed


class TestWriteInvalidation:
    def test_invalidation_is_observed_by_every_session(
        self, calendar_schema, calendar_policy
    ):
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        stmt = bound("SELECT EId FROM Attendance WHERE UId = ?", [1])
        decision = checker.check(stmt, {"MyUId": 1})
        cache.store(stmt, {"MyUId": 1}, decision)
        assert cache.size == 1

        evicted = cache.invalidate_table("Attendance")
        assert evicted == 1
        assert cache.invalidations == 1
        # Every session — including the one that stored it — misses now.
        for uid in (1, 2, 3):
            assert (
                cache.lookup(
                    bound("SELECT EId FROM Attendance WHERE UId = ?", [uid]),
                    {"MyUId": uid},
                    Trace(),
                )
                is None
            )

    def test_fact_dependent_templates_evicted_by_guard_table_write(
        self, calendar_schema, calendar_policy
    ):
        """A template justified by an Attendance fact dies on Attendance writes."""
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        trace = trace_with_attendance(calendar_schema, 1, 2)
        stmt = bound("SELECT * FROM Events WHERE EId = ?", [2])
        decision = checker.check(stmt, {"MyUId": 1}, trace)
        assert decision.facts_used
        cache.store(stmt, {"MyUId": 1}, decision)
        # The query reads Events, but the justification leaned on an
        # Attendance fact: a write to either table evicts it.
        assert cache.invalidate_table("Attendance") == 1
        assert cache.size == 0

    def test_unrelated_table_write_evicts_nothing(
        self, calendar_schema, calendar_policy
    ):
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        stmt = bound("SELECT EId FROM Attendance WHERE UId = ?", [1])
        cache.store(stmt, {"MyUId": 1}, checker.check(stmt, {"MyUId": 1}))
        assert cache.invalidate_table("Events") == 0
        assert cache.size == 1


class TestThreadSafety:
    def test_concurrent_sessions_share_without_corruption(
        self, calendar_schema, calendar_policy
    ):
        """Many threads look up / store / invalidate against one cache."""
        cache = DecisionCache(calendar_policy)
        checker = ComplianceChecker(calendar_schema, calendar_policy)
        # One decision per distinct query shape, computed up front.
        shapes = [
            "SELECT EId FROM Attendance WHERE UId = ?",
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
        ]
        decisions = {}
        for shape in shapes:
            argc = shape.count("?")
            stmt = bound(shape, list(range(1, argc + 1)))
            decisions[shape] = checker.check(stmt, {"MyUId": 1})
            assert decisions[shape].allowed
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def session(uid: int) -> None:
            try:
                barrier.wait()
                for round_no in range(50):
                    shape = shapes[round_no % len(shapes)]
                    argc = shape.count("?")
                    args = [uid] * argc
                    stmt = bound(shape, args)
                    hit = cache.lookup(stmt, {"MyUId": uid}, None)
                    if hit is None:
                        cache.store(stmt, {"MyUId": uid}, decisions[shape])
                    if round_no % 17 == 0:
                        cache.invalidate_table("Attendance")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=session, args=(uid,)) for uid in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 50
        # Invalidations ran, and the cache is still internally consistent.
        assert stats["invalidations"] > 0
        assert cache.size <= len(shapes) * 2
