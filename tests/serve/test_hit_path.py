"""What a cache hit no longer does, counted — not timed.

One plan per SQL text (``Database.prepare``) carries everything that is a
function of the statement's shape, and every session indexes its
certified facts. The counts below repeat exactly, so they can gate:
the second execution of a shape translates nothing, skeletonizes
nothing, prints nothing, closes no constraint set and binds once — by
whichever entry point it arrives — and a history-dependent hit asks the
trace, not a scan of it.
"""

from __future__ import annotations

import sys

import pytest

from repro.enforce import PolicyViolation
from repro.enforce import cache as cache_module
from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import Decision
from repro.enforce.trace import Trace
from repro.engine import database as database_module
from repro.lifecycle import LifecycleManager
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import Atom, Const
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.sqlir.printer import to_sql
from repro.sqlir.skeleton import skeletonize
from repro.workloads import calendar_app
from tests.conftest import reference_verdicts

MINE = "SELECT EId FROM Attendance WHERE UId = ?"
PROBE = "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
EVENT = "SELECT * FROM Events WHERE EId = ?"
JOINED = (
    "SELECT e.EId, e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId"
    " WHERE a.UId = ?"
)


def make_gateway() -> EnforcementGateway:
    app = calendar_app.make_app()
    return EnforcementGateway(app.make_database(12, 3), app.ground_truth_policy())


def spy_on(monkeypatch, function) -> list:
    """Count calls of a module-level function, wherever ``repro`` bound it
    (``from x import f`` copies the reference into the importing module)."""
    calls: list[tuple] = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, spy)
    return calls


def attended_event(gateway, user: int) -> int:
    return gateway.db.query(
        "SELECT EId FROM Attendance WHERE UId = ? ORDER BY EId", [user]
    ).rows[0][0]


class TestSecondExecutionOfAShape:
    @pytest.mark.parametrize("entry", ["sql", "query", "execute_prepared"])
    def test_a_repeated_shape_recomputes_nothing_of_its_shape(self, monkeypatch, entry):
        gateway = make_gateway()

        def run(connection, sql, args):
            if entry == "execute_prepared":
                return connection.execute_prepared(connection.prepare(sql), args)
            return getattr(connection, entry)(sql, args)

        # First executions: parse, plan, miss, full check, learn templates
        # (the event lookup's is history-dependent: Example 2.1).
        first = gateway.connect(2)
        event = attended_event(gateway, 2)
        script = [(MINE, [2]), (PROBE, [2, event]), (EVENT, [event]), (JOINED, [2])]
        for sql, args in script:
            run(first, sql, args)
        other = gateway.connect(3)
        other_event = attended_event(gateway, 3)
        counter = gateway.metrics.counter
        before = counter("cache_hits"), counter("cache_misses")

        constraint_sets: list[object] = []
        plain_init = ConstraintSet.__init__

        def counted_init(self, *args, **kwargs):
            constraint_sets.append(self)
            plain_init(self, *args, **kwargs)

        monkeypatch.setattr(ConstraintSet, "__init__", counted_init)
        recomputed = {
            function.__name__: spy_on(monkeypatch, function)
            for function in (translate_select, skeletonize, to_sql)
        }
        binds = spy_on(monkeypatch, bind_parameters)
        # Second executions: the same session again, then another one
        # (other values, same slot partition) on the shared plans.
        repeats = script + [
            (MINE, [3]),
            (PROBE, [3, other_event]),
            (EVENT, [other_event]),
            (JOINED, [3]),
        ]
        for index, (sql, args) in enumerate(repeats):
            rows = run(first if index < len(script) else other, sql, args).rows
            assert rows
        assert counter("cache_hits") - before[0] == len(repeats)
        assert counter("cache_misses") == before[1]
        assert {name: len(calls) for name, calls in recomputed.items()} == {
            "translate_select": 0,
            "skeletonize": 0,
            "to_sql": 0,
        }
        assert constraint_sets == []
        assert len(binds) == len(repeats)
        assert len(other.trace.facts) >= 3 and len(other.trace) == 4
        gateway.close()


class TestHistoryDependentHitAsksTheIndex:
    def test_one_fact_match_per_determined_pattern_over_a_full_trace(self, monkeypatch):
        policy = calendar_app.ground_truth_policy()
        cache = DecisionCache(policy)
        needed = (
            Atom("Attendance", (Const(1), Const(900))),
            Atom("Users", (Const(1), Const("u"))),
        )
        stmt = bind_parameters(parse_select(EVENT), [900])
        cache.store(
            stmt, {"MyUId": 1}, Decision(True, to_sql(stmt), "r", facts_used=needed)
        )
        filler = [Atom("Attendance", (Const(1), Const(eid))) for eid in range(254)]
        trace = Trace.from_facts([*filler, *needed])
        assert len(trace.facts) == trace.max_facts == 256
        matches = spy_on(monkeypatch, cache_module._fact_matches)
        hit = cache.lookup(stmt, {"MyUId": 1}, trace)
        assert hit is not None and hit.from_cache and hit.facts_used == needed
        assert len(matches) <= len(needed)
        # And a miss is no scan either: the probe finds nothing to match.
        del matches[:]
        assert cache.lookup(stmt, {"MyUId": 1}, Trace.from_facts(filler)) is None
        assert matches == []


class TestOneProbePerStatement:
    def test_a_miss_probes_once_and_a_repeated_block_skips_the_batcher(self, monkeypatch):
        gateway = make_gateway()
        probes: list[object] = []
        plain_lookup = DecisionCache.lookup

        def counted_lookup(self, *args, **kwargs):
            probes.append(args[0])
            return plain_lookup(self, *args, **kwargs)

        monkeypatch.setattr(DecisionCache, "lookup", counted_lookup)
        # A never-seen statement: one probe, one full check.
        gateway.connect(1).sql(MINE, [1])
        assert len(probes) == 1
        counters = gateway.snapshot().counters
        assert (counters["batch_checks"], counters["compile_misses"]) == (1, 1)
        # A fact-free Block, twice: the second is the probe's answer alone.
        connection = gateway.connect(2)
        attended = {row[0] for row in gateway.db.query(MINE, [2]).rows}
        events = sorted(row[0] for row in gateway.db.query("SELECT EId FROM Events").rows)
        unattended = next(eid for eid in events if eid not in attended)
        for _ in range(2):
            with pytest.raises(PolicyViolation):
                connection.sql(EVENT, [unattended])
        assert len(probes) == 3
        after = gateway.snapshot().counters
        assert after["batch_checks"] == 2  # the first Block's check only
        assert after["compiled_hits"] == 1 and after["shared_cache_blocks_stored"] == 1
        assert (after["cache_hits"], after["cache_misses"]) == (1, 2)
        gateway.close()


PLAIN = "SELECT EId FROM Attendance WHERE UId = 1"
GROUPED = "SELECT EId FROM Attendance WHERE UId = 1 GROUP BY EId HAVING COUNT(*) > 0"
PLAIN_UID = "SELECT UId FROM Attendance WHERE UId = 1"
GROUPED_UID = "SELECT UId FROM Attendance WHERE UId = 1 GROUP BY UId HAVING COUNT(*) > 0"


def verdicts(connect, statements, sessions=2) -> list[bool]:
    """Allow/block per statement, each session opened by ``connect``."""
    outcome = []
    for _ in range(sessions):
        connection = connect()
        for sql in statements:
            try:
                connection.sql(sql)
                outcome.append(True)
            except PolicyViolation:
                outcome.append(False)
    return outcome


class TestGroupedTwinIsDecidedOnItsOwn:
    """``skeletonize`` used to drop GROUP BY/HAVING, so a statement and its
    grouped twin shared a template: the twin was allowed from the cache
    although the checker blocks it (fail-open), or — learned the other way
    round — the plain statement read a fragment Block."""

    @pytest.mark.parametrize(
        "statements",
        [(PLAIN, GROUPED), (GROUPED, PLAIN), (GROUPED_UID, PLAIN_UID)],
    )
    def test_both_orders_agree_with_the_uncached_checker(self, statements):
        gateway = make_gateway()
        # The reference: no store, an uncompiled checker.
        app = calendar_app.make_app()
        script = [(sql, []) for sql in statements]
        reference = reference_verdicts(
            app.make_database(12, 3), gateway.policy, [({"MyUId": 1}, script)] * 2
        )
        assert sorted(reference[:2]) == [False, True]  # grouped: outside the fragment
        assert verdicts(lambda: gateway.connect(1), statements) == reference
        gateway.close()


class TestNoCheckerPerSession:
    def test_connect_builds_none_and_a_reload_leaves_none_behind(self, monkeypatch):
        gateway = make_gateway()
        lifecycle = LifecycleManager(gateway)
        built: list[object] = []
        plain_init = ComplianceChecker.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            plain_init(self, *args, **kwargs)

        monkeypatch.setattr(ComplianceChecker, "__init__", counted_init)
        connection = gateway.connect(1)
        connection.sql(MINE, [1])
        connection.sql(EVENT, [attended_event(gateway, 1)])
        assert built == []
        lifecycle.reload(calendar_app.ground_truth_policy())
        assert len(built) == 1  # the new epoch's, not one per session
        assert built[0] is gateway.epoch.checker
        connection.sql(MINE, [1])
        assert len(built) == 1
        gateway.close()


class TestPlanTableIsBounded:
    def test_distinct_texts_leave_at_most_the_cap(self, monkeypatch):
        """An application that inlines literals sends a new text per
        request: 10 000 of them must cost parses, not memory — and an
        evicted text re-plans to the same decisions."""
        texts = []
        for number in range(5000):
            texts.append(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {number}")
            # Blocked as outside the fragment: a Block that costs the same
            # however many facts the session holds by then.
            texts.append(f"SELECT COUNT(*) FROM Users WHERE UId = {number}")
        # The reference never evicts: same statements, roomier table.
        monkeypatch.setattr(database_module, "PLAN_TABLE_CAP", len(texts) + 1)
        expected = replay_texts(make_gateway(), texts)
        monkeypatch.undo()
        gateway = make_gateway()
        assert replay_texts(gateway, texts) == expected
        assert expected.count(True) == expected.count(False) == 5000
        assert len(gateway.db._plans) == database_module.PLAN_TABLE_CAP < len(texts)
        # Long evicted, planned again, decided alike.
        assert replay_texts(gateway, texts[:50]) == expected[:50]
        assert len(gateway.db._plans) == database_module.PLAN_TABLE_CAP
        gateway.close()


def replay_texts(gateway, texts) -> list[bool]:
    connection = gateway.connect(1)
    outcome = []
    for sql in texts:
        try:
            connection.sql(sql)
            outcome.append(True)
        except PolicyViolation:
            outcome.append(False)
    return outcome
