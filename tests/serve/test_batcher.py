"""CheckBatcher: combining-lock batching over one epoch's checker.

Apart from a follower's probe of the store, the batcher only ever calls
``checker.check(stmt, bindings, trace)``, so most tests drive it with
small stub checkers whose blocking behavior is scripted, over a store
that never answers — the properties under test are scheduling ones:
exactly one execution per submitted check, leader inlining when
uncontended, follower relay of both results and exceptions, and the
timed-out follower self-serving instead of losing its decision. One test
runs a real checker and store: a follower is answered by the template
its leader just stored.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.relalg.compile import compile_policy
from repro.serve.batch import CheckBatcher
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


class NoTemplates:
    """A store that never answers: every ticket reaches the checker."""

    def lookup(self, stmt, bindings, trace, skeleton=None):
        return None


def batcher_over(checker, **kwargs) -> CheckBatcher:
    return CheckBatcher(checker, NoTemplates(), **kwargs)


class ScriptedChecker:
    """Counts checks; optionally blocks on a gate or raises per-stmt."""

    def __init__(self, gate=None, raise_for=frozenset()):
        self.gate = gate
        self.raise_for = raise_for
        self.calls = []
        self._lock = threading.Lock()

    def check(self, stmt, bindings, trace, skeleton=None):
        if self.gate is not None:
            self.gate.wait()
        if stmt in self.raise_for:
            raise ValueError(f"scripted failure for {stmt}")
        with self._lock:
            self.calls.append(stmt)
        return ("decision", stmt, dict(bindings))


class TestUncontended:
    def test_leader_checks_inline(self):
        batcher = batcher_over(ScriptedChecker())
        result = batcher.check("q1", {"MyUId": 1}, None)
        assert result == ("decision", "q1", {"MyUId": 1})
        stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["checks"] == 1
        assert stats["size_1"] == 1
        assert stats["fallbacks"] == 0

    def test_sequential_checks_never_batch(self):
        batcher = batcher_over(ScriptedChecker())
        for i in range(5):
            batcher.check(f"q{i}", {}, None)
        stats = batcher.stats()
        assert stats["batches"] == 5
        assert stats["size_1"] == 5


class TestContended:
    def test_every_submitted_check_is_executed_exactly_once(self):
        checker = ScriptedChecker()
        batcher = batcher_over(checker)
        results = {}
        errors = []

        def submit(i):
            try:
                results[i] = batcher.check(f"q{i}", {"i": i}, None)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 24
        for i, result in results.items():
            assert result == ("decision", f"q{i}", {"i": i})
        assert sorted(checker.calls) == sorted(f"q{i}" for i in range(24))
        stats = batcher.stats()
        assert stats["checks"] == 24
        assert stats["fallbacks"] == 0

    def test_queued_followers_form_batches(self):
        gate = threading.Event()
        checker = ScriptedChecker(gate=gate)
        batcher = batcher_over(checker)
        done = []

        def leader():
            done.append(batcher.check("leader", {}, None))

        def follower(i):
            done.append(batcher.check(f"f{i}", {}, None))

        lead = threading.Thread(target=leader)
        lead.start()
        time.sleep(0.05)  # leader is now inside check(), holding _busy
        followers = [threading.Thread(target=follower, args=(i,)) for i in range(4)]
        for t in followers:
            t.start()
        time.sleep(0.05)  # all four queued behind the busy leader
        gate.set()
        lead.join(timeout=5)
        for t in followers:
            t.join(timeout=5)
        assert len(done) == 5
        stats = batcher.stats()
        # One leader batch of 1 plus at least one drained batch; the four
        # followers landed in batches of size >= 2 unless the scheduler
        # released them one by one (then sizes sum to 5 regardless).
        assert stats["checks"] == 5
        assert stats["batches"] <= 5

    def test_follower_receives_relayed_exception(self):
        gate = threading.Event()
        checker = ScriptedChecker(gate=gate, raise_for={"poison"})
        batcher = batcher_over(checker)
        caught = []

        def leader():
            batcher.check("leader", {}, None)

        def follower():
            try:
                batcher.check("poison", {}, None)
            except ValueError as exc:
                caught.append(exc)

        lead = threading.Thread(target=leader)
        lead.start()
        time.sleep(0.05)
        follow = threading.Thread(target=follower)
        follow.start()
        time.sleep(0.05)
        gate.set()
        lead.join(timeout=5)
        follow.join(timeout=5)
        assert len(caught) == 1
        assert "scripted failure" in str(caught[0])


class TestFallback:
    def test_timed_out_follower_self_serves(self):
        wedge = threading.Event()

        class WedgingChecker(ScriptedChecker):
            def check(self, stmt, bindings, trace, skeleton=None):
                if stmt == "wedged":
                    wedge.wait()  # leader never returns until released
                return super().check(stmt, bindings, trace)

        checker = WedgingChecker()
        batcher = batcher_over(checker, timeout_s=0.2)
        follower_result = []

        leader = threading.Thread(target=batcher.check, args=("wedged", {}, None))
        leader.start()
        time.sleep(0.05)
        follower_result.append(batcher.check("urgent", {}, None))
        assert follower_result[0] == ("decision", "urgent", {})
        assert batcher.stats()["fallbacks"] == 1
        wedge.set()
        leader.join(timeout=5)


class TestFollowerProbesAgain:
    def test_a_follower_is_answered_by_its_leaders_template(
        self, calendar_schema, calendar_policy
    ):
        store = DecisionCache(calendar_policy)
        checker = ComplianceChecker(
            calendar_schema,
            calendar_policy,
            compiled=compile_policy(calendar_schema, calendar_policy),
            skeletons=store,
        )
        entered, release = threading.Event(), threading.Event()
        full_checks = []
        plain_check = checker.check

        def gated_check(stmt, *args, **kwargs):
            full_checks.append(stmt)
            entered.set()
            release.wait(5)
            return plain_check(stmt, *args, **kwargs)

        checker.check = gated_check
        batcher = CheckBatcher(checker, store)
        shape = parse_select("SELECT EId FROM Attendance WHERE UId = ?")
        requests = {user: (bind_parameters(shape, [user]), {"MyUId": user}) for user in (1, 2)}
        # Both sessions have missed on the shape before either check runs.
        for stmt, bindings in requests.values():
            assert store.lookup(stmt, bindings, None) is None
        decisions = {}

        def decide(user):
            decisions[user] = batcher.check(*requests[user], None)

        leader = threading.Thread(target=decide, args=(1,))
        leader.start()
        assert entered.wait(5)  # the leader is inside its check
        follower = threading.Thread(target=decide, args=(2,))
        follower.start()
        deadline = time.monotonic() + 5
        while not batcher._queue and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(batcher._queue) == 1  # queued behind the busy leader
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert not leader.is_alive() and not follower.is_alive()
        assert decisions[1].allowed and not decisions[1].from_cache
        assert decisions[2].allowed and decisions[2].from_cache
        assert full_checks == [requests[1][0]]  # one full check
        assert (store.hits, store.misses, store.stores) == (1, 2, 1)
        assert batcher.stats()["checks"] == 2


class TestHistogram:
    @pytest.mark.parametrize(
        ("size", "bucket"),
        [(1, "size_1"), (2, "size_2"), (3, "size_4"), (4, "size_4"), (5, "size_8"), (100, "size_8")],
    )
    def test_sizes_land_in_log2_buckets(self, size, bucket):
        batcher = batcher_over(ScriptedChecker())
        batcher._observe(size)
        assert batcher.stats()[bucket] == 1
