"""The store's one lock (the file name predates it: the store was a
facade over eight hash-routed lock stripes until they were measured
against a single lock and removed — EXPERIMENTS.md "E18 — stripes").

What is left to pin: a contended acquire is counted and an uncontended
one is free, the counter keeps its ``cache_stripe_contention`` name in
the gateway snapshot, and the writers (invalidation, clear) and the
template listing see every template whatever its shape. The soundness
of *sharing* is covered by ``test_shared_cache.py``,
``test_shared_cache_race.py`` and E11.
"""

from __future__ import annotations

import threading

import pytest

from repro.enforce.cache import DecisionCache
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app


@pytest.fixture
def gateway(calendar_policy):
    db = calendar_app.make_database(size=8, seed=3)
    return EnforcementGateway(db, calendar_policy, GatewayConfig())


class TestStriping:
    def test_snapshot_exposes_stripe_contention_counter(self, gateway):
        gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        counters = gateway.snapshot().counters
        assert counters["cache_stripe_contention"] == 0
        assert counters["shared_cache_stripe_contention"] == 0
        assert "shared_cache_stripes" not in counters


class TestWriters:
    def test_invalidate_table_visits_every_stripe(self, gateway):
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        connection.query("SELECT UId, EId FROM Attendance WHERE UId = ?", [1])
        cache = gateway.shared_cache
        assert cache.size >= 2
        evicted = cache.invalidate_table("Attendance")
        assert evicted >= 2
        assert cache.size == 0
        assert cache.invalidations == evicted

    def test_clear_empties_every_stripe(self, gateway):
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        connection.query("SELECT UId, EId FROM Attendance WHERE UId = ?", [1])
        cache = gateway.shared_cache
        dropped = cache.clear()
        assert dropped >= 2
        assert cache.size == 0
        assert not list(cache.iter_templates())

    def test_iter_templates_chains_all_stripes(self, gateway):
        connection = gateway.connect(1)
        connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
        connection.query("SELECT UId, EId FROM Attendance WHERE UId = ?", [1])
        cache = gateway.shared_cache
        assert len(list(cache.iter_templates())) == cache.size >= 2


class TestContentionCounter:
    def test_contended_acquire_is_counted(self, calendar_policy):
        cache = DecisionCache(calendar_policy)
        cache._lock.acquire()  # simulate another thread inside the store

        thread = threading.Thread(target=cache.invalidate_table, args=("Attendance",))
        thread.start()
        # The contender must register before it can proceed.
        pause = threading.Event()
        for _ in range(100):
            if cache.lock_waits == 1:
                break
            pause.wait(0.01)
        cache._lock.release()
        thread.join()
        assert cache.lock_waits == 1
        assert cache.stats()["stripe_contention"] == 1

    def test_uncontended_acquire_is_free(self, calendar_policy):
        cache = DecisionCache(calendar_policy)
        cache.invalidate_table("Attendance")
        cache.clear()
        assert cache.lock_waits == 0
        assert not cache._lock.locked()
