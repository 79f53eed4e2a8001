"""E15 — Pluggable backends: SQLite at scale behind the proxy.

The backend redesign's three claims, measured:

1. **E15a — decision agreement.** Enforcement is backend-independent:
   replaying the same calendar workload through two gateways — one on
   the in-memory backend, one on SQLite — must produce *identical*
   decision streams (same SQL, same bindings, same allow/block), and
   the attack-query battery must block on both. Zero disagreements is
   an acceptance criterion, not a target.

2. **E15b — cache hit vs real execution at 10^5–10^6 rows.** With a
   real engine underneath, the cost the decision cache avoids is no
   longer synthetic: at each scale we measure raw SQLite execution,
   the proxy's cache-hit path (execution + template lookup), and the
   uncached fresh check. The check cost is data-independent (it reasons
   over the schema and trace, never the rows), so its relative price
   falls as data grows — the paper's amortization argument, now with
   real I/O on the denominator.

3. **E15c — proxy overhead on a replayed workload.** End-to-end
   request throughput, direct SQLite vs enforced gateway, same request
   stream — the deployment-shaped overhead number.

``E15_QUICK=1`` shrinks sizes for CI smoke runs. Marked ``slow``.
"""

import os
import random
import statistics
import time

import pytest

from repro.bench.harness import print_table
from repro.enforce import ComplianceChecker, Trace
from repro.enforce.decision import PolicyViolation
from repro.serve import EnforcementGateway, GatewayConfig
from repro.sqlir.params import bind_parameters
from repro.workloads.runner import AppRunner

from conftest import fresh_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E15_QUICK", "") not in ("", "0")

#: Calendar data volume is ~6 rows per user (1 user + 2 events + ~3
#: attendances), so these user counts land at ~1.2e4 / ~1e5 / ~1e6 rows.
SCALE_SIZES = [2_000] if QUICK else [17_000, 167_000]
AGREEMENT_SIZE = 8 if QUICK else 30
AGREEMENT_REQUESTS = 60 if QUICK else 400
LATENCY_REPS = 30 if QUICK else 200
THROUGHPUT_REQUESTS = 80 if QUICK else 500


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --------------------------------------------------------------------------
# E15a — zero decision disagreements between backends
# --------------------------------------------------------------------------


def replay_with_audit(backend: str, requests):
    """Run the stream through a gateway on ``backend``; return the audit."""
    app, db = fresh_app("calendar", size=AGREEMENT_SIZE, seed=3, backend=backend)
    gateway = EnforcementGateway(
        db, app.ground_truth_policy(), GatewayConfig(backend=backend)
    )
    audit = []
    gateway.decision_audit = lambda record: audit.append(
        (record.sql, tuple(sorted(record.bindings.items())), record.allowed)
    )
    runner = AppRunner(app, db, mode="gateway", gateway=gateway)
    outcomes = runner.run_all(requests)
    gateway.close()
    db.close()
    return audit, outcomes


def test_e15a_backends_agree_on_replayed_decisions():
    app, db = fresh_app("calendar", size=AGREEMENT_SIZE, seed=3)
    requests = app.request_stream(db, random.Random(5), AGREEMENT_REQUESTS)
    db.close()

    memory_audit, memory_outcomes = replay_with_audit("memory", requests)
    sqlite_audit, sqlite_outcomes = replay_with_audit("sqlite", requests)

    assert len(memory_audit) == len(sqlite_audit)
    disagreements = [
        (m, s) for m, s in zip(memory_audit, sqlite_audit) if m != s
    ]
    blocked = sum(1 for record in memory_audit if not record[2])
    print_table(
        "E15a",
        "decision agreement, memory vs sqlite (replayed calendar workload)",
        ["backend", "requests", "decisions", "blocked", "disagreements"],
        [
            ["memory", len(memory_outcomes), len(memory_audit), blocked, 0],
            [
                "sqlite",
                len(sqlite_outcomes),
                len(sqlite_audit),
                sum(1 for record in sqlite_audit if not record[2]),
                len(disagreements),
            ],
        ],
    )
    assert disagreements == []
    assert [o.blocked for o in memory_outcomes] == [o.blocked for o in sqlite_outcomes]


def test_e15a_attack_queries_block_on_both_backends():
    for backend in ("memory", "sqlite"):
        app, db = fresh_app("calendar", size=AGREEMENT_SIZE, seed=3, backend=backend)
        proxy = EnforcementGateway(db, app.ground_truth_policy()).connect(1)
        for sql, args in app.attack_queries(db, 1):
            with pytest.raises(PolicyViolation):
                proxy.query(sql, args)
        db.close()


# --------------------------------------------------------------------------
# E15b — cache hit vs execution cost at scale (sqlite)
# --------------------------------------------------------------------------


def build_scaled_sqlite(size: int):
    app, db = fresh_app("calendar", size=size, seed=3, backend="sqlite")
    return app, db


def time_us(fn, reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        started = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - started) / 1_000)
    return samples


@pytest.mark.parametrize("size", SCALE_SIZES)
def test_e15b_cache_hit_vs_execution_curves(size):
    app, db = build_scaled_sqlite(size)
    policy = app.ground_truth_policy()
    total = db.total_rows()
    probe = "SELECT EId FROM Attendance WHERE UId = ?"
    uid = 1

    raw = time_us(lambda: db.query(probe, [uid]), LATENCY_REPS)

    # Cache-hit path: warm the template once, then every query pays
    # execution + a cache lookup.
    gateway = EnforcementGateway(db, policy)
    cached = gateway.connect(uid)
    cached.query(probe, [uid])
    hit = time_us(lambda: cached.query(probe, [uid]), LATENCY_REPS)
    assert gateway.metrics.counter("cache_hits") >= LATENCY_REPS

    # Fresh-check path: a bare checker (no store, uncompiled), then the
    # execution and its certification, so every query pays the full
    # compliance check. The check reasons over schema + trace only, so
    # this cost is flat across scales while raw execution grows.
    checker = ComplianceChecker(db.schema, policy)
    bound = bind_parameters(db.parse(probe), [uid], None)
    bindings = {"MyUId": uid}
    trace = Trace()

    def fresh_check():
        assert checker.check(bound, bindings, trace).allowed
        trace.record_execution(bound, db.execute_bound(bound), db.schema)

    miss = time_us(fresh_check, LATENCY_REPS)

    raw_p50 = statistics.median(raw)
    hit_p50 = statistics.median(hit)
    miss_p50 = statistics.median(miss)
    print_table(
        f"E15b_{size}",
        f"sqlite backend, {total} rows: cache hit vs execution (us, p50/p95)",
        ["path", "p50_us", "p95_us", "x_raw_p50"],
        [
            ["raw sqlite", raw_p50, _percentile(raw, 0.95), 1.0],
            ["proxy cache-hit", hit_p50, _percentile(hit, 0.95), hit_p50 / raw_p50],
            ["proxy fresh-check", miss_p50, _percentile(miss, 0.95), miss_p50 / raw_p50],
        ],
    )
    assert total >= 5 * size  # the scale claim is about real data volume
    # The cache must recover the bulk of the fresh-check cost.
    assert hit_p50 < miss_p50
    db.close()


# --------------------------------------------------------------------------
# E15c — end-to-end proxy overhead vs raw sqlite
# --------------------------------------------------------------------------


def run_stream(mode: str, requests, size: int):
    app, db = fresh_app("calendar", size=size, seed=3, backend="sqlite")
    gateway = None
    if mode == "gateway":
        gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
    else:
        runner = AppRunner(app, db, mode="direct")
    started = time.perf_counter()
    outcomes = runner.run_all(requests)
    elapsed = time.perf_counter() - started
    hit_rate = gateway.cache_hit_rate() if gateway is not None else 0.0
    if gateway is not None:
        gateway.close()
    db.close()
    return len(outcomes) / elapsed, outcomes, hit_rate


def test_e15c_proxy_overhead_vs_raw_sqlite():
    size = 100 if QUICK else 1_000
    app, db = fresh_app("calendar", size=size, seed=3)
    requests = app.request_stream(db, random.Random(9), THROUGHPUT_REQUESTS)
    db.close()

    direct_rps, direct_outcomes, _ = run_stream("direct", requests, size)
    gateway_rps, gateway_outcomes, hit_rate = run_stream("gateway", requests, size)

    print_table(
        "E15c",
        f"proxy overhead vs raw sqlite ({size} users, {len(requests)} requests)",
        ["mode", "req_per_s", "completed", "blocked", "cache_hit_rate"],
        [
            [
                "direct sqlite",
                direct_rps,
                sum(1 for o in direct_outcomes if not o.blocked),
                0,
                "-",
            ],
            [
                "enforced gateway",
                gateway_rps,
                sum(1 for o in gateway_outcomes if not o.blocked),
                sum(1 for o in gateway_outcomes if o.blocked),
                f"{hit_rate:.3f}",
            ],
        ],
    )
    assert gateway_rps > 0
    # A compliant stream must not be blocked by enforcement.
    assert all(not outcome.blocked for outcome in gateway_outcomes)
