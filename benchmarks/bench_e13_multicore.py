"""E13 — Memoized rewriting core and indexed cache invalidation.

Three questions about the PR-3 performance work (``repro.relalg.memo``,
the indexed ``repro.enforce.cache``). E13a (miss-heavy throughput vs
checker worker processes) is retired with the process pool itself; see
"E13a — retired" in EXPERIMENTS.md for the ablation that removed it.

1. **E13b — memoization ablation.** The same check stream with the
   rewriting-core memos disabled (the seed path), cold, and warm; the
   warm pass must beat the seed path and the memos must show real hit
   rates.

2. **E13c — invalidation at 10k templates.** The reverse-indexed
   ``invalidate_table`` visits only skeleton keys that touch the written
   table; asserted via the ``invalidate_keys_scanned`` instrumentation
   and compared against a full linear scan.

3. **E13d — zero disagreements.** Seed (memo off) and memoized checking
   produce identical decisions on a shared query stream with history,
   and a gateway run with ``verify_cached_decisions`` on reports zero
   cached-vs-fresh disagreements (the E11 safety check).

``E13_QUICK=1`` shrinks sizes for CI smoke runs. Marked ``slow``.
"""

import os
import random
import time

import pytest

from repro.bench.harness import print_table
from repro.enforce.cache import DecisionCache, _Template
from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg import memo
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway, GatewayConfig, WorkloadDriver
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app

from conftest import fresh_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E13_QUICK", "") not in ("", "0")


# --------------------------------------------------------------------------
# E13b — memoization ablation on a repeated check stream
# --------------------------------------------------------------------------

SHAPES = [
    ("SELECT EId FROM Attendance WHERE UId = ?", 1),
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 2),
    ("SELECT * FROM Events WHERE EId = ?", 1),
    ("SELECT Title, Loc FROM Events WHERE EId = ?", 1),
    ("SELECT Name FROM Users WHERE UId = ?", 1),
]


def check_stream(n: int, seed: int = 7):
    rng = random.Random(seed)
    stream = []
    for _ in range(n):
        sql, holes = SHAPES[rng.randrange(len(SHAPES))]
        args = [rng.randint(1, 6) for _ in range(holes)]
        stream.append((bind_parameters(parse_select(sql), args), rng.randint(1, 6)))
    return stream


def run_checks(checker, stream):
    started = time.perf_counter()
    decisions = [
        checker.check(stmt, {"MyUId": user}) for stmt, user in stream
    ]
    return time.perf_counter() - started, decisions


def best_of(checker, stream, repeats=3):
    """Best-of-N timing: the minimum is the least noise-contaminated run."""
    best_s, decisions = run_checks(checker, stream)
    for _ in range(repeats - 1):
        elapsed, decisions = run_checks(checker, stream)
        best_s = min(best_s, elapsed)
    return best_s, decisions


def memo_rows(checks: int):
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    checker = ComplianceChecker(schema, policy)
    stream = check_stream(checks)

    memo.set_memoization(False)
    seed_s, seed_decisions = best_of(checker, stream)

    memo.set_memoization(True)
    memo.clear_memos()
    memo.reset_memo_stats()
    cold_s, cold_decisions = run_checks(checker, stream)
    warm_s, warm_decisions = best_of(checker, stream)
    stats = memo.memo_stats()

    def hit_rate(name):
        hits, misses = stats[f"{name}_hits"], stats[f"{name}_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    rows = [
        ("seed (memo off)", checks, round(seed_s, 3), round(checks / seed_s, 1), "-", "-"),
        (
            "memo cold",
            checks,
            round(cold_s, 3),
            round(checks / cold_s, 1),
            round(hit_rate("containment"), 3),
            round(hit_rate("descriptors"), 3),
        ),
        (
            "memo warm",
            checks,
            round(warm_s, 3),
            round(checks / warm_s, 1),
            round(hit_rate("containment"), 3),
            round(hit_rate("descriptors"), 3),
        ),
    ]
    disagreements = sum(
        1
        for a, b, c in zip(seed_decisions, cold_decisions, warm_decisions)
        if not (a.allowed == b.allowed == c.allowed and a.reason == b.reason == c.reason)
    )
    return rows, seed_s / warm_s, disagreements


# --------------------------------------------------------------------------
# E13c — invalidation latency and scan instrumentation at 10k templates
# --------------------------------------------------------------------------


def synthetic_template(key: str, table: str) -> _Template:
    return _Template(
        skeleton_key=key,
        pinned=(),
        equality_pattern=(),
        fact_patterns=(),
        reason="bench",
        tables=frozenset({table}),
    )


def invalidation_rows(templates: int, tables: int):
    policy = calendar_app.ground_truth_policy()
    cache = DecisionCache(policy)
    all_templates = [
        (f"key-{i}", f"T{i % tables:03d}") for i in range(templates)
    ]
    for key, table in all_templates:
        cache._insert_template(synthetic_template(key, table))

    affected = templates // tables
    started = time.perf_counter()
    evicted = cache.invalidate_table("T000")
    indexed_ms = (time.perf_counter() - started) * 1000
    keys_scanned = cache.invalidate_keys_scanned

    # The seed behavior for comparison: visit every template in the cache.
    started = time.perf_counter()
    linear_evicted = sum(1 for _, table in all_templates if table == "T000")
    linear_scanned = len(all_templates)
    linear_ms = (time.perf_counter() - started) * 1000

    assert evicted == affected == linear_evicted
    # The instrumentation claim: only the affected table's keys were
    # visited, none of the other (templates - affected) keys.
    assert keys_scanned == affected, (keys_scanned, affected)

    return [
        (
            templates,
            tables,
            affected,
            keys_scanned,
            linear_scanned,
            round(indexed_ms, 3),
            round(linear_ms, 3),
        )
    ]


# --------------------------------------------------------------------------
# E13d — agreement: seed vs memoized, cached vs fresh
# --------------------------------------------------------------------------


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


def agreement_rows(checks: int):
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    checker = ComplianceChecker(schema, policy)
    rng = random.Random(23)
    stream = check_stream(checks, seed=23)
    disagreements = 0
    for stmt, user in stream:
        seen = [(user, rng.randint(1, 6)) for _ in range(rng.randrange(3))]
        trace = make_trace(schema, seen)
        memo.set_memoization(False)
        seed_d = checker.check(stmt, {"MyUId": user}, trace)
        memo.set_memoization(True)
        memoized_d = checker.check(stmt, {"MyUId": user}, trace)
        if not (
            seed_d.allowed == memoized_d.allowed
            and seed_d.reason == memoized_d.reason
        ):
            disagreements += 1

    # The E11 safety check: every shared-cache hit re-verified through
    # the fresh checker.
    app, db = fresh_app("social", size=12)
    gateway = EnforcementGateway(
        db,
        app.ground_truth_policy(),
        GatewayConfig(verify_cached_decisions=True),
    )
    driver = WorkloadDriver(app, gateway, workers=4)
    stream = app.request_stream(db, random.Random(5), 60 if QUICK else 160)
    try:
        report = driver.run(stream)
        counters = gateway.snapshot().counters
        cache_disagreements = counters.get("cache_disagreements", 0)
        verified = counters.get("cache_verified", 0)
    finally:
        gateway.close()

    rows = [
        ("seed vs memoized", checks, disagreements),
        (f"gateway verify ({report.requests} reqs, {verified} verified)",
         verified, cache_disagreements),
    ]
    return rows, disagreements + cache_disagreements


def test_e13_multicore(benchmark, capsys):
    checks = 60 if QUICK else 200
    templates = 2000 if QUICK else 10000

    memo_table, memo_speedup, memo_disagreements = memo_rows(checks)
    invalidation = invalidation_rows(templates, tables=100)
    agreement, total_disagreements = agreement_rows(30 if QUICK else 80)

    # The measured pass for the benchmark fixture: one warm memoized check.
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    checker = ComplianceChecker(schema, policy)
    stmt = bind_parameters(
        parse_select("SELECT EId FROM Attendance WHERE UId = ?"), [1]
    )
    checker.check(stmt, {"MyUId": 1})  # warm the memos

    def warm_check():
        checker.check(stmt, {"MyUId": 1})

    benchmark.pedantic(warm_check, rounds=5, iterations=10)

    with capsys.disabled():
        print_table(
            "E13b",
            "rewriting-core memoization ablation (calendar checks)",
            ["mode", "checks", "seconds", "checks/s", "containment hit", "descriptor hit"],
            memo_table,
        )
        print_table(
            "E13c",
            "indexed invalidation at scale (one table invalidated)",
            [
                "templates",
                "tables",
                "affected",
                "keys scanned",
                "linear scan",
                "indexed ms",
                "linear ms",
            ],
            invalidation,
        )
        print_table(
            "E13d",
            "decision agreement across execution modes",
            ["comparison", "checks", "disagreements"],
            agreement,
        )
        print(f"\nmemo warm speedup over seed path: {memo_speedup:.2f}x")

    # Memoization must pay for itself on a warm stream and never change
    # a decision.
    assert memo_speedup > 1.0, memo_speedup
    assert memo_disagreements == 0
    assert total_disagreements == 0
