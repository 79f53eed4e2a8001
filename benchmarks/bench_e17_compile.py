"""E17 — Compiled decisions: per-skeleton templates and batched checking.

Five questions about the PR-8 compilation layer (``repro.relalg.compile``,
the checker's template fast path, the gateway's ``CheckBatcher``):

1. **E17a — zero disagreements.** A replayed decision stream (random SPJ
   statements, random traces, every calendar/social shape the workloads
   issue) through a compiled checker and a template-free twin must agree
   on every (sql, bindings, allow/block) triple. The headline soundness
   claim: compilation changes the work per decision, never the decision.

2. **E17b — throughput vs skeleton coverage.** The fast path pays when
   statements repeat by skeleton. Streams with 1, 5, and 25 distinct
   shapes at fixed length, compiled vs generic: speedup should grow as
   coverage concentrates.

3. **E17c — the E13 miss-heavy workload, compiled on/off.** The gateway
   rerun this PR is about: social app, decision cache off (every request
   reaches the checker), compiled vs generic, with the host core count
   recorded alongside (the compiled path is single-core algorithmic
   work, not parallelism — the cores column proves the speedup is not
   hidden multicore).

4. **E17d — epoch rebuild cost.** ``hot_reload`` now compiles the policy
   per epoch; the report's ``compile_s`` must be milliseconds-scale and
   paid pre-swap (swap pause stays microseconds).

5. **E17e — reload under load.** Traffic hammers a compiled+batched
   gateway while the policy hot-swaps; every audited decision re-checked
   against a template-free checker for its stamped version. Zero torn
   decisions.

``E17_QUICK=1`` shrinks sizes for CI smoke runs. Marked ``slow``.
"""

import os
import random
import threading
import time

import pytest

from repro.bench.harness import print_table
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.lifecycle import hot_reload
from repro.relalg import memo
from repro.relalg.compile import compile_policy
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway, GatewayConfig, WorkloadDriver
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.sqlir.printer import to_sql
from repro.workloads import calendar_app

from conftest import fresh_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E17_QUICK", "") not in ("", "0")


# --------------------------------------------------------------------------
# Shared stream machinery
# --------------------------------------------------------------------------

SHAPES = [
    ("SELECT EId FROM Attendance WHERE UId = ?", 1),
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 2),
    ("SELECT * FROM Events WHERE EId = ?", 1),
    ("SELECT Title, Loc FROM Events WHERE EId = ?", 1),
    ("SELECT Name FROM Users WHERE UId = ?", 1),
    ("SELECT EId FROM Attendance WHERE UId = ? AND EId IN (?, ?)", 3),
    ("SELECT COUNT(*) FROM Events", 0),
    ("SELECT Time FROM Events WHERE EId = ?", 1),
]


def decision_stream(n: int, shapes, seed: int = 7):
    rng = random.Random(seed)
    stream = []
    for _ in range(n):
        sql, holes = shapes[rng.randrange(len(shapes))]
        args = [rng.randint(1, 6) for _ in range(holes)]
        user = rng.randint(1, 6)
        witnessed = [
            (user, rng.randint(1, 6)) for _ in range(rng.randrange(3))
        ]
        stream.append((bind_parameters(parse_select(sql), args), user, witnessed))
    return stream


def make_trace(schema, witnessed):
    trace = Trace()
    for uid, eid in witnessed:
        guard = translate_select(
            bind_parameters(
                parse_select("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"),
                [uid, eid],
            ),
            schema,
        ).disjuncts[0]
        trace.record("guard", guard, Result(columns=["c"], rows=[(1,)]))
    return trace


# --------------------------------------------------------------------------
# E17a — replayed decision agreement, compiled vs template-free
# --------------------------------------------------------------------------


def agreement_rows(decisions: int):
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    compiled = ComplianceChecker(
        schema, policy, compiled=compile_policy(schema, policy)
    )
    generic = ComplianceChecker(schema, policy)
    stream = decision_stream(decisions, SHAPES, seed=31)
    disagreements = []
    for stmt, user, witnessed in stream:
        trace = make_trace(schema, witnessed)
        got = compiled.check(stmt, {"MyUId": user}, trace)
        want = generic.check(stmt, {"MyUId": user}, trace)
        if got.allowed != want.allowed:
            disagreements.append((to_sql(stmt), user, got.allowed, want.allowed))
    hits = compiled.skeletons.compiled_hits
    rows = [
        (
            decisions,
            hits,
            round(hits / decisions, 3),
            compiled.skeletons.size,
            compiled.skeletons.blocks_stored,
            len(disagreements),
        )
    ]
    return rows, disagreements


# --------------------------------------------------------------------------
# E17b — throughput vs skeleton coverage
# --------------------------------------------------------------------------


def timed_checks(checker, stream):
    started = time.perf_counter()
    for stmt, user, _ in stream:
        checker.check(stmt, {"MyUId": user})
    return time.perf_counter() - started


def coverage_rows(checks: int):
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    rows = []
    for shape_count in (1, 5, len(SHAPES)):
        shapes = SHAPES[:shape_count]
        stream = decision_stream(checks, shapes, seed=shape_count)
        memo.clear_memos()
        generic_s = timed_checks(ComplianceChecker(schema, policy), stream)
        memo.clear_memos()
        compiled_checker = ComplianceChecker(
            schema, policy, compiled=compile_policy(schema, policy)
        )
        compiled_s = timed_checks(compiled_checker, stream)
        rows.append(
            (
                shape_count,
                checks,
                round(checks / generic_s, 1),
                round(checks / compiled_s, 1),
                round(generic_s / compiled_s, 2),
                round(
                    compiled_checker.skeletons.compiled_hits / checks, 3
                ),
            )
        )
    return rows


# --------------------------------------------------------------------------
# E17c — the E13 miss-heavy gateway workload, compiled on/off
# --------------------------------------------------------------------------


def replay_miss_heavy(compile_checks: bool, requests: int, seed: int = 11):
    """The E13a setup: social app, decision cache off, every request a miss."""
    app, db = fresh_app("social", size=16)
    gateway = EnforcementGateway(
        db,
        app.ground_truth_policy(),
        GatewayConfig(cache_mode="none", compile_checks=compile_checks),
    )
    driver = WorkloadDriver(app, gateway, workers=4)
    stream = app.request_stream(db, random.Random(seed), requests)
    try:
        report = driver.run(stream)
        counters = gateway.snapshot().counters
    finally:
        gateway.close()
    return report, counters


def miss_heavy_rows(requests: int):
    cores = os.cpu_count() or 1
    rows = []
    baseline = None
    for compile_checks in (False, True):
        report, counters = replay_miss_heavy(compile_checks, requests)
        if baseline is None:
            baseline = report.throughput_rps
        rows.append(
            (
                "on" if compile_checks else "off",
                cores,
                report.requests,
                round(report.throughput_rps, 1),
                round(report.throughput_rps / baseline, 2) if baseline else 0,
                counters.get("compiled_hits", 0),
                counters.get("compile_misses", 0),
                counters.get("batch_checks", 0),
            )
        )
    speedup = rows[-1][4]
    return rows, speedup


# --------------------------------------------------------------------------
# E17d — epoch rebuild cost
# --------------------------------------------------------------------------


def rebuild_rows():
    app, db = fresh_app("calendar", size=10)
    gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
    rows = []
    try:
        for version in (2, 3, 4):
            report = hot_reload(gateway, app.ground_truth_policy(), version=version)
            rows.append(
                (
                    version,
                    round(report.build_s * 1e3, 2),
                    round(report.compile_s * 1e3, 2),
                    round(report.swap_pause_s * 1e6, 1),
                    report.drained,
                )
            )
    finally:
        gateway.close()
    return rows


# --------------------------------------------------------------------------
# E17e — hot reload under load: zero torn decisions on the compiled path
# --------------------------------------------------------------------------


def reload_under_load(reloads: int):
    app, db = fresh_app("calendar", size=10)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    truth = app.ground_truth_policy()
    from repro.policy.policy import Policy

    narrowed = Policy(
        [v for v in truth.views if v.name != "V2"], name="minus-V2"
    )
    policies = {1: truth}
    gateway = EnforcementGateway(db, truth, GatewayConfig(cache_mode="none"))
    audits = []
    audit_lock = threading.Lock()
    gateway.decision_audit = lambda record: (
        audit_lock.acquire(),
        audits.append(record),
        audit_lock.release(),
    )
    stop = threading.Event()
    errors = []

    def traffic(uid):
        connection = gateway.connect(uid)
        try:
            while not stop.is_set():
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = 2"
                )
                try:
                    connection.query("SELECT * FROM Events WHERE EId = 2")
                except PolicyViolation:
                    pass
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=traffic, args=(uid,)) for uid in (1, 2, 3)]
    for thread in threads:
        thread.start()
    try:
        for version in range(2, 2 + reloads):
            with audit_lock:
                seen = len(audits)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with audit_lock:
                    if len(audits) >= seen + 4:
                        break
                time.sleep(0.002)
            policy = truth if version % 2 == 1 else narrowed
            policies[version] = policy
            hot_reload(gateway, policy, version=version)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    gateway.close()
    assert not errors, errors

    checkers = {
        version: ComplianceChecker(db.schema, policy)
        for version, policy in policies.items()
    }
    torn = 0
    for record in audits:
        fresh = checkers[record.policy_version].check(
            db.parse(record.sql), record.bindings, Trace.from_facts(record.facts)
        )
        if fresh.allowed != record.allowed:
            torn += 1
    return [(len(audits), reloads, torn)], torn


def test_e17_compile(benchmark, capsys):
    decisions = 120 if QUICK else 600
    checks = 100 if QUICK else 400
    requests = 60 if QUICK else 240
    reloads = 3 if QUICK else 6

    agreement, disagreements = agreement_rows(decisions)
    coverage = coverage_rows(checks)
    miss_heavy, gateway_speedup = miss_heavy_rows(requests)
    rebuild = rebuild_rows()
    reload_table, torn = reload_under_load(reloads)

    # The measured pass for the benchmark fixture: one compiled-template hit.
    schema = calendar_app.make_schema()
    policy = calendar_app.ground_truth_policy()
    checker = ComplianceChecker(
        schema, policy, compiled=compile_policy(schema, policy)
    )
    stmt = bind_parameters(
        parse_select("SELECT EId FROM Attendance WHERE UId = ?"), [1]
    )
    checker.check(stmt, {"MyUId": 1})  # derive the template

    def compiled_hit():
        checker.check(stmt, {"MyUId": 1})

    benchmark.pedantic(compiled_hit, rounds=5, iterations=20)

    with capsys.disabled():
        print_table(
            "E17a",
            "replayed decision agreement, compiled vs template-free (calendar)",
            ["decisions", "compiled hits", "hit rate", "templates", "blocks", "disagreements"],
            agreement,
        )
        print_table(
            "E17b",
            "throughput vs skeleton coverage (calendar checks, cache off)",
            ["shapes", "checks", "generic /s", "compiled /s", "speedup", "hit rate"],
            coverage,
        )
        print_table(
            "E17c",
            "E13 miss-heavy gateway workload, compiled off vs on (social, cache off)",
            ["compiled", "cores", "requests", "req/s", "speedup", "compiled hits", "misses", "batched"],
            miss_heavy,
        )
        print_table(
            "E17d",
            "epoch rebuild cost (hot reloads of the calendar policy)",
            ["version", "build ms", "compile ms", "swap pause µs", "drained"],
            rebuild,
        )
        print_table(
            "E17e",
            "hot reload under load on the compiled+batched path",
            ["decisions audited", "reloads", "torn"],
            reload_table,
        )
        best = max(row[4] for row in coverage)
        print(
            f"\nbest compiled speedup (repeated-skeleton stream): {best:.2f}x;"
            f" miss-heavy gateway speedup: {gateway_speedup:.2f}x"
        )

    # Soundness: zero disagreements across every replayed decision, zero
    # torn decisions across every reload.
    assert disagreements == [], disagreements[:5]
    assert torn == 0
    # The fast path must actually pay on skeleton-repetitive streams.
    best = max(row[4] for row in coverage)
    assert best > 1.5, coverage
    # Rebuilds pay compilation pre-swap; the pause must stay tiny.
    for _, _, _, pause_us, drained in rebuild:
        assert pause_us < 50_000, rebuild
    # The ≥5x target is asserted only on the full run on real hardware;
    # the quick CI run records the measured ratio without gating on it
    # (see docs/performance.md for the analysis of where the time goes).
    if not QUICK and (os.cpu_count() or 1) >= 4:
        assert best >= 5.0 or gateway_speedup >= 5.0, (best, gateway_speedup)
