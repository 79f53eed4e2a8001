"""E14 — Policy lifecycle: hot reload, shadow mode, gated promotion.

Four questions about the ``repro.lifecycle`` subsystem:

1. **E14a — reload under load, zero torn decisions.** Traffic threads
   hammer a gateway while the policy is hot-swapped back and forth.
   Every decision is audited (bound SQL, bindings, trace facts as of
   decision time, claimed policy version) and re-verified against a
   fresh checker built for exactly that version: a single disagreement
   would mean a decision straddled two epochs. Sessions and their
   certified traces must survive every swap.

2. **E14b — shadow-mode overhead.** The same allowed-query stream with
   shadow mode off vs shadowing an identical candidate. Submission is
   the only hot-path cost (the check itself runs on a dedicated
   thread), so active-path p50 must stay within 1.5× — and an identical
   candidate must produce zero divergences.

3. **E14c — seeded regression detection.** Two deliberately broken
   candidates: one *missing* a view (every history-gated allow flips to
   block) and one *over-broad* (blocked attack queries flip to allow).
   Shadow mode must catch 100% of the seeded flips, classified by kind.

4. **E14d — gated promotion end to end.** A policy mined from live
   traces (§3) passes every gate and is promoted; a regressed candidate
   is rejected with §5 diagnoses attached while the active policy keeps
   serving; ROLLBACK then restores the pre-promotion version with its
   caches rebuilt cold.

``E14_QUICK=1`` shrinks sizes for CI smoke runs. Marked ``slow``.
"""

import os
import random
import statistics
import threading
import time

import pytest

from repro.bench.harness import print_table
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.extract import MinerConfig, TraceMiner
from repro.lifecycle import GateConfig, LifecycleManager, ShadowRunner, hot_reload
from repro.policy.compare import compare_policies
from repro.policy.policy import Policy, View
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app

from conftest import OPAQUE_HINTS, fresh_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E14_QUICK", "") not in ("", "0")


def make_calendar_gateway(**config):
    app, db = fresh_app("calendar", size=10)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(
        db, app.ground_truth_policy(), GatewayConfig(**config)
    )
    return app, db, gateway


def without_view(policy: Policy, name: str) -> Policy:
    return Policy([v for v in policy.views if v.name != name], name=f"minus-{name}")


# --------------------------------------------------------------------------
# E14a — hot reload under concurrent load: audit every decision
# --------------------------------------------------------------------------


def reload_under_load(reloads: int):
    app, db, gateway = make_calendar_gateway()
    truth = app.ground_truth_policy()
    policies = {1: truth}
    audits: list = []
    audit_lock = threading.Lock()

    def audit(record):
        with audit_lock:
            audits.append(record)

    gateway.decision_audit = audit
    stop = threading.Event()
    errors: list = []

    def traffic(uid: int) -> None:
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
        except Exception as exc:  # pragma: no cover - surfaced in the table
            errors.append(exc)

    threads = [threading.Thread(target=traffic, args=(uid,)) for uid in (1, 2, 3)]
    for thread in threads:
        thread.start()
    swap_pauses = []
    drained_all = True
    try:
        for version in range(2, reloads + 2):
            policy = truth if version % 2 == 1 else without_view(truth, "V2")
            policies[version] = policy
            report = hot_reload(gateway, policy, version=version)
            swap_pauses.append(report.swap_pause_s)
            drained_all = drained_all and report.drained
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

    # Sessions and their certified history survived the storm: the user-1
    # trace still justifies the Events query under the final (full) policy.
    survivor = gateway.connect(1)
    facts_after = len(survivor.trace.facts)
    q2_rows = len(survivor.query("SELECT * FROM Events WHERE EId = 2"))
    gateway.close()

    # Re-verify every audited decision against a fresh checker for the
    # version that claims to have made it.
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

    rows = [
        (
            reloads,
            len(audits),
            torn,
            len(errors),
            round(statistics.median(swap_pauses) * 1e6, 1),
            round(max(swap_pauses) * 1e6, 1),
            drained_all,
            facts_after,
        )
    ]
    return rows, torn, len(errors), q2_rows


# --------------------------------------------------------------------------
# E14b — shadow-mode overhead on the active path
# --------------------------------------------------------------------------

ALLOWED_SHAPES = [
    "SELECT EId FROM Attendance WHERE UId = {u}",
    "SELECT 1 FROM Attendance WHERE UId = {u} AND EId = {e}",
    "SELECT Name FROM Users WHERE UId = {u}",
]


def allowed_stream(n: int, seed: int = 17, user: int = 1):
    """Statements all allowed for ``user``'s own session (V1/V3 shapes)."""
    rng = random.Random(seed)
    return [
        ALLOWED_SHAPES[rng.randrange(len(ALLOWED_SHAPES))].format(
            u=user, e=rng.randint(1, 6)
        )
        for _ in range(n)
    ]


def timed_replay(gateway, statements):
    """Per-query active-path latencies, one session per user id 1."""
    connection = gateway.connect(1)
    # Warm-up pass: caches and memos behave identically on both sides.
    for sql in statements:
        connection.query(sql)
    latencies = []
    for sql in statements:
        started = time.perf_counter()
        connection.query(sql)
        latencies.append(time.perf_counter() - started)
    return latencies


def shadow_overhead(requests: int):
    statements = allowed_stream(requests)

    app, _, gateway = make_calendar_gateway()
    baseline = timed_replay(gateway, statements)
    gateway.close()

    app, _, gateway = make_calendar_gateway()
    runner = ShadowRunner(
        gateway, Policy(app.ground_truth_policy().views, name="copy"), 2
    )
    gateway.shadow = runner
    shadowed = timed_replay(gateway, statements)
    assert runner.drain(timeout_s=60.0)
    stats = runner.stats()
    gateway.close()

    base_p50 = statistics.median(baseline)
    shadow_p50 = statistics.median(shadowed)
    ratio = shadow_p50 / base_p50 if base_p50 else 1.0
    rows = [
        ("shadow off", requests, round(base_p50 * 1e6, 1), "-", "-", "-"),
        (
            "shadow on (identical candidate)",
            requests,
            round(shadow_p50 * 1e6, 1),
            round(ratio, 2),
            stats["checks"],
            stats["divergences"],
        ),
    ]
    return rows, ratio, stats


# --------------------------------------------------------------------------
# E14c — seeded allow↔block regressions must all be caught
# --------------------------------------------------------------------------


def seeded_regressions():
    rows = []

    # Seed allow→block: drop V2; every history-justified Events allow flips.
    app, db, gateway = make_calendar_gateway()
    truth = app.ground_truth_policy()
    for uid in (2, 3):  # uid 1's attendance is guaranteed by the fixture
        if db.query(
            f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = 2"
        ).is_empty():
            db.sql(f"INSERT INTO Attendance VALUES ({uid}, 2)")
    runner = ShadowRunner(gateway, without_view(truth, "V2"), 2)
    gateway.shadow = runner
    seeded_ab = 0
    for uid in (1, 2, 3):
        connection = gateway.connect(uid)
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = {uid} AND EId = 2")
        connection.query("SELECT * FROM Events WHERE EId = 2")  # allowed via V2
        seeded_ab += 1
    assert runner.drain(timeout_s=60.0)
    stats = runner.stats()
    caught_ab = stats["allow_to_block"]
    rows.append(
        (
            "allow→block (candidate lost V2)",
            seeded_ab,
            caught_ab,
            round(100.0 * caught_ab / seeded_ab, 1),
            stats["checks"],
        )
    )
    gateway.close()

    # Seed block→allow: add an unconditional Events view; blocked attack
    # queries against unattended events flip to allowed.
    app, db, gateway = make_calendar_gateway()
    broad = Policy(
        list(truth.views)
        + [View("VAll", "SELECT * FROM Events", db.schema, "over-broad")],
        name="over-broad",
    )
    runner = ShadowRunner(gateway, broad, 2)
    gateway.shadow = runner
    seeded_ba = 0
    connection = gateway.connect(1)
    for eid in range(1, 4):
        try:
            connection.query(f"SELECT * FROM Events WHERE EId = {eid}")
        except PolicyViolation:
            seeded_ba += 1  # blocked under truth, allowed under the broad view
    assert seeded_ba > 0
    assert runner.drain(timeout_s=60.0)
    stats = runner.stats()
    caught_ba = stats["block_to_allow"]
    rows.append(
        (
            "block→allow (candidate over-broad)",
            seeded_ba,
            caught_ba,
            round(100.0 * caught_ba / seeded_ba, 1),
            stats["checks"],
        )
    )
    gateway.close()

    return rows, (seeded_ab, caught_ab), (seeded_ba, caught_ba)


# --------------------------------------------------------------------------
# E14d — gated promotion of a mined policy, rejection, rollback
# --------------------------------------------------------------------------


def drive_allowed_traffic(gateway, statements):
    for sql in statements:
        try:
            gateway.connect(1).query(sql)
        except PolicyViolation:
            pass
    assert gateway.shadow.drain(timeout_s=60.0)


def gated_promotion(traces: int, shadow_checks: int):
    app, db, gateway = make_calendar_gateway()
    truth = app.ground_truth_policy()

    # Mine a candidate from live traces, exactly the §3 pipeline.
    miner = TraceMiner(
        app, db, MinerConfig(opaque_columns=OPAQUE_HINTS["calendar"])
    )
    mined = miner.mine(app.request_stream(db, random.Random(6), traces))
    comparison = compare_policies(mined, truth)

    manager = LifecycleManager(
        gateway, gates=GateConfig(min_shadow_checks=shadow_checks)
    )
    statements = allowed_stream(shadow_checks + 5)
    rows = []

    # The mined candidate earns promotion through all three gates.
    manager.start_shadow(mined, provenance="extracted", label="mined")
    drive_allowed_traffic(gateway, statements)
    promoted = manager.promote()
    rows.append(
        (
            "mined candidate",
            round(comparison.precision, 2),
            round(comparison.recall, 2),
            "promoted" if promoted.promoted else "REJECTED",
            gateway.policy_version,
            len(promoted.diagnoses),
        )
    )

    # A regressed candidate is rejected — with diagnoses — and the active
    # policy keeps serving untouched.
    manager.start_shadow(without_view(truth, "V2"), provenance="patched")
    connection = gateway.connect(1)
    connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
    connection.query("SELECT * FROM Events WHERE EId = 2")
    drive_allowed_traffic(gateway, statements)
    rejected = manager.promote()
    rows.append(
        (
            "regressed candidate (lost V2)",
            "-",
            "-",
            "promoted" if rejected.promoted else "REJECTED",
            gateway.policy_version,
            len(rejected.diagnoses),
        )
    )
    manager.stop_shadow()

    # ROLLBACK restores the pre-promotion version with caches rebuilt cold.
    version_before = gateway.policy_version
    gateway.connect(1).query("SELECT EId FROM Attendance WHERE UId = 1")
    rollback = manager.rollback()
    cache_size_after = gateway.shared_cache.size
    rows.append(
        (
            f"rollback v{version_before} → v{rollback.new_version}",
            "-",
            "-",
            "restored",
            gateway.policy_version,
            cache_size_after,
        )
    )
    gateway.close()
    return rows, promoted, rejected, rollback, cache_size_after


def test_e14_lifecycle(benchmark, capsys):
    reloads = 4 if QUICK else 8
    overhead_requests = 40 if QUICK else 150
    traces = 40 if QUICK else 80
    shadow_checks = 10 if QUICK else 40

    reload_rows, torn, traffic_errors, q2_rows = reload_under_load(reloads)
    overhead_rows, ratio, shadow_stats = shadow_overhead(overhead_requests)
    regression_rows, (seeded_ab, caught_ab), (seeded_ba, caught_ba) = (
        seeded_regressions()
    )
    promotion_rows, promoted, rejected, rollback, cache_size = gated_promotion(
        traces, shadow_checks
    )

    # The measured pass for the benchmark fixture: one full hot reload
    # (epoch build + swap + drain) on an idle gateway.
    app, _, gateway = make_calendar_gateway()
    truth = app.ground_truth_policy()
    versions = iter(range(2, 10_000))

    def one_reload():
        hot_reload(gateway, truth, version=next(versions))

    benchmark.pedantic(one_reload, rounds=5, iterations=1)
    gateway.close()

    with capsys.disabled():
        print_table(
            "E14a",
            "hot reload under concurrent load (audited decisions re-verified)",
            [
                "reloads",
                "decisions",
                "torn",
                "errors",
                "swap p50 us",
                "swap max us",
                "drained",
                "facts kept",
            ],
            reload_rows,
        )
        print_table(
            "E14b",
            "shadow-mode active-path overhead (identical candidate)",
            ["mode", "requests", "p50 us", "ratio", "shadow checks", "divergences"],
            overhead_rows,
        )
        print_table(
            "E14c",
            "seeded regression detection in shadow mode",
            ["seeded flip", "seeded", "caught", "caught %", "shadow checks"],
            regression_rows,
        )
        print_table(
            "E14d",
            "gated promotion of a mined policy, rejection, rollback",
            ["candidate", "precision", "recall", "verdict", "active ver", "diag/cache"],
            promotion_rows,
        )

    # E14a: no torn decisions, no traffic errors, traces survived.
    assert torn == 0
    assert traffic_errors == 0
    assert q2_rows == 1
    # E14b: identical candidate never diverges; hot path within 1.5x.
    assert shadow_stats["divergences"] == 0
    assert ratio <= 1.5, ratio
    # E14c: every seeded flip caught, in the right direction.
    assert caught_ab == seeded_ab
    assert caught_ba == seeded_ba
    # E14d: mined policy promoted only after passing gates; regression
    # rejected with diagnoses; rollback restored the previous version
    # with cold caches.
    assert promoted.promoted and promoted.passed
    assert not rejected.promoted and rejected.diagnoses
    assert rollback.new_version < rollback.old_version
    assert cache_size == 0
