"""E16 — The sharded cluster: fidelity, scaling, rolling reload.

Three questions about the ``repro.cluster`` subsystem, all against real
shard *subprocesses* behind a real :class:`ClusterRouter`:

1. **E16a — decision fidelity.** The calendar workload replayed through
   a sharded cluster and through one in-process gateway over an
   identical database must produce the *same multiset* of
   ``(bound SQL, bindings, allow/block)`` decisions — sharding is an
   operational choice, never a semantic one. Cluster decisions come
   from the shards' audit JSONL logs; the single-gateway replay audits
   via ``gateway.decision_audit``.

2. **E16c — throughput vs fleet size.** The same workload at
   increasing shard counts. Shards are subprocesses, so checker work
   spreads across however many cores the host has; the table records
   the core count next to the throughput so the speedup column is
   interpretable — on a single-core box (CI) it measures the
   *distribution overhead* (router hop + N processes on one core),
   which must stay modest, not a speedup.

3. **E16d — rolling reload, zero torn decisions.** Traffic hammers the
   cluster while RELOAD fans out shard-by-shard, alternating the full
   policy and one missing a view (so a version-straddling decision
   *would* flip). Every audited decision is re-verified against a fresh
   checker for exactly the policy version it claims — across every
   shard, zero may disagree.

(E16b, the cross-shard template-exchange ablation, was retired with the
exchange itself; EXPERIMENTS.md keeps its last table.)

``E16_QUICK=1`` shrinks the fleet and stream for CI smoke runs (and is
what the CI cluster-smoke leg runs). ``E16_MISS_HEAVY=1`` is the
``--miss-heavy`` mode: shards run with ``--cache none`` so every
decision is a fresh compliance check and E16c measures how *checker
CPU* spreads across the fleet, not how a shared cache absorbs it — the
multi-core rerun the ROADMAP asks for. Its scaling table records as
``E16c-miss-heavy`` instead of overwriting the cached-mode TSV. Marked
``slow``.
"""

import json
import os
import random
import threading
import time

import pytest

from repro.bench.harness import print_table
from repro.cluster import BackgroundCluster, ClusterConfig
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace, fact_from_wire
from repro.net import AdminClient, NetClientConnection
from repro.net.client import NetGatewayClient
from repro.policy import policy_to_text
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway, GatewayConfig, WorkloadDriver
from repro.workloads import calendar_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E16_QUICK", "") not in ("", "0")
MISS_HEAVY = os.environ.get("E16_MISS_HEAVY", "") not in ("", "0")

#: Shard database parameters — every shard, and every local replica this
#: benchmark compares against, must be built from the same (size, seed).
SIZE = 10
SEED = 7


def make_replica():
    """An (app, db, truth) triple identical to what each shard builds."""
    app = calendar_app.make_app()
    db = app.make_database(SIZE, SEED)
    return app, db, app.ground_truth_policy()


def without_view(policy: Policy, name: str) -> Policy:
    return Policy([v for v in policy.views if v.name != name], name=f"minus-{name}")


def read_audits(paths) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def decision_key(sql, bindings, allowed) -> tuple:
    return (sql, json.dumps(bindings, sort_keys=True, default=str), bool(allowed))


def multiset(keys) -> dict:
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


# --------------------------------------------------------------------------
# E16a — sharded vs single-gateway decision fidelity
# --------------------------------------------------------------------------


def fidelity(shards: int, n_requests: int, audit_dir: str):
    app, db, truth = make_replica()
    requests = calendar_app.request_stream(db, random.Random(11), n_requests)

    config = ClusterConfig(app="calendar", shards=shards, size=SIZE, seed=SEED,
                           audit_dir=audit_dir)
    with BackgroundCluster(config) as cluster:
        client = NetGatewayClient("127.0.0.1", cluster.port)
        cluster_report = WorkloadDriver(app, client, workers=4).run(requests)
        client.close()
        audit_paths = cluster.audit_paths()
    cluster_keys = multiset(
        decision_key(r["sql"], r["bindings"], r["allowed"])
        for r in read_audits(audit_paths)
    )

    gateway = EnforcementGateway(db, truth, GatewayConfig())
    single_records: list = []
    audit_lock = threading.Lock()

    def audit(record):
        with audit_lock:
            single_records.append(record)

    gateway.decision_audit = audit
    single_report = WorkloadDriver(app, gateway, workers=4).run(requests)
    gateway.close()
    single_keys = multiset(
        decision_key(r.sql, r.bindings, r.allowed) for r in single_records
    )

    disagreements = sum(
        abs(cluster_keys.get(key, 0) - single_keys.get(key, 0))
        for key in set(cluster_keys) | set(single_keys)
    )
    rows = [
        ("cluster", shards, n_requests, cluster_report.completed,
         cluster_report.blocked, cluster_report.aborted,
         sum(cluster_keys.values()), disagreements),
        ("single gateway", 1, n_requests, single_report.completed,
         single_report.blocked, single_report.aborted,
         sum(single_keys.values()), "-"),
    ]
    return rows, disagreements, cluster_report, single_report


# --------------------------------------------------------------------------
# E16c — session scaling vs shard count
# --------------------------------------------------------------------------


def scaling(shard_counts, n_requests: int, cache_mode: str = "shared"):
    app, db, _ = make_replica()
    requests = calendar_app.request_stream(db, random.Random(23), n_requests)
    cores = os.cpu_count() or 1
    rows = []
    throughputs = {}
    for shards in shard_counts:
        config = ClusterConfig(
            app="calendar", shards=shards, size=SIZE, seed=SEED,
            cache_mode=cache_mode,
        )
        with BackgroundCluster(config) as cluster:
            client = NetGatewayClient("127.0.0.1", cluster.port)
            report = WorkloadDriver(app, client, workers=8).run(requests)
            client.close()
        throughputs[shards] = report.throughput_rps
        rows.append(
            (shards, cores, cache_mode, n_requests, report.sessions,
             report.completed, report.aborted, report.errors,
             round(report.throughput_rps, 1),
             round(report.throughput_rps / throughputs[shard_counts[0]], 2))
        )
    return rows, throughputs


# --------------------------------------------------------------------------
# E16d — rolling reload under load: re-verify every audited decision
# --------------------------------------------------------------------------


def rolling_reload(shards: int, reloads: int, audit_dir: str):
    app, db, truth = make_replica()
    reduced = without_view(truth, "V2")
    config = ClusterConfig(app="calendar", shards=shards, size=SIZE, seed=SEED,
                           audit_dir=audit_dir)
    stop = threading.Event()
    errors: list = []
    executes = [0, 0, 0]  # prepared EXECUTEs completed, per traffic thread

    def traffic(slot: int, uid: int) -> None:
        # Each principal drives its hot shape through a *prepared handle*:
        # every reload flips the policy version under the handle, so the
        # loop crosses the stale-refuse -> re-prepare -> retry path on
        # every swap while the audit stream records the decisions.
        try:
            connection = NetClientConnection("127.0.0.1", port, user=uid)
            prepared = connection.prepare(
                "SELECT EId FROM Attendance WHERE UId = ?"
            )
            while not stop.is_set():
                connection.execute(prepared, [uid])
                executes[slot] += 1
                try:
                    connection.query("SELECT * FROM Events WHERE EId = 2")
                except PolicyViolation:
                    pass
            connection.close()
        except Exception as exc:  # pragma: no cover - surfaced in the table
            errors.append(exc)

    with BackgroundCluster(config) as cluster:
        port = cluster.port
        threads = [
            threading.Thread(target=traffic, args=(slot, uid))
            for slot, uid in enumerate((1, 2, 3))
        ]
        for thread in threads:
            thread.start()
        admin = AdminClient("127.0.0.1", port)
        try:
            # Version v serves `truth` when odd, `reduced` when even, so a
            # decision stamped with the wrong version would actually flip.
            for version in range(2, reloads + 2):
                policy = truth if version % 2 == 1 else reduced
                report = admin.reload(
                    policy_to_text(policy), label=f"rolling-v{version}"
                )
                assert report["new_version"] == version
                time.sleep(0.2)
        finally:
            admin.close()
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        with AdminClient("127.0.0.1", port) as admin:
            net_counters = admin.stats()["net"]["counters"]
        audit_paths = cluster.audit_paths()

    records = read_audits(audit_paths)
    checkers = {
        version: ComplianceChecker(
            db.schema, truth if version % 2 == 1 else reduced
        )
        for version in range(1, reloads + 2)
    }
    torn = 0
    for record in records:
        trace = Trace.from_facts(fact_from_wire(f) for f in record["facts"])
        fresh = checkers[record["policy_version"]].check(
            db.parse(record["sql"]), record["bindings"], trace
        )
        if fresh.allowed != record["allowed"]:
            torn += 1
    versions_seen = sorted({record["policy_version"] for record in records})
    prepared_stats = {
        "executes": sum(executes),
        "prepared": net_counters.get("statements_prepared", 0),
        "stale": net_counters.get("prepared_stale", 0),
    }
    rows = [
        (shards, reloads, len(records), torn, len(errors),
         f"{versions_seen[0]}..{versions_seen[-1]}" if versions_seen else "-",
         prepared_stats["executes"], prepared_stats["stale"])
    ]
    return rows, torn, len(errors), len(records), prepared_stats


# --------------------------------------------------------------------------


def test_e16_cluster(benchmark, capsys, tmp_path):
    fidelity_shards = 2 if QUICK else 4
    fidelity_requests = 80 if QUICK else 300
    scale_counts = (1, 2) if QUICK else (1, 2, 4)
    scale_requests = 100 if QUICK else 400
    reload_shards = 2 if QUICK else 4
    reloads = 3 if QUICK else 6

    scale_cache_mode = "none" if MISS_HEAVY else "shared"

    fidelity_rows, disagreements, cluster_report, single_report = fidelity(
        fidelity_shards, fidelity_requests, str(tmp_path / "fidelity")
    )
    scaling_rows, throughputs = scaling(
        scale_counts, scale_requests, cache_mode=scale_cache_mode
    )
    reload_rows, torn, traffic_errors, audited, prepared_stats = rolling_reload(
        reload_shards, reloads, str(tmp_path / "reload")
    )

    # The measured pass for the benchmark fixture: one routed round trip
    # (router hop + shard decision) on a warm 2-shard cluster.
    config = ClusterConfig(app="calendar", shards=2, size=SIZE, seed=SEED)
    with BackgroundCluster(config) as cluster:
        connection = NetClientConnection("127.0.0.1", cluster.port, user=1)

        def one_roundtrip():
            connection.query("SELECT EId FROM Attendance WHERE UId = ?", [1])

        one_roundtrip()  # warm the caches out of the measured pass
        benchmark.pedantic(one_roundtrip, rounds=20, iterations=5)
        connection.close()

    with capsys.disabled():
        print_table(
            "E16a",
            "sharded cluster vs single gateway: decision fidelity",
            ["deployment", "shards", "requests", "completed", "blocked",
             "aborted", "decisions", "disagreements"],
            fidelity_rows,
        )
        print_table(
            "E16c-miss-heavy" if MISS_HEAVY else "E16c",
            "workload throughput vs shard count"
            + (" (miss-heavy: --cache none, checker CPU dominates)"
               if MISS_HEAVY else ""),
            ["shards", "cores", "cache", "requests", "sessions", "completed",
             "aborted", "errors", "req/s", "speedup"],
            scaling_rows,
        )
        print_table(
            "E16d",
            "rolling reload under load (audited decisions re-verified)",
            ["shards", "reloads", "decisions", "torn", "errors", "versions",
             "prepared execs", "stale refusals"],
            reload_rows,
        )

    # E16a: identical decision multisets, and the replays really ran.
    assert disagreements == 0
    assert cluster_report.errors == 0 and single_report.errors == 0
    assert cluster_report.completed == single_report.completed
    # E16c: every fleet size served the full stream cleanly, and the
    # distribution layer's tax stays bounded even with every shard
    # contending for one core.
    for shards in scale_counts:
        assert throughputs[shards] > 0.3 * throughputs[scale_counts[0]]
    # E16d: zero torn-version decisions across every shard's audit — and
    # the prepared handles actually *lived through* the rolling reload:
    # traffic executed through handles the whole run, every swap
    # stale-refused the live ones, and the transparent re-prepares kept
    # the decision stream torn-free (the cluster-smoke CI gate).
    assert torn == 0
    assert traffic_errors == 0
    assert audited > 0
    assert prepared_stats["executes"] > 0
    assert prepared_stats["stale"] > 0
