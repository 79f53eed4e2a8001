"""E2 — Enforcement overhead (the Blockaid-setting latency table).

Per app, the mean per-query latency of serving the same compliant
request stream through: a direct connection, the enforcement proxy with a
cold decision path, the proxy with the decision-template cache warmed,
and the query-modification (RLS) baseline where the app has predicates.

Expected shape (mirroring Blockaid's evaluation): cached enforcement is
close to direct; cold checking costs a noticeable multiple; RLS sits near
direct (it only rewrites text).
"""

import random
import time

from repro.bench.harness import print_table
from repro.enforce import DecisionCache
from repro.workloads import APPS
from repro.workloads.runner import AppRunner

from conftest import fresh_app

REQUESTS = 40


def run_mode(app, db, requests, mode, policy=None, cache=None, history=True):
    runner = AppRunner(
        app, db, mode=mode, policy=policy, cache=cache, history_enabled=history
    )
    started = time.perf_counter()
    outcomes = runner.run_all(requests)
    elapsed = time.perf_counter() - started
    queries = sum(
        len(o.outcome.queries_issued) for o in outcomes if o.outcome is not None
    )
    return elapsed / max(queries, 1) * 1e6, queries  # µs per query


def overhead_rows():
    rows = []
    for name in APPS:
        app, db = fresh_app(name)
        policy = app.ground_truth_policy()
        requests = app.request_stream(db, random.Random(4), REQUESTS)

        direct_us, queries = run_mode(app, db, requests, "direct")
        cold_us, _ = run_mode(app, db, requests, "proxy", policy=policy)
        cache = DecisionCache(policy)
        # Warm the cache with one pass, measure the second.
        run_mode(app, db, requests, "proxy", policy=policy, cache=cache)
        warm_us, _ = run_mode(app, db, requests, "proxy", policy=policy, cache=cache)
        if app.rls_predicates:
            rls_us, _ = run_mode(app, db, requests, "rls")
            rls_cell = f"{rls_us:.0f}"
        else:
            rls_cell = "n/a"
        rows.append(
            (
                name,
                queries,
                f"{direct_us:.0f}",
                f"{cold_us:.0f}",
                f"{warm_us:.0f}",
                rls_cell,
                f"{cold_us / direct_us:.1f}x",
                f"{warm_us / direct_us:.1f}x",
            )
        )
    return rows


def test_e2_overhead(benchmark, capsys):
    app, db = fresh_app("calendar")
    policy = app.ground_truth_policy()
    requests = app.request_stream(db, random.Random(4), 10)
    cache = DecisionCache(policy)
    run_mode(app, db, requests, "proxy", policy=policy, cache=cache)  # warm

    def warm_pass():
        return run_mode(app, db, requests, "proxy", policy=policy, cache=cache)

    benchmark.pedantic(warm_pass, rounds=20, iterations=1)

    with capsys.disabled():
        print_table(
            "E2",
            "per-query latency (µs) by connection mode",
            [
                "app",
                "queries",
                "direct",
                "proxy cold",
                "proxy cached",
                "rls",
                "cold/direct",
                "cached/direct",
            ],
            overhead_rows(),
        )
