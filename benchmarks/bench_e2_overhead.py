"""E2 — Enforcement overhead (the Blockaid-setting latency table).

Per app, the mean per-query latency of serving the same compliant
request stream through: a direct connection, the enforcement proxy on a
new gateway (cold: its template store starts empty and learns as the
stream runs), the same gateway's second pass (its store warmed), and the
query-modification (RLS) baseline where the app has predicates.

Expected shape (mirroring Blockaid's evaluation): cached enforcement is
close to direct; cold checking costs a noticeable multiple; RLS sits near
direct (it only rewrites text).
"""

import random
import time

from repro.bench.harness import print_table
from repro.serve import EnforcementGateway
from repro.workloads import APPS
from repro.workloads.runner import AppRunner

from conftest import fresh_app

REQUESTS = 40


def run_mode(app, db, requests, mode, gateway=None):
    runner = AppRunner(app, db, mode=mode, gateway=gateway)
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
        requests = app.request_stream(db, random.Random(4), REQUESTS)

        direct_us, queries = run_mode(app, db, requests, "direct")
        # The cold pass warms the new gateway's store; measure the second.
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        cold_us, _ = run_mode(app, db, requests, "gateway", gateway)
        warm_us, _ = run_mode(app, db, requests, "gateway", gateway)
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
    requests = app.request_stream(db, random.Random(4), 10)
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    run_mode(app, db, requests, "gateway", gateway)  # warm

    def warm_pass():
        return run_mode(app, db, requests, "gateway", gateway)

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
