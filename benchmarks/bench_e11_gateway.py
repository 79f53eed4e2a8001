"""E11 — Multi-session gateway: shared-cache scaling (tables).

Two questions, both on concurrent multi-user replays through
``repro.serve``:

* **E11b, scaling** — throughput and hit rate as sessions and workers
  grow, with write invalidation in the mix; **E11c** — the same across
  the four bundled workloads.

* **Safety** — with ``verify_cached_decisions`` on, every cache hit is
  replayed through the uncached :class:`ComplianceChecker`; across all
  E11 runs there must be **zero** disagreements (a shared, generalized
  decision is only ever reused when the requesting session would have
  been allowed by a fresh check).

E11a — one shared cache against a private cache per session — is
retired with the private mode it measured; its table and the reason are
recorded in EXPERIMENTS.md ("E11a — retired").

Marked ``slow``: full-checker verification on every hit is expensive by
design.
"""

import random

import pytest

from repro.bench.harness import print_table
from repro.serve import EnforcementGateway, GatewayConfig, WorkloadDriver

from conftest import fresh_app

pytestmark = pytest.mark.slow

#: Disagreements observed across every run in this module; asserted zero.
DISAGREEMENTS: list[tuple[str, int]] = []


def replay(
    app_name: str,
    users: int,
    requests: int,
    workers: int,
    write_every: int = 0,
    seed: int = 11,
):
    app, db = fresh_app(app_name, size=users)
    policy = app.ground_truth_policy()
    gateway = EnforcementGateway(
        db, policy, GatewayConfig(verify_cached_decisions=True)
    )
    driver = WorkloadDriver(app, gateway, workers=workers, write_every=write_every)
    stream = app.request_stream(db, random.Random(seed), requests)
    report = driver.run(stream)
    counters = report.metrics.counters
    DISAGREEMENTS.append(
        (
            f"{app_name}/u{users}/w{workers}",
            counters.get("cache_disagreements", 0),
        )
    )
    return report


def scaling_rows():
    rows = []
    for workers in (1, 2, 4, 8):
        report = replay("social", 24, 240, workers, write_every=4, seed=13)
        stages = report.metrics.stages
        rows.append(
            (
                workers,
                report.sessions,
                round(report.throughput_rps, 1),
                round(report.hit_rate, 3),
                report.writes,
                report.metrics.counters.get("templates_invalidated", 0),
                round(stages.get("check", {}).get("p50_us", 0.0)),
            )
        )
    return rows


def workload_rows():
    rows = []
    for app_name in ("calendar", "hospital", "employees", "social"):
        report = replay(app_name, 16, 160, 4, write_every=5, seed=9)
        counters = report.metrics.counters
        rows.append(
            (
                app_name,
                report.requests,
                report.completed,
                report.blocked + report.aborted,
                round(report.hit_rate, 3),
                counters.get("templates_invalidated", 0),
                counters.get("cache_disagreements", 0),
            )
        )
    return rows


def test_e11_gateway(benchmark, capsys):
    scaling = scaling_rows()
    workloads = workload_rows()

    # One tight measured pass for the benchmark fixture: a warmed shared
    # cache serving a small concurrent batch.
    app, db = fresh_app("social", size=12)
    policy = app.ground_truth_policy()
    gateway = EnforcementGateway(db, policy, GatewayConfig())
    driver = WorkloadDriver(app, gateway, workers=4)
    stream = app.request_stream(db, random.Random(3), 60)
    driver.run(stream)  # warm

    def warm_replay():
        driver.run(stream)

    benchmark.pedantic(warm_replay, rounds=5, iterations=1)

    with capsys.disabled():
        print_table(
            "E11b",
            "gateway scaling with write invalidation (social, 24 users)",
            [
                "workers",
                "sessions",
                "req/s",
                "hit rate",
                "writes",
                "invalidated",
                "check p50 µs",
            ],
            scaling,
        )
        print_table(
            "E11c",
            "gateway across workloads (16 users, 4 workers, writes every 5)",
            [
                "app",
                "requests",
                "completed",
                "denied",
                "hit rate",
                "invalidated",
                "disagreements",
            ],
            workloads,
        )
        total = sum(count for _, count in DISAGREEMENTS)
        print(
            f"\ncache-vs-checker disagreements across {len(DISAGREEMENTS)}"
            f" E11 runs: {total}"
        )

    # No cached decision ever disagreed with the uncached checker.
    assert all(count == 0 for _, count in DISAGREEMENTS), DISAGREEMENTS
