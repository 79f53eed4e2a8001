"""E3 — Decision-cache behavior over a session stream (figure).

Series: cumulative cache hit rate and mean decision latency as requests
accumulate. Expected shape: hit rate climbs toward 1 as the workload's
query templates are all seen; decision latency drops correspondingly.
"""

import gc
import random

from repro.bench.harness import print_figure_series
from repro.serve import EnforcementGateway
from repro.workloads.runner import AppRunner

from conftest import fresh_app

CHECKPOINTS = [10, 25, 50, 100, 200]


def cache_series():
    app, db = fresh_app("calendar", size=20)
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    runner = AppRunner(app, db, mode="gateway", gateway=gateway)
    requests = app.request_stream(db, random.Random(8), max(CHECKPOINTS))
    hit_rates = []
    mean_check_us = []
    served = 0
    # Collect what earlier benchmarks left and freeze the survivors, so a
    # full collection does not land inside a timed decision.
    gc.collect()
    gc.freeze()
    try:
        for checkpoint in CHECKPOINTS:
            runner.run_all(requests[served:checkpoint])
            served = checkpoint
            hit_rates.append(round(gateway.cache_hit_rate(), 3))
            # Every decision so far, from the gateway's ``check`` stage.
            check = gateway.snapshot().stages["check"]
            mean_check_us.append(round(check["total_s"] / check["count"] * 1e6, 1))
    finally:
        gc.unfreeze()
    return hit_rates, mean_check_us


def test_e3_cache_hit_rate(benchmark, capsys):
    app, db = fresh_app("calendar", size=20)
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    runner = AppRunner(app, db, mode="gateway", gateway=gateway)
    warmup = app.request_stream(db, random.Random(8), 50)
    runner.run_all(warmup)
    probe = warmup[:10]

    def cached_pass():
        runner.run_all(probe)

    benchmark.pedantic(cached_pass, rounds=20, iterations=1)
    assert gateway.cache_hit_rate() > 0.5

    with capsys.disabled():
        hit_rates, mean_check_us = cache_series()
        print_figure_series(
            "E3",
            "decision cache over a session stream",
            "requests",
            CHECKPOINTS,
            {"hit rate": hit_rates, "mean decision µs": mean_check_us},
        )
