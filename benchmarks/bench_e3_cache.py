"""E3 — Decision-cache behavior over a session stream (figure).

Series: cumulative cache hit rate and mean decision latency as requests
accumulate. Expected shape: hit rate climbs toward 1 as the workload's
query templates are all seen; decision latency drops correspondingly.
"""

import contextlib
import gc
import random

from repro.bench.harness import print_figure_series
from repro.enforce import DecisionCache, PolicyViolation
from repro.extract.handlers import run_handler
from repro.workloads.runner import AppRunner

from conftest import fresh_app

CHECKPOINTS = [10, 25, 50, 100, 200]


def cache_series():
    app, db = fresh_app("calendar", size=20)
    policy = app.ground_truth_policy()
    cache = DecisionCache(policy)
    runner = AppRunner(app, db, mode="proxy", policy=policy, cache=cache)
    requests = app.request_stream(db, random.Random(8), max(CHECKPOINTS))
    hit_rates = []
    mean_check_us = []
    served = total_checks = 0
    total_seconds = 0.0
    # Collect what earlier benchmarks left and freeze the survivors, so a
    # full collection does not land inside a timed decision.
    gc.collect()
    gc.freeze()
    try:
        for checkpoint in CHECKPOINTS:
            # Each request's proxy is its own session: sum their stats as
            # the batch runs.
            for request in requests[served:checkpoint]:
                proxy = runner.connection_for(request.session)
                with contextlib.suppress(PolicyViolation):
                    run_handler(
                        app.handlers[request.handler], proxy, request.params, request.session
                    )
                total_checks += proxy.stats.allowed + proxy.stats.blocked
                total_seconds += proxy.stats.check_seconds
            served = checkpoint
            hit_rates.append(round(cache.hit_rate, 3))
            mean_check_us.append(round(total_seconds / max(total_checks, 1) * 1e6, 1))
    finally:
        gc.unfreeze()
    return hit_rates, mean_check_us


def test_e3_cache_hit_rate(benchmark, capsys):
    app, db = fresh_app("calendar", size=20)
    policy = app.ground_truth_policy()
    cache = DecisionCache(policy)
    runner = AppRunner(app, db, mode="proxy", policy=policy, cache=cache)
    warmup = app.request_stream(db, random.Random(8), 50)
    runner.run_all(warmup)
    probe = warmup[:10]

    def cached_pass():
        runner.run_all(probe)

    benchmark.pedantic(cached_pass, rounds=20, iterations=1)
    assert cache.hit_rate > 0.5

    with capsys.disabled():
        hit_rates, mean_check_us = cache_series()
        print_figure_series(
            "E3",
            "decision cache over a session stream",
            "requests",
            CHECKPOINTS,
            {"hit rate": hit_rates, "mean decision µs": mean_check_us},
        )
