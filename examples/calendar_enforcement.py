#!/usr/bin/env python3
"""Serve a realistic calendar workload behind three connection modes.

Shows the deployment story of §2.2: the same application handlers run
unmodified against a direct connection, the enforcing proxy (with its
decision-template cache), and a row-level-security baseline — and the
proxy blocks nothing on a compliant workload while stopping every probe.

Run:  python examples/calendar_enforcement.py
"""

import random
import time

from repro import EnforcementGateway, PolicyViolation
from repro.workloads import calendar_app
from repro.workloads.runner import AppRunner


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    print(f"  {label:<28} {time.perf_counter() - started:6.3f}s")
    return result


def main() -> None:
    app = calendar_app.make_app()
    db = calendar_app.make_database(size=20, seed=7)
    policy = app.ground_truth_policy()
    requests = app.request_stream(db, random.Random(1), 150)
    print(f"serving {len(requests)} requests over {db.total_rows()} rows\n")

    print("mode timings:")
    timed("direct (no enforcement)", lambda: AppRunner(app, db, mode="direct").run_all(requests))

    gateway = EnforcementGateway(db, policy)
    runner = AppRunner(app, db, mode="gateway", gateway=gateway)
    outcomes = timed("enforcement proxy", lambda: runner.run_all(requests))
    blocked = [o for o in outcomes if o.blocked]
    print(f"    false blocks: {len(blocked)} (expected 0)")
    cache = gateway.shared_cache
    print(f"    cache: {cache.size} templates, {cache.hit_rate:.0%} hit rate")

    timed("RLS baseline", lambda: AppRunner(app, db, mode="rls").run_all(requests))

    print("\nattack probes (user 1):")
    proxy = gateway.connect(1)
    for sql, args in app.attack_queries(db, 1):
        try:
            proxy.query(sql, args)
            print(f"  ALLOWED (unexpected!): {sql}")
        except PolicyViolation:
            print(f"  blocked: {sql}")


if __name__ == "__main__":
    main()
