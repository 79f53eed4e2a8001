"""E1 — Enforcement decisions (§2.2, Example 2.1).

Table rows: the Example 2.1 verdict triple (Q1; Q2 with history; Q2
without history), then per-app decision counts on a compliant workload
(expect zero false blocks) and on the attack probes (expect zero false
allows).
"""

import random

from repro.bench.harness import print_table
from repro.enforce import PolicyViolation
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import APPS
from repro.workloads.runner import AppRunner

from conftest import fresh_app


def example_21_rows():
    app, db = fresh_app("calendar")
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    rows = []

    with_history = gateway.connect(1)
    with_history.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
    rows.append(("Ex2.1 Q1 (check)", "with history", "ALLOW", "paper: ALLOW"))
    try:
        with_history.query("SELECT * FROM Events WHERE EId = 2")
        verdict = "ALLOW"
    except PolicyViolation:
        verdict = "BLOCK"
    rows.append(("Ex2.1 Q2 (detail)", "with history", verdict, "paper: ALLOW"))

    fresh = gateway.connect(1)
    try:
        fresh.query("SELECT * FROM Events WHERE EId = 2")
        verdict = "ALLOW"
    except PolicyViolation:
        verdict = "BLOCK"
    rows.append(("Ex2.1 Q2 (detail)", "no history", verdict, "paper: BLOCK"))
    return rows


def workload_rows():
    rows = []
    for name in APPS:
        app, db = fresh_app(name)
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        requests = app.request_stream(db, random.Random(1), 60)
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        outcomes = runner.run_all(requests)
        false_blocks = sum(1 for o in outcomes if o.blocked)
        attacks = app.attack_queries(db, 1)
        proxy = gateway.connect(1)
        blocked = 0
        for sql, args in attacks:
            try:
                proxy.query(sql, args)
            except PolicyViolation:
                blocked += 1
        rows.append(
            (
                name,
                len(requests),
                false_blocks,
                f"{blocked}/{len(attacks)}",
                "ok" if false_blocks == 0 and blocked == len(attacks) else "MISMATCH",
            )
        )
    return rows


def test_e1_decision_matrix(benchmark, capsys):
    app, db = fresh_app("calendar")
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    checker = EnforcementGateway(db, app.ground_truth_policy()).epoch.checker

    def q1_decision():
        # The full check, every round: nothing is learned from it.
        return checker.check(
            bind_parameters(
                parse_select("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"),
                [1, 2],
            ),
            {"MyUId": 1},
            allow_compiled=False,
        )

    decision = benchmark(q1_decision)
    assert decision.allowed

    with capsys.disabled():
        print_table(
            "E1a",
            "Example 2.1 verdicts",
            ["query", "history", "verdict", "expected"],
            example_21_rows(),
        )
        print_table(
            "E1b",
            "compliant workload + attack probes, per app",
            ["app", "requests", "false blocks", "attacks blocked", "status"],
            workload_rows(),
        )
