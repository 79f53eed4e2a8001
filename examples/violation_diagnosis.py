#!/usr/bin/env python3
"""Violation diagnosis (§5): from a blocked query to validated patches.

A "code update" makes the calendar app fetch event details without its
access check; the proxy blocks the query. The diagnosis produces a
counterexample (the proof of violation), a generated policy patch
(flagged as too broad), a query-narrowing patch, and the paper's
access-check patch — then applies the access check and shows the flow
passing.

Run:  python examples/violation_diagnosis.py
"""

from repro import EnforcementGateway, PolicyViolation
from repro.diagnose import diagnose
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app


def main() -> None:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.ground_truth_policy()
    gateway = EnforcementGateway(db, policy)
    proxy = gateway.connect(1)

    # The buggy handler skips the attendance check:
    offending_sql = "SELECT * FROM Events WHERE EId = ?"
    try:
        proxy.query(offending_sql, [2])
    except PolicyViolation as violation:
        print(f"{violation.decision.describe()}\n")

    stmt = bind_parameters(parse_select(offending_sql), [2])
    report = diagnose(stmt, {"MyUId": 1}, policy, db.schema)
    print(report.describe())

    # Apply the synthesized access check and replay the fixed flow.
    if report.access_check_patches:
        patch = report.access_check_patches[0]
        print("\n--- replaying with the access-check patch applied ---")
        fixed = gateway.connect(1)
        guard = fixed.query(patch.check_sql)
        if guard.is_empty():
            print("guard empty: the handler would 404 (and leak nothing)")
        else:
            detail = fixed.query(offending_sql, [2])
            print(f"guard passed; detail fetch allowed: {detail.first()}")


if __name__ == "__main__":
    main()
