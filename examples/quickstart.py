#!/usr/bin/env python3
"""Quickstart: the paper's Example 2.1 in twenty lines.

Run:  python examples/quickstart.py
"""

from repro import EnforcementGateway, PolicyViolation
from repro.workloads import calendar_app


def main() -> None:
    # A calendar database and the paper's view-based policy (V1, V2, ...).
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.ground_truth_policy()
    print(policy.describe())
    print()

    # The application talks to the proxy exactly as it would to the DB:
    # each request opens a session of the gateway, bound to its user.
    gateway = EnforcementGateway(db, policy)
    proxy = gateway.connect(1)

    # (Q1) "Does the current user attend Event #2?" — allowed under V1.
    q1 = proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 2])
    print(f"Q1 allowed; returned {len(q1)} row(s)")

    # (Q2) "Fetch Event #2's details" — allowed ONLY because Q1 returned
    # a row: the trace certifies Attendance(1, 2), which V2 then covers.
    q2 = proxy.query("SELECT * FROM Events WHERE EId = ?", [2])
    print(f"Q2 allowed given the history; event row: {q2.first()}")

    # The same Q2 from a fresh session (no history) is blocked outright.
    fresh = gateway.connect(1)
    try:
        fresh.query("SELECT * FROM Events WHERE EId = ?", [2])
    except PolicyViolation as violation:
        print(f"fresh session: {violation.decision.describe()}")

    # And a query for data the policy never grants is always blocked.
    try:
        proxy.query("SELECT * FROM Events")
    except PolicyViolation as violation:
        print(f"full dump:     {violation.decision.describe()}")


if __name__ == "__main__":
    main()
