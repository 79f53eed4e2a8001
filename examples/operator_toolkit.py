#!/usr/bin/env python3
"""The operator's day-2 toolkit: lint, explain, and the fragment boundary.

Three small workflows an operator ("Dora", in the paper) runs after
enforcement is deployed:

1. lint a policy draft for redundant/broad/typo'd views,
2. ask the proxy to *explain* its decisions (the machine-checkable
   justification behind each ALLOW), and
3. see the analyzable-fragment boundary in action: aggregate analytics
   run fine on a direct (trusted) connection, while the same SQL through
   the proxy is conservatively blocked.

Run:  python examples/operator_toolkit.py
"""

from repro import EnforcementGateway, PolicyViolation
from repro.policy import Policy, View, lint_policy
from repro.workloads import employees


def lint_demo(db) -> None:
    print("=== policy lint ===")
    draft = Policy(
        [
            View("Vdir", "SELECT EId, Name, Dept FROM Employees", db.schema),
            # Redundant: a projection of Vdir.
            View("Vnames", "SELECT Name FROM Employees", db.schema),
            # Typo'd parameter (?MyUid vs ?MyUId).
            View("Vself", "SELECT * FROM Employees WHERE EId = ?MyUId", db.schema),
            View("Voops", "SELECT Salary FROM Employees WHERE EId = ?MyUid", db.schema),
            View("Vme2", "SELECT Age FROM Employees WHERE EId = ?MyUId", db.schema),
        ],
        name="draft",
    )
    for finding in lint_policy(draft):
        print(" ", finding.describe())
    print()


def explain_demo(db) -> None:
    print("=== decision explanations ===")
    policy = employees.ground_truth_policy()
    proxy = EnforcementGateway(db, policy).connect(3)
    proxy.query("SELECT EId, Name, Dept FROM Employees")
    print(proxy.last_decision.explain())
    try:
        proxy.query("SELECT Name, Salary FROM Employees")
    except PolicyViolation as violation:
        print(violation.decision.explain())
    print()


def fragment_demo(db) -> None:
    print("=== fragment boundary: analytics vs enforcement ===")
    analytics = (
        "SELECT Dept, COUNT(*), AVG(Salary) FROM Employees"
        " GROUP BY Dept HAVING COUNT(*) >= 5 ORDER BY Dept"
    )
    print("direct (trusted operator connection):")
    for dept, headcount, avg_salary in db.query(analytics).rows:
        print(f"  {dept:<8} headcount={headcount:<3} avg salary={avg_salary:,.0f}")
    proxy = EnforcementGateway(db, employees.ground_truth_policy()).connect(3)
    try:
        proxy.query(analytics)
    except PolicyViolation as violation:
        print(f"proxied: {violation.decision.describe()}")
        print(
            "  (aggregates are outside the analyzable fragment; the proxy"
            " blocks rather than guess)"
        )


def main() -> None:
    db = employees.make_database(size=40, seed=13)
    lint_demo(db)
    explain_demo(db)
    fragment_demo(db)


if __name__ == "__main__":
    main()
