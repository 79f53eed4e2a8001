"""E9 — Violation diagnosis on seeded violations (§5.2, table).

Each row is a seeded violation — either an application overreach (a
query issued without its guard) or a policy gap (a view removed from the
policy). Columns report whether a counterexample was found, how many
validated patches of each form were generated, the triage verdict's
direction, and the wall time.
"""

import time

from repro.bench.harness import print_table
from repro.diagnose import diagnose
from repro.policy import Policy
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import employees, social

from conftest import fresh_app


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


def seeded_violations():
    """(label, stmt, bindings, policy, schema, expected-culprit)."""
    cases = []

    capp, cdb = fresh_app("calendar")
    cpolicy = capp.ground_truth_policy()
    cases.append(
        (
            "calendar: unguarded detail fetch",
            bound("SELECT * FROM Events WHERE EId = ?", [2]),
            {"MyUId": 1},
            cpolicy,
            cdb.schema,
            "application",
        )
    )
    cases.append(
        (
            "calendar: full event dump",
            bound("SELECT * FROM Events"),
            {"MyUId": 1},
            cpolicy,
            cdb.schema,
            "application",
        )
    )
    gapped = Policy([v for v in cpolicy.views if v.name != "V3"], name="gapped")
    cases.append(
        (
            "calendar: missing self view",
            bound("SELECT * FROM Users WHERE UId = ?", [1]),
            {"MyUId": 1},
            gapped,
            cdb.schema,
            "policy",
        )
    )

    eapp, edb = fresh_app("employees")
    epolicy = eapp.ground_truth_policy()
    cases.append(
        (
            "employees: salary scrape",
            bound("SELECT Name, Salary FROM Employees"),
            {"MyUId": 1},
            epolicy,
            edb.schema,
            "application",
        )
    )
    egapped = Policy(
        [v for v in epolicy.views if v.name != "Vseniors"], name="egapped"
    )
    cases.append(
        (
            "employees: missing seniors view",
            bound("SELECT Name FROM Employees WHERE Age >= 60"),
            {"MyUId": 1},
            egapped,
            edb.schema,
            "either",
        )
    )

    sapp, sdb = fresh_app("social")
    spolicy = sapp.ground_truth_policy()
    cases.append(
        (
            "social: friends-only content grab",
            bound("SELECT Content FROM Posts WHERE PId = ?", [1]),
            {"MyUId": 2},
            spolicy,
            sdb.schema,
            "application",
        )
    )
    return cases


def diagnosis_rows():
    rows = []
    for label, stmt, bindings, policy, schema, expected in seeded_violations():
        started = time.perf_counter()
        report = diagnose(stmt, bindings, policy, schema)
        elapsed = (time.perf_counter() - started) * 1e3
        if report.verdict.startswith("either"):
            direction = "either"
        elif "application" in report.verdict:
            direction = "application"
        elif "policy" in report.verdict:
            direction = "policy"
        else:
            direction = "other"
        matched = "either" in (expected, direction) or direction == expected
        rows.append(
            (
                label,
                "yes" if report.counterexample else "no",
                len(report.policy_patches),
                len(report.narrowing_patches),
                len(report.access_check_patches),
                direction,
                "ok" if matched else "MISMATCH",
                f"{elapsed:.0f}",
            )
        )
    return rows


def test_e9_diagnosis(benchmark, capsys):
    app, db = fresh_app("calendar")
    policy = app.ground_truth_policy()
    stmt = bound("SELECT * FROM Events WHERE EId = ?", [2])

    def run_diagnosis():
        return diagnose(stmt, {"MyUId": 1}, policy, db.schema)

    report = benchmark.pedantic(run_diagnosis, rounds=10, iterations=1)
    assert report.counterexample is not None
    assert report.access_check_patches

    with capsys.disabled():
        print_table(
            "E9",
            "diagnosis of seeded violations",
            [
                "violation",
                "counterex.",
                "policy patches",
                "narrowings",
                "access checks",
                "verdict",
                "triage",
                "ms",
            ],
            diagnosis_rows(),
        )
