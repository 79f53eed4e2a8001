"""E10 — Scalability of the diagnosis machinery (§5.2, figures).

Two series:

* maximally-contained-rewriting time for a fixed blocked query as the
  number of policy views grows (synthetic view families appended to the
  social policy);
* compliance-check time as the session trace grows (the fact-selection
  heuristic keeps the conjoined set small, so the curve should stay
  near-flat).
"""

import time

from repro.bench.harness import print_figure_series
from repro.diagnose.rewrite import narrowing_patches
from repro.policy import Policy, View
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select

from conftest import fresh_app

VIEW_COUNTS = [2, 4, 8, 16, 32]
TRACE_LENGTHS = [0, 10, 25, 50, 100]


def synthetic_policy(schema, count):
    """The two core social views plus ``count - 2`` decoy selections."""
    views = [
        View("Vown", "SELECT * FROM Posts WHERE Author = ?MyUId", schema),
        View("Vpublic", "SELECT * FROM Posts WHERE Visibility = 'public'", schema),
    ]
    for index in range(count - 2):
        views.append(
            View(
                f"Vdecoy{index}",
                f"SELECT PId, Author FROM Posts WHERE PId = {1000 + index}",
                schema,
                "synthetic decoy",
            )
        )
    return Policy(views, name=f"synthetic-{count}")


def rewriting_scaling():
    app, db = fresh_app("social", size=10)
    schema = db.schema
    query = translate_select(
        parse_select("SELECT Content FROM Posts WHERE PId = 3"), schema
    ).disjuncts[0]
    times = []
    patch_counts = []
    for count in VIEW_COUNTS:
        policy = synthetic_policy(schema, count)
        views = policy.view_defs({"MyUId": 1})
        started = time.perf_counter()
        patches = narrowing_patches(query, "q", views, schema)
        times.append(round((time.perf_counter() - started) * 1e3, 1))
        patch_counts.append(len(patches))
    return times, patch_counts


def trace_scaling():
    app, db = fresh_app("calendar", size=60)
    policy = app.ground_truth_policy()
    times = []
    uid = 1
    my_events = [
        row[0]
        for row in db.query("SELECT EId FROM Attendance WHERE UId = ?", [uid]).rows
    ]
    # Give user 1 plenty of events to accumulate history over.
    for eid in range(1, 101):
        if db.query(
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
        ).is_empty():
            try:
                db.sql("INSERT INTO Attendance VALUES (?, ?)", [uid, eid])
            except Exception:
                break
    gateway = EnforcementGateway(db, policy)
    proxy = gateway.connect(uid)
    detail = "SELECT * FROM Events WHERE EId = ?"
    bound = bind_parameters(parse_select(detail), [1])
    served = 0
    for length in TRACE_LENGTHS:
        while served < length:
            eid = (served % 99) + 2  # fill the trace with other events
            proxy.query(
                "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid]
            )
            served += 1
        # The probe's own guard (event 1), then the detail fetch: its full
        # check over the session's trace is timed (a repeat would be a
        # template hit), and the fetch itself certifies as before.
        proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, 1])
        started = time.perf_counter()
        decision = gateway.epoch.checker.check(
            bound, proxy.session.bindings, proxy.trace, allow_compiled=False
        )
        times.append(round((time.perf_counter() - started) * 1e3, 2))
        assert decision.allowed
        proxy.query(detail, [1])
    return times


def test_e10_scaling(benchmark, capsys):
    app, db = fresh_app("social", size=10)
    schema = db.schema
    query = translate_select(
        parse_select("SELECT Content FROM Posts WHERE PId = 3"), schema
    ).disjuncts[0]
    policy = synthetic_policy(schema, 8)
    views = policy.view_defs({"MyUId": 1})

    def narrow():
        return narrowing_patches(query, "q", views, schema)

    benchmark(narrow)

    with capsys.disabled():
        times, patch_counts = rewriting_scaling()
        print_figure_series(
            "E10a",
            "maximally contained rewriting vs policy size (social)",
            "views",
            VIEW_COUNTS,
            {"ms": times, "patches": patch_counts},
        )
        trace_times = trace_scaling()
        print_figure_series(
            "E10b",
            "history-aware compliance check vs trace length (calendar)",
            "trace entries",
            TRACE_LENGTHS,
            {"decision ms": trace_times},
        )
