"""E4 — Language-based policy extraction (§3.2.1, Example 3.1).

Table: per app, paths explored, views emitted, precision/recall against
the hand-written ground truth, and wall time. The Listing 1 row checks
the paper's concrete claim: show_event alone yields exactly {V1, V2}.
"""

import time

from repro.bench.harness import print_table
from repro.extract.symbolic import SymbolicExtractor
from repro.policy.compare import compare_policies
from repro.workloads import APPS

from conftest import fresh_app


def listing1_row():
    app, db = fresh_app("calendar")
    extractor = SymbolicExtractor(db.schema)
    started = time.perf_counter()
    policy, report = extractor.extract([app.handlers["show_event"]])
    elapsed = time.perf_counter() - started
    return (
        "calendar (Listing 1 only)",
        report.paths_explored["show_event"],
        len(policy),
        "= {V1, V2}" if len(policy) == 2 else "UNEXPECTED",
        "-",
        "-",
        f"{elapsed * 1e3:.1f}",
    )


def per_app_rows():
    rows = [listing1_row()]
    for name in APPS:
        app, db = fresh_app(name)
        extractor = SymbolicExtractor(db.schema)
        started = time.perf_counter()
        policy, report = extractor.extract(list(app.handlers.values()))
        elapsed = time.perf_counter() - started
        comparison = compare_policies(policy, app.ground_truth_policy())
        rows.append(
            (
                name,
                sum(report.paths_explored.values()),
                len(policy),
                "exact" if comparison.exact else comparison.describe(),
                f"{comparison.precision:.2f}",
                f"{comparison.recall:.2f}",
                f"{elapsed * 1e3:.1f}",
            )
        )
    return rows


def test_e4_symbolic_extraction(benchmark, capsys):
    app, db = fresh_app("calendar")

    def extract_all():
        extractor = SymbolicExtractor(db.schema)
        return extractor.extract(list(app.handlers.values()))

    policy, _ = benchmark.pedantic(extract_all, rounds=10, iterations=1)
    assert compare_policies(policy, app.ground_truth_policy()).exact

    with capsys.disabled():
        print_table(
            "E4",
            "symbolic policy extraction vs ground truth",
            ["app", "paths", "views", "match", "precision", "recall", "ms"],
            per_app_rows(),
        )
