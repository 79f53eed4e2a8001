"""E7 — Prior-agnostic privacy verdict matrix (§4.3, Examples 4.1/4.2).

Table: each scenario's PQI/NQI verdict next to the paper's expectation,
plus checker wall time. The employee rows are Example 4.2 verbatim; the
hospital row is Example 4.1 with the treated-by-assigned-doctor
constraint supplied as a TGD.
"""

import time

from repro.bench.harness import print_table
from repro.evaluate.nqi import check_nqi
from repro.evaluate.pqi import check_pqi
from repro.relalg.chase import TGD
from repro.relalg.cq import Atom, Var
from repro.relalg.rewrite import ViewDef
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app, employees, hospital

HOSPITAL_TGD = TGD(
    body=(Atom("PatientConditions", (Var("p"), Var("d"))),),
    head=(
        Atom("Patients", (Var("p"), Var("n"), Var("doc"))),
        Atom("DoctorDiseases", (Var("doc"), Var("d"))),
    ),
    name="treated-by-assigned-doctor",
)


def tr1(sql, schema, name=None):
    return translate_select(parse_select(sql), schema, name).disjuncts[0]


def scenarios():
    es = employees.make_schema()
    q1 = tr1(employees.Q1_SQL, es, "Q1")
    q2 = tr1(employees.Q2_SQL, es, "Q2")
    hs = hospital.make_schema()
    h_views = hospital.ground_truth_policy().view_defs({})
    h_sensitive = tr1(
        hospital.sensitive_query_sql().replace("?PatientId", "1"), hs, "S"
    )
    cs = calendar_app.make_schema()
    c_views = calendar_app.ground_truth_policy().view_defs({"MyUId": 1})
    c_sensitive = tr1("SELECT Title FROM Events", cs, "S")
    other_user = tr1("SELECT EId FROM Attendance WHERE UId = 99", cs, "S")
    return [
        # (label, sensitive, views, constraints, expected PQI, expected NQI)
        ("Ex4.2 V={Q1}, S=Q2", q2, [ViewDef("Q1", q1)], None, True, False),
        ("Ex4.2 V={Q2}, S=Q1", q1, [ViewDef("Q2", q2)], None, False, True),
        ("Ex4.1 hospital + TGD", h_sensitive, h_views, [HOSPITAL_TGD], False, True),
        ("Ex4.1 hospital, no TGD", h_sensitive, h_views, None, False, False),
        ("calendar: all titles", c_sensitive, c_views, None, True, False),
        ("calendar: user 99 attnd.", other_user, c_views, None, True, False),
        (
            "calendar sans V4: user 99",
            other_user,
            [v for v in c_views if v.name != "V4"],
            None,
            False,
            False,
        ),
    ]


def matrix_rows():
    rows = []
    for label, sensitive, views, constraints, want_pqi, want_nqi in scenarios():
        started = time.perf_counter()
        pqi = check_pqi(sensitive, views, constraints=constraints)
        nqi = check_nqi(sensitive, views, constraints=constraints)
        elapsed = (time.perf_counter() - started) * 1e3
        status = "ok" if pqi.holds == want_pqi and nqi.holds == want_nqi else "MISMATCH"
        rows.append(
            (
                label,
                "PQI" if pqi.holds else "-",
                "NQI" if nqi.holds else "-",
                f"{'PQI' if want_pqi else '-'}/{'NQI' if want_nqi else '-'}",
                f"{elapsed:.1f}",
                status,
            )
        )
    return rows


def test_e7_pqi_nqi_matrix(benchmark, capsys):
    es = employees.make_schema()
    q1 = tr1(employees.Q1_SQL, es, "Q1")
    q2 = tr1(employees.Q2_SQL, es, "Q2")

    def both_checks():
        return (
            check_pqi(q2, [ViewDef("Q1", q1)]).holds,
            check_nqi(q1, [ViewDef("Q2", q2)]).holds,
        )

    pqi, nqi = benchmark(both_checks)
    assert pqi and nqi

    with capsys.disabled():
        print_table(
            "E7",
            "PQI/NQI verdicts vs the paper's examples",
            ["scenario", "PQI", "NQI", "expected", "ms", "status"],
            matrix_rows(),
        )
