"""PQI/NQI checker tests — Examples 4.1 and 4.2 plus semantics checks."""

import pytest

from repro.evaluate.answers import evaluate_cq
from repro.evaluate.nqi import check_nqi
from repro.evaluate.pqi import check_pqi
from repro.relalg.chase import TGD
from repro.relalg.cq import Atom, Var
from repro.relalg.rewrite import ViewDef
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select
from repro.workloads import employees, hospital


def tr1(sql, schema, name=None):
    return translate_select(parse_select(sql), schema, name).disjuncts[0]


@pytest.fixture
def employee_queries():
    schema = employees.make_schema()
    q1 = tr1(employees.Q1_SQL, schema, "Q1")
    q2 = tr1(employees.Q2_SQL, schema, "Q2")
    return q1, q2


class TestExample42:
    """The paper's employee example, all four directions."""

    def test_pqi_seniors_reveal_adults(self, employee_queries):
        q1, q2 = employee_queries
        result = check_pqi(q2, [ViewDef("Q1", q1)])
        assert result.holds
        assert result.witness is not None

    def test_nqi_adults_bound_seniors(self, employee_queries):
        q1, q2 = employee_queries
        result = check_nqi(q1, [ViewDef("Q2", q2)])
        assert result.holds

    def test_pqi_not_conversely(self, employee_queries):
        q1, q2 = employee_queries
        assert not check_pqi(q1, [ViewDef("Q2", q2)]).holds

    def test_nqi_not_conversely(self, employee_queries):
        q1, q2 = employee_queries
        assert not check_nqi(q2, [ViewDef("Q1", q1)]).holds

    def test_pqi_witness_instance_is_concrete(self, employee_queries):
        q1, q2 = employee_queries
        result = check_pqi(q2, [ViewDef("Q1", q1)])
        assert result.witness_instance is not None
        assert result.certain_row is not None
        # The certain row really is an answer on the witness instance.
        assert result.certain_row in evaluate_cq(q2, result.witness_instance)

    def test_explanations_render(self, employee_queries):
        q1, q2 = employee_queries
        assert "PQI holds" in check_pqi(q2, [ViewDef("Q1", q1)]).explain()
        assert "no NQI witness" in check_nqi(q2, [ViewDef("Q1", q1)]).explain()


HOSPITAL_TGD = TGD(
    body=(Atom("PatientConditions", (Var("p"), Var("d"))),),
    head=(
        Atom("Patients", (Var("p"), Var("n"), Var("doc"))),
        Atom("DoctorDiseases", (Var("doc"), Var("d"))),
    ),
    name="treated-by-assigned-doctor",
)


class TestExample41:
    """The hospital example needs the integrity constraint (as a TGD)."""

    @pytest.fixture
    def setup(self):
        schema = hospital.make_schema()
        views = hospital.ground_truth_policy().view_defs({})
        sensitive = tr1(
            hospital.sensitive_query_sql().replace("?PatientId", "1"), schema, "S"
        )
        return sensitive, views

    def test_nqi_holds_under_constraint(self, setup):
        sensitive, views = setup
        result = check_nqi(sensitive, views, constraints=[HOSPITAL_TGD])
        assert result.holds

    def test_nqi_fails_without_constraint(self, setup):
        sensitive, views = setup
        assert not check_nqi(sensitive, views).holds

    def test_pqi_does_not_hold(self, setup):
        # The views never pin a patient's disease to a certain answer
        # (the patient might have no recorded condition at all).
        sensitive, views = setup
        assert not check_pqi(sensitive, views, constraints=[HOSPITAL_TGD]).holds


class TestCalendarScenario:
    def test_attended_titles_are_certain(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sensitive = tr1("SELECT Title FROM Events", calendar_schema, "S")
        assert check_pqi(sensitive, views).holds

    def test_titles_not_bounded(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sensitive = tr1("SELECT Title FROM Events", calendar_schema, "S")
        assert not check_nqi(sensitive, views).holds

    def test_coattendee_leak_detected(self, calendar_schema, calendar_policy):
        # V4 (attendee lists) genuinely discloses other users' attendance
        # at shared events — the checker finds this real PQI.
        views = calendar_policy.view_defs({"MyUId": 1})
        sensitive = tr1(
            "SELECT EId FROM Attendance WHERE UId = 99", calendar_schema, "S"
        )
        assert check_pqi(sensitive, views).holds

    def test_unrelated_sensitive_clean_without_v4(
        self, calendar_schema, calendar_policy
    ):
        # Without the attendee-list view, another user's attendance is
        # neither pinned nor bounded.
        views = [
            d for d in calendar_policy.view_defs({"MyUId": 1}) if d.name != "V4"
        ]
        sensitive = tr1(
            "SELECT EId FROM Attendance WHERE UId = 99", calendar_schema, "S"
        )
        assert not check_pqi(sensitive, views).holds
        assert not check_nqi(sensitive, views).holds


class TestEdgeCases:
    def test_unsatisfiable_sensitive(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sensitive = tr1(
            "SELECT Title FROM Events WHERE EId < 1 AND EId > 2", calendar_schema
        )
        assert not check_pqi(sensitive, views).holds
        assert not check_nqi(sensitive, views).holds

    def test_no_views(self, calendar_schema):
        sensitive = tr1("SELECT Title FROM Events", calendar_schema)
        assert not check_pqi(sensitive, []).holds
        assert not check_nqi(sensitive, []).holds

    def test_view_equal_to_sensitive_gives_both(self, calendar_schema):
        sensitive = tr1("SELECT Title FROM Events", calendar_schema)
        view = ViewDef("V", tr1("SELECT Title FROM Events", calendar_schema))
        assert check_pqi(sensitive, [view]).holds
        assert check_nqi(sensitive, [view]).holds
