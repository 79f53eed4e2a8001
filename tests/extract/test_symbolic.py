"""Symbolic-extraction tests: Listing 1 → {V1, V2} and beyond."""

import pytest

from repro.extract.symbolic import SymbolicExtractor
from repro.policy import View, compare_policies
from repro.policy.compare import view_covered_by
from repro.workloads import calendar_app, employees, hospital, social


class TestListing1:
    """Example 3.1: the show_event handler yields exactly V1 and V2."""

    @pytest.fixture
    def extracted(self, calendar_schema):
        extractor = SymbolicExtractor(calendar_schema)
        handlers = [calendar_app.make_handlers()["show_event"]]
        policy, report = extractor.extract(handlers)
        return policy, report, calendar_schema

    def test_two_views_extracted(self, extracted):
        policy, _, _ = extracted
        assert len(policy) == 2

    def test_v1_recovered(self, extracted):
        policy, _, schema = extracted
        truth_v1 = View(
            "T1", "SELECT EId FROM Attendance WHERE UId = ?MyUId", schema
        )
        assert view_covered_by(truth_v1, policy)

    def test_v2_recovered(self, extracted):
        policy, _, schema = extracted
        truth_v2 = View(
            "T2",
            "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId"
            " WHERE a.UId = ?MyUId",
            schema,
        )
        assert view_covered_by(truth_v2, policy)

    def test_no_over_generalization(self, extracted):
        # The extracted policy must NOT reveal arbitrary events.
        policy, _, schema = extracted
        too_broad = View("B", "SELECT Title FROM Events", schema)
        assert not view_covered_by(too_broad, policy)

    def test_both_paths_explored(self, extracted):
        _, report, _ = extracted
        assert report.paths_explored["show_event"] == 2


@pytest.mark.parametrize("module", [calendar_app, hospital, employees, social])
def test_full_app_extraction_exact(module):
    """E4 headline: extracted policy ≡ ground truth on every workload."""
    app = module.make_app()
    schema = app.make_database(8, 1).schema
    extractor = SymbolicExtractor(schema)
    extracted, _ = extractor.extract(list(app.handlers.values()))
    comparison = compare_policies(extracted, app.ground_truth_policy())
    assert comparison.exact, f"{app.name}: {comparison.describe()}"


class TestGuards:
    def test_empty_branch_query_not_guarded_by_emptiness(self, calendar_schema):
        """Queries issued on the IsEmpty branch drop the negative guard."""
        from repro.extract.handlers import (
            Assign,
            Handler,
            If,
            IsEmpty,
            ParamRef,
            Query,
            Return,
            SessionRef,
        )

        handler = Handler(
            name="fallback",
            params=("eid",),
            body=(
                Assign(
                    "check",
                    Query(
                        "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
                        (SessionRef("user_id"), ParamRef("eid")),
                    ),
                ),
                If(
                    IsEmpty("check"),
                    # Fallback on the *empty* branch: still issues a query.
                    then=(Return(Query("SELECT UId, Name FROM Users WHERE UId = ?",
                                       (SessionRef("user_id"),))),),
                    orelse=(Return(Query("SELECT * FROM Events WHERE EId = ?",
                                         (ParamRef("eid"),))),),
                ),
            ),
        )
        extractor = SymbolicExtractor(calendar_schema)
        policy, report = extractor.extract([handler])
        # The fallback view must exist and not be narrowed by a guard.
        from repro.policy.compare import view_covered_by

        self_view = View(
            "S", "SELECT UId, Name FROM Users WHERE UId = ?MyUId", calendar_schema
        )
        assert view_covered_by(self_view, policy)

    def test_session_param_mapping_configurable(self, calendar_schema):
        from repro.extract.handlers import Handler, Query, Return, SessionRef

        handler = Handler(
            name="h",
            params=(),
            body=(
                Return(
                    Query(
                        "SELECT EId FROM Attendance WHERE UId = ?",
                        (SessionRef("staff_id"),),
                    )
                ),
            ),
        )
        extractor = SymbolicExtractor(
            calendar_schema, session_params={"staff_id": "StaffId"}
        )
        policy, _ = extractor.extract([handler])
        assert policy.views[0].param_names == ["StaffId"]


class TestDedup:
    def test_equivalent_views_merged(self, calendar_schema):
        from repro.extract.handlers import Handler, Query, Return, SessionRef

        h1 = Handler(
            "a",
            (),
            (Return(Query("SELECT EId FROM Attendance WHERE UId = ?",
                          (SessionRef("user_id"),))),),
        )
        h2 = Handler(
            "b",
            (),
            (Return(Query("SELECT a.EId FROM Attendance a WHERE a.UId = ?",
                          (SessionRef("user_id"),))),),
        )
        extractor = SymbolicExtractor(calendar_schema)
        policy, _ = extractor.extract([h1, h2])
        assert len(policy) == 1

    def test_projection_of_other_view_dropped(self, calendar_schema):
        from repro.extract.handlers import Handler, Query, Return, SessionRef

        full = Handler(
            "full",
            (),
            (Return(Query("SELECT UId, EId FROM Attendance WHERE UId = ?",
                          (SessionRef("user_id"),))),),
        )
        narrow = Handler(
            "narrow",
            (),
            (Return(Query("SELECT EId FROM Attendance WHERE UId = ?",
                          (SessionRef("user_id"),))),),
        )
        extractor = SymbolicExtractor(calendar_schema)
        policy, _ = extractor.extract([full, narrow])
        assert len(policy) == 1
