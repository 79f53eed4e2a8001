"""Rewriting-engine tests: equivalent, contained, and partial rewritings."""

import pytest

from repro.relalg.containment import cq_contained_in
from repro.relalg.cq import Atom, CQ, Const, Var
from repro.relalg.rewrite import (
    GuardPattern,
    SearchBudget,
    SearchBudgetExhausted,
    ViewDef,
    enumerate_rewritings,
    find_equivalent_rewriting,
    guard_patterns,
    is_wildcard,
    maximally_contained_rewritings,
)
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select


def tr1(sql, schema, name=None):
    return translate_select(parse_select(sql), schema, name).disjuncts[0]


def calendar_views(dict_schema, uid=1):
    v1 = tr1(
        "SELECT EId FROM Attendance WHERE UId = ?MyUId", dict_schema, "V1"
    ).instantiate({"MyUId": uid})
    v2 = tr1(
        "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId"
        " WHERE a.UId = ?MyUId",
        dict_schema,
        "V2",
    ).instantiate({"MyUId": uid})
    return [ViewDef("V1", v1), ViewDef("V2", v2)]


class TestEquivalentRewriting:
    def test_identity_view(self, dict_schema):
        view = ViewDef("V", tr1("SELECT a, b FROM R", dict_schema))
        query = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        rewriting = find_equivalent_rewriting(query, [view])
        assert rewriting is not None
        assert rewriting.atoms[0].rel == "V"

    def test_example_2_1_q1_allowed(self, dict_schema):
        views = calendar_views(dict_schema)
        q1 = tr1("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2", dict_schema)
        assert find_equivalent_rewriting(q1, views) is not None

    def test_example_2_1_q2_blocked_without_history(self, dict_schema):
        views = calendar_views(dict_schema)
        q2 = tr1("SELECT * FROM Events WHERE EId = 2", dict_schema)
        assert find_equivalent_rewriting(q2, views) is None

    def test_example_2_1_q2_allowed_with_fact(self, dict_schema):
        views = calendar_views(dict_schema)
        q2 = tr1("SELECT * FROM Events WHERE EId = 2", dict_schema)
        fact = Atom("Attendance", (Const(1), Const(2)))
        augmented = CQ(
            head=q2.head,
            body=q2.body + (fact,),
            comps=q2.comps,
            head_names=q2.head_names,
        )
        rewriting = find_equivalent_rewriting(augmented, views, facts=[fact])
        assert rewriting is not None

    def test_projection_through_view(self, dict_schema):
        # A view exposing more columns than the query needs still covers it.
        view = ViewDef("V", tr1("SELECT EId, Title, Time, Loc FROM Events", dict_schema))
        query = tr1("SELECT Title FROM Events", dict_schema)
        assert find_equivalent_rewriting(query, [view]) is not None

    def test_view_comp_enforces_predicate_without_exposure(self, dict_schema):
        # Vseniors doesn't expose Age, yet covers the Age >= 60 query.
        view = ViewDef(
            "Vseniors", tr1("SELECT Name FROM Employees WHERE Age >= 60", dict_schema)
        )
        query = tr1("SELECT Name FROM Employees WHERE Age >= 60", dict_schema)
        assert find_equivalent_rewriting(query, [view]) is not None

    def test_weaker_view_comp_insufficient(self, dict_schema):
        view = ViewDef(
            "Vadults", tr1("SELECT Name FROM Employees WHERE Age >= 18", dict_schema)
        )
        query = tr1("SELECT Name FROM Employees WHERE Age >= 60", dict_schema)
        assert find_equivalent_rewriting(query, [view]) is None

    def test_hidden_column_blocks(self, dict_schema):
        view = ViewDef("Vdir", tr1("SELECT EId, Name, Dept FROM Employees", dict_schema))
        query = tr1("SELECT Salary FROM Employees", dict_schema)
        assert find_equivalent_rewriting(query, [view]) is None

    def test_join_of_two_views(self, dict_schema):
        va = ViewDef("VA", tr1("SELECT a, b FROM R", dict_schema))
        vb = ViewDef("VB", tr1("SELECT b, c FROM S", dict_schema))
        query = tr1("SELECT R.a, S.c FROM R JOIN S ON R.b = S.b", dict_schema)
        rewriting = find_equivalent_rewriting(query, [va, vb])
        assert rewriting is not None
        assert {atom.rel for atom in rewriting.atoms} == {"VA", "VB"}


class TestContainedRewriting:
    def test_narrowing_found(self, dict_schema):
        views = calendar_views(dict_schema)
        query = tr1("SELECT * FROM Events WHERE EId = 2", dict_schema)
        rewritings = maximally_contained_rewritings(query, views)
        assert rewritings
        for rewriting in rewritings:
            assert cq_contained_in(rewriting.expansion, query)

    def test_no_rewriting_for_untouched_relation(self, dict_schema):
        views = [ViewDef("V", tr1("SELECT a, b FROM R", dict_schema))]
        query = tr1("SELECT x FROM T", dict_schema)
        assert maximally_contained_rewritings(query, views) == []

    def test_maximality_pruning(self, dict_schema):
        # Both a broad and a narrow view apply; only the broad one's
        # rewriting should survive pruning.
        broad = ViewDef("VB", tr1("SELECT a, b FROM R", dict_schema))
        narrow = ViewDef("VN", tr1("SELECT a, b FROM R WHERE b = 3", dict_schema))
        query = tr1("SELECT a FROM R", dict_schema)
        rewritings = maximally_contained_rewritings(query, [broad, narrow])
        assert len(rewritings) == 1
        assert rewritings[0].atoms[0].rel == "VB"


class TestPartialRewriting:
    def test_partial_skips_uncoverable_subgoal(self, dict_schema):
        # Upper bound on a join where only one side has a view.
        view = ViewDef("V", tr1("SELECT a, b FROM R", dict_schema))
        query = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b", dict_schema)
        candidates = list(
            enumerate_rewritings(query, [view], allow_partial=True)
        )
        assert candidates
        assert any(
            cq_contained_in(query, c.expansion) for c in candidates
        )

    def test_full_cover_returns_nothing_when_gap(self, dict_schema):
        view = ViewDef("V", tr1("SELECT a, b FROM R", dict_schema))
        query = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b", dict_schema)
        assert list(enumerate_rewritings(query, [view])) == []

    def test_candidate_cap_respected(self, dict_schema):
        views = [
            ViewDef(f"V{i}", tr1("SELECT a, b FROM R", dict_schema)) for i in range(6)
        ]
        query = tr1("SELECT a FROM R", dict_schema)
        candidates = list(enumerate_rewritings(query, views, max_candidates=3))
        assert len(candidates) <= 3


class TestGuardPatterns:
    def test_example_2_1_q2_lacks_the_attendance_row(self, dict_schema):
        q2 = tr1("SELECT * FROM Events WHERE EId = 2", dict_schema)
        patterns = guard_patterns(q2, calendar_views(dict_schema))
        assert GuardPattern(frozenset({0}), (Atom("Attendance", (Const(1), Const(2))),)) in (
            patterns
        )

    def test_a_view_covering_everything_or_nothing_leaves_no_pattern(self, dict_schema):
        q1 = tr1("SELECT EId FROM Attendance WHERE UId = 1", dict_schema)
        # V1 maps whole; V2's Attendance atom maps and leaves Events(EId, ...)
        # with only wildcards besides it.
        patterns = guard_patterns(q1, calendar_views(dict_schema))
        assert patterns and all(
            [atom.rel for atom in pattern.atoms] == ["Events"] for pattern in patterns
        )
        assert all(
            is_wildcard(arg) for pattern in patterns for arg in pattern.atoms[0].args[1:]
        )

    def test_an_unsatisfiable_query_has_none(self, dict_schema):
        query = tr1("SELECT * FROM Events WHERE EId = 2 AND EId = 3", dict_schema)
        assert guard_patterns(query, calendar_views(dict_schema)) == []


class TestViewNamespace:
    """A ``ViewDef`` arrives renamed apart once, so the search never
    renames it per check."""

    def test_instantiated_view_variables_are_apart_from_query_names(self):
        from repro.workloads import calendar_app

        schema = calendar_app.make_schema()
        views = calendar_app.ground_truth_policy().view_defs({"MyUId": 1})
        view_vars = {var for view in views for var in view.cq.variables()}
        assert view_vars
        query = tr1(
            "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId"
            " WHERE a.UId = 1",
            schema,
        )
        assert not view_vars & query.variables()
        rewriting = find_equivalent_rewriting(query, views)
        assert rewriting is not None
        rw_vars = {
            arg
            for candidate in enumerate_rewritings(query, views)
            for atom in candidate.atoms
            for arg in atom.args
            if isinstance(arg, Var) and arg.name.startswith("rw")
        }
        assert rw_vars and not view_vars & rw_vars
        assert not any(is_wildcard(var) for var in view_vars)
        probe = tr1("SELECT EId FROM Attendance WHERE UId = 1", schema)
        wildcards = {
            arg
            for pattern in guard_patterns(probe, views)
            for atom in pattern.atoms
            for arg in atom.args
            if is_wildcard(arg)
        }
        assert wildcards and not wildcards & view_vars

    def test_renaming_is_idempotent(self, dict_schema):
        view = calendar_views(dict_schema)[0]
        assert ViewDef(view.name, view.cq).cq == view.cq
        assert all(var.name.startswith("V1:") for var in view.cq.variables())

    def test_a_query_named_like_the_view_still_rewrites(self, dict_schema):
        # The query and the view share every variable name before renaming.
        cq = tr1("SELECT a, b FROM R", dict_schema)
        assert find_equivalent_rewriting(cq, [ViewDef("V", cq)]) is not None


class TestSearchBudget:
    def test_exhaustion_raises_instead_of_answering(self, dict_schema):
        q1 = tr1("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2", dict_schema)
        views = calendar_views(dict_schema)
        budget = SearchBudget(1)
        with pytest.raises(SearchBudgetExhausted):
            find_equivalent_rewriting(q1, views, budget=budget)
        roomy = SearchBudget(100)
        assert find_equivalent_rewriting(q1, views, budget=roomy) is not None
        assert 0 <= roomy.remaining < 100
