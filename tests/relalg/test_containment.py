"""Containment tests, including the comparison fragment."""

from repro.relalg.containment import (
    containment_mapping,
    cq_contained_in,
    equivalent,
    satisfiable,
    ucq_contained_in,
)
from repro.relalg.cq import CQ, UCQ, Atom, Var
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select


def tr1(sql, schema):
    return translate_select(parse_select(sql), schema).disjuncts[0]


class TestPlainCQs:
    def test_identity(self, dict_schema):
        q = tr1("SELECT a FROM R", dict_schema)
        assert cq_contained_in(q, q)

    def test_selection_contained_in_full(self, dict_schema):
        narrow = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        broad = tr1("SELECT a FROM R", dict_schema)
        assert cq_contained_in(narrow, broad)
        assert not cq_contained_in(broad, narrow)

    def test_join_contained_in_single_table(self, dict_schema):
        join = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b", dict_schema)
        single = tr1("SELECT a FROM R", dict_schema)
        assert cq_contained_in(join, single)
        assert not cq_contained_in(single, join)

    def test_head_mismatch_not_contained(self, dict_schema):
        q1 = tr1("SELECT a FROM R", dict_schema)
        q2 = tr1("SELECT b FROM R", dict_schema)
        assert not cq_contained_in(q1, q2)

    def test_arity_mismatch(self, dict_schema):
        q1 = tr1("SELECT a FROM R", dict_schema)
        q2 = tr1("SELECT a, b FROM R", dict_schema)
        assert not cq_contained_in(q1, q2)

    def test_constant_head_alignment(self, dict_schema):
        q1 = tr1("SELECT 1 FROM R", dict_schema)
        q2 = tr1("SELECT 1 FROM R", dict_schema)
        q3 = tr1("SELECT 2 FROM R", dict_schema)
        assert cq_contained_in(q1, q2)
        assert not cq_contained_in(q1, q3)

    def test_equality_comp_vs_inline_constant(self, dict_schema):
        # R(x, 3) as a comp should match a container requiring b = 3.
        with_comp = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        container = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        assert equivalent(with_comp, container)

    def test_unsatisfiable_contained_in_anything(self, dict_schema):
        bottom = tr1("SELECT a FROM R WHERE a < 1 AND a > 2", dict_schema)
        anything = tr1("SELECT b FROM S", dict_schema)
        assert not satisfiable(bottom)
        assert cq_contained_in(bottom, anything)


class TestComparisons:
    def test_age_60_contained_in_age_18(self, dict_schema):
        seniors = tr1("SELECT Name FROM Employees WHERE Age >= 60", dict_schema)
        adults = tr1("SELECT Name FROM Employees WHERE Age >= 18", dict_schema)
        assert cq_contained_in(seniors, adults)
        assert not cq_contained_in(adults, seniors)

    def test_range_containment(self, dict_schema):
        inner = tr1(
            "SELECT Name FROM Employees WHERE Age >= 30 AND Age <= 40", dict_schema
        )
        outer = tr1(
            "SELECT Name FROM Employees WHERE Age >= 20 AND Age <= 50", dict_schema
        )
        assert cq_contained_in(inner, outer)
        assert not cq_contained_in(outer, inner)

    def test_equality_implies_range(self, dict_schema):
        point = tr1("SELECT Name FROM Employees WHERE Age = 35", dict_schema)
        band = tr1(
            "SELECT Name FROM Employees WHERE Age >= 30 AND Age <= 40", dict_schema
        )
        assert cq_contained_in(point, band)

    def test_neq_not_implied_by_nothing(self, dict_schema):
        all_rows = tr1("SELECT Name FROM Employees", dict_schema)
        not_30 = tr1("SELECT Name FROM Employees WHERE Age <> 30", dict_schema)
        assert not cq_contained_in(all_rows, not_30)
        assert cq_contained_in(not_30, all_rows)


class TestParams:
    def test_same_param_matches(self, dict_schema):
        q1 = tr1("SELECT EId FROM Attendance WHERE UId = ?MyUId", dict_schema)
        q2 = tr1("SELECT EId FROM Attendance WHERE UId = ?MyUId", dict_schema)
        assert cq_contained_in(q1, q2)

    def test_different_params_conservative(self, dict_schema):
        q1 = tr1("SELECT EId FROM Attendance WHERE UId = ?A", dict_schema)
        q2 = tr1("SELECT EId FROM Attendance WHERE UId = ?B", dict_schema)
        assert not cq_contained_in(q1, q2)


class TestUCQ:
    def test_disjunct_contained_in_union(self, dict_schema):
        union = translate_select(
            parse_select("SELECT a FROM R WHERE b = 1 OR b = 2"), dict_schema
        )
        left = tr1("SELECT a FROM R WHERE b = 1", dict_schema)
        assert ucq_contained_in(UCQ.of(left), union)

    def test_union_contained_in_broad(self, dict_schema):
        union = translate_select(
            parse_select("SELECT a FROM R WHERE b = 1 OR b = 2"), dict_schema
        )
        broad = tr1("SELECT a FROM R", dict_schema)
        assert ucq_contained_in(union, UCQ.of(broad))

    def test_broad_not_contained_in_union(self, dict_schema):
        union = translate_select(
            parse_select("SELECT a FROM R WHERE b = 1 OR b = 2"), dict_schema
        )
        broad = tr1("SELECT a FROM R", dict_schema)
        assert not ucq_contained_in(UCQ.of(broad), union)


class TestMapping:
    def test_mapping_witness_returned(self, dict_schema):
        narrow = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        broad = tr1("SELECT a FROM R", dict_schema)
        mapping = containment_mapping(narrow, broad)
        assert mapping is not None
        assert mapping[Var("R.a")] == Var("R.a")

    def test_no_mapping_when_not_contained(self, dict_schema):
        broad = tr1("SELECT a FROM R", dict_schema)
        narrow = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        assert containment_mapping(broad, narrow) is None

    def test_self_join_folding(self):
        # Q(x) :- R(x, y), R(x, x) is contained in Q'(x) :- R(x, z).
        q1 = CQ(
            head=(Var("x"),),
            body=(Atom("R", (Var("x"), Var("y"))), Atom("R", (Var("x"), Var("x")))),
        )
        q2 = CQ(head=(Var("x"),), body=(Atom("R", (Var("x"), Var("z"))),))
        assert cq_contained_in(q1, q2)
        assert not cq_contained_in(q2, q1)
