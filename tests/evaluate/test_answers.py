"""CQ-over-instance evaluator tests."""

from repro.evaluate.answers import (
    enumerate_instances,
    evaluate_cq,
    evaluate_ucq,
    nonempty,
    view_image,
)
from repro.relalg.cq import CQ, Atom, Param, Var
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select


def tr(sql, schema):
    return translate_select(parse_select(sql), schema)


INSTANCE = {
    "R": {(1, 10), (2, 20), (3, 10)},
    "S": {(10, "x"), (20, "y")},
    "T": set(),
}


class TestEvaluate:
    def test_projection(self, dict_schema):
        query = tr("SELECT a FROM R", dict_schema).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(1,), (2,), (3,)}

    def test_selection(self, dict_schema):
        query = tr("SELECT a FROM R WHERE b = 10", dict_schema).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(1,), (3,)}

    def test_join(self, dict_schema):
        query = tr(
            "SELECT R.a, S.c FROM R JOIN S ON R.b = S.b", dict_schema
        ).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(1, "x"), (3, "x"), (2, "y")}

    def test_order_comparison(self, dict_schema):
        query = tr("SELECT a FROM R WHERE a >= 2", dict_schema).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(2,), (3,)}

    def test_constant_head(self, dict_schema):
        query = tr("SELECT 1 FROM R WHERE a = 1", dict_schema).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(1,)}

    def test_empty_relation(self, dict_schema):
        query = tr("SELECT x FROM T", dict_schema).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == set()

    def test_missing_relation_treated_empty(self, dict_schema):
        query = tr("SELECT x FROM T", dict_schema).disjuncts[0]
        assert evaluate_cq(query, {}) == set()

    def test_param_matches_nothing(self):
        query = CQ(
            head=(Var("x"),),
            body=(Atom("R", (Var("x"), Param("P"))),),
        )
        assert evaluate_cq(query, INSTANCE) == set()

    def test_ucq_union(self, dict_schema):
        query = tr("SELECT a FROM R WHERE b = 10 OR a = 2", dict_schema)
        assert evaluate_ucq(query, INSTANCE) == {(1,), (2,), (3,)}

    def test_nonempty_early_exit(self, dict_schema):
        query = tr("SELECT a FROM R", dict_schema).disjuncts[0]
        assert nonempty(query, INSTANCE)
        empty = tr("SELECT x FROM T", dict_schema).disjuncts[0]
        assert not nonempty(empty, INSTANCE)

    def test_view_image_frozen(self, dict_schema):
        query = tr("SELECT a FROM R", dict_schema).disjuncts[0]
        image = view_image(query, INSTANCE)
        assert isinstance(image, frozenset)

    def test_self_join(self, dict_schema):
        query = tr(
            "SELECT r1.a, r2.a FROM R r1 JOIN R r2 ON r1.b = r2.b"
            " WHERE r1.a < r2.a",
            dict_schema,
        ).disjuncts[0]
        assert evaluate_cq(query, INSTANCE) == {(1, 3)}


class TestEnumeration:
    def test_counts_small_space(self):
        # One unary relation over a 2-element domain, at most 2 rows:
        # {} {a} {b} {a,b} = 4 instances.
        instances = list(enumerate_instances({"U": 1}, [1, 2], max_rows=2))
        contents = {frozenset(i.get("U", set())) for i in instances}
        assert len(contents) == 4

    def test_respects_row_bound(self):
        instances = list(enumerate_instances({"U": 1}, [1, 2, 3], max_rows=1))
        assert all(len(i.get("U", set())) <= 1 for i in instances)
