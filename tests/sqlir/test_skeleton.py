"""Skeleton (constant hollowing) tests."""

from repro.sqlir import ast
from repro.sqlir.parser import parse_sql
from repro.sqlir.skeleton import fill, skeletonize


class TestSkeletonize:
    def test_constants_extracted_in_order(self):
        stmt = parse_sql("SELECT 1 FROM t WHERE a = 5 AND b = 'x'")
        skeleton = skeletonize(stmt)
        # The select-list literal is also a constant slot.
        assert skeleton.values == (1, 5, "x")

    def test_same_shape_same_skeleton(self):
        s1 = skeletonize(parse_sql("SELECT a FROM t WHERE b = 1"))
        s2 = skeletonize(parse_sql("SELECT a FROM t WHERE b = 99"))
        assert s1.statement == s2.statement

    def test_different_shape_different_skeleton(self):
        s1 = skeletonize(parse_sql("SELECT a FROM t WHERE b = 1"))
        s2 = skeletonize(parse_sql("SELECT a FROM t WHERE c = 1"))
        assert s1.statement != s2.statement

    def test_null_and_booleans_stay(self):
        stmt = parse_sql("SELECT a FROM t WHERE b IS NULL AND c = TRUE")
        skeleton = skeletonize(stmt)
        assert skeleton.values == ()

    def test_generalizable_flags(self):
        stmt = parse_sql("SELECT a FROM t WHERE b = 5 AND c >= 10")
        skeleton = skeletonize(stmt)
        assert skeleton.generalizable == (True, False)

    def test_in_list_slots_generalizable(self):
        stmt = parse_sql("SELECT a FROM t WHERE b IN (1, 2)")
        skeleton = skeletonize(stmt)
        assert skeleton.generalizable == (True, True)


class TestFill:
    def test_fill_restores_statement(self):
        stmt = parse_sql("SELECT a FROM t WHERE b = 5 AND c = 'x'")
        skeleton = skeletonize(stmt)
        assert fill(skeleton, skeleton.values) == stmt

    def test_fill_with_new_values(self):
        stmt = parse_sql("SELECT a FROM t WHERE b = 5")
        skeleton = skeletonize(stmt)
        refilled = fill(skeleton, (42,))
        assert isinstance(refilled, ast.Select)
        comparison = refilled.where
        assert comparison.right == ast.Literal(42)


GROUPED = [
    "SELECT a, COUNT(*) FROM t WHERE b = 5 GROUP BY a",
    "SELECT a FROM t WHERE b = 5 GROUP BY a HAVING COUNT(*) > 0",
    "SELECT a, c FROM t GROUP BY a, c HAVING SUM(d) >= 10 AND a = 'x' ORDER BY a LIMIT 3",
    "SELECT a FROM t JOIN u ON t.k = u.k WHERE u.b = 1 GROUP BY a HAVING MAX(u.c) <> 7",
]


class TestGroupByAndHavingAreKeyed:
    """A statement and its grouped twin are different shapes: GROUP BY and
    HAVING ride along in the skeleton (HAVING's literals hollowed like any
    others) instead of being dropped from it."""

    def test_fill_restores_grouped_statements(self):
        for sql in GROUPED:
            stmt = parse_sql(sql)
            skeleton = skeletonize(stmt)
            assert fill(skeleton, skeleton.values) == stmt, sql

    def test_grouped_twin_has_its_own_key(self):
        plain = skeletonize(parse_sql("SELECT a FROM t WHERE b = 5"))
        grouped = skeletonize(parse_sql("SELECT a FROM t WHERE b = 5 GROUP BY a"))
        having = skeletonize(
            parse_sql("SELECT a FROM t WHERE b = 5 GROUP BY a HAVING COUNT(*) > 0")
        )
        keys = {plain.statement, grouped.statement, having.statement}
        assert len(keys) == 3

    def test_having_literals_are_slots_and_order_comparisons_pin(self):
        skeleton = skeletonize(
            parse_sql("SELECT a FROM t WHERE b = 5 GROUP BY a HAVING COUNT(*) > 2 AND a = 9")
        )
        assert skeleton.values == (5, 2, 9)
        assert skeleton.generalizable == (True, False, True)
        other = skeletonize(
            parse_sql("SELECT a FROM t WHERE b = 6 GROUP BY a HAVING COUNT(*) > 3 AND a = 1")
        )
        assert other.statement == skeleton.statement
