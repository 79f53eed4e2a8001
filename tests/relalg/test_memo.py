"""Tests for the rewriting-core memoization layer (``repro.relalg.memo``).

Three claims, each with its own test class: the LRU memo is a bounded,
counted cache; canonicalization identifies exactly the alpha-equivalent
queries (``Policy.canonical_views`` compares views by it); and the
memoized containment path agrees with the unmemoized computation
(memoization off) while actually hitting its cache on exact repeats.
"""

from __future__ import annotations

import pytest

from repro.enforce.checker import ComplianceChecker
from repro.relalg import memo
from repro.relalg.containment import cq_contained_in
from repro.relalg.cq import Const, Var
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app


@pytest.fixture(autouse=True)
def clean_memos():
    """Isolate every test from global memo state (and restore it after)."""
    previous = memo.set_memoization(True)
    memo.clear_memos()
    memo.reset_memo_stats()
    yield
    memo.set_memoization(previous)
    memo.clear_memos()
    memo.reset_memo_stats()


def tr1(sql, schema):
    return translate_select(parse_select(sql), schema).disjuncts[0]


def rename_vars(cq, suffix):
    """An alpha-variant of ``cq``: every variable renamed with ``suffix``."""
    mapping = {v: Var(f"{v.name}{suffix}") for v in cq.variables()}
    return cq.substitute(mapping)


class TestLRUMemo:
    def test_get_put_and_counters(self):
        m = memo.LRUMemo("t", maxsize=4)
        assert m.get("k") is memo.MISSING
        m.put("k", "v")
        assert m.get("k") == "v"
        assert m.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    def test_falsy_values_are_hits(self):
        # Containment results are often False; MISSING (not None) is the
        # miss sentinel precisely so falsy values cache correctly.
        m = memo.LRUMemo("t", maxsize=4)
        m.put("k", False)
        assert m.get("k") is False
        assert m.hits == 1

    def test_bounded_with_lru_eviction(self):
        m = memo.LRUMemo("t", maxsize=2)
        m.put("a", 1)
        m.put("b", 2)
        m.get("a")  # refresh "a" so "b" is now the LRU entry
        m.put("c", 3)
        assert len(m) == 2
        assert m.evictions == 1
        assert m.get("b") is memo.MISSING
        assert m.get("a") == 1
        assert m.get("c") == 3

    def test_clear_and_reset_stats(self):
        m = memo.LRUMemo("t", maxsize=4)
        m.put("a", 1)
        m.get("a")
        m.get("zzz")
        m.clear()
        assert len(m) == 0
        m.reset_stats()
        assert m.stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            memo.LRUMemo("t", maxsize=0)

    def test_memo_stats_is_flat_and_prefixed(self):
        stats = memo.memo_stats()
        assert sorted(stats) == [
            f"containment_{counter}"
            for counter in ("evictions", "hits", "misses", "size")
        ]


class TestCanonicalForm:
    def test_alpha_variants_share_canonical_form(self, dict_schema):
        q = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        variant = rename_vars(q, "'")
        assert q != variant
        assert memo.canonical_form(q)[0] == memo.canonical_form(variant)[0]

    def test_constants_not_abstracted(self, dict_schema):
        q3 = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        q4 = tr1("SELECT a FROM R WHERE b = 4", dict_schema)
        assert memo.canonical_form(q3)[0] != memo.canonical_form(q4)[0]
        canon = memo.canonical_form(q3)[0]
        assert any(
            Const(3) in atom.args for atom in canon.body
        ) or any(Const(3) in (comp.left, comp.right) for comp in canon.comps)

    def test_inverse_mapping_round_trips(self, dict_schema):
        q = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b WHERE c >= 2", dict_schema)
        canonical, inverse = memo.canonical_form(q)
        restored = canonical.substitute(inverse)
        # name/head_names are stripped by design; everything semantic
        # (head terms, body, comparisons) round-trips exactly.
        assert restored.head == q.head
        assert restored.body == q.body
        assert restored.comps == q.comps

    def test_idempotent(self, dict_schema):
        q = tr1("SELECT R.a FROM R JOIN S ON R.b = S.b", dict_schema)
        canonical, _ = memo.canonical_form(q)
        again, inverse = memo.canonical_form(canonical)
        assert again == canonical
        assert all(v == k for k, v in inverse.items())

    def test_distinct_shapes_stay_distinct(self, dict_schema):
        q1 = tr1("SELECT a FROM R", dict_schema)
        q2 = tr1("SELECT b FROM R", dict_schema)
        assert memo.canonical_form(q1)[0] != memo.canonical_form(q2)[0]


PAIRS = [
    # (narrow, broad) SQL pairs covering the containment fragment.
    ("SELECT a FROM R WHERE b = 3", "SELECT a FROM R"),
    ("SELECT R.a FROM R JOIN S ON R.b = S.b", "SELECT a FROM R"),
    ("SELECT Name FROM Employees WHERE Age >= 60",
     "SELECT Name FROM Employees WHERE Age >= 18"),
    ("SELECT EId FROM Attendance WHERE UId = ?MyUId",
     "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
    ("SELECT a FROM R", "SELECT b FROM R"),
]


class TestMemoizedContainment:
    def test_agrees_with_seed_path(self, dict_schema):
        for narrow_sql, broad_sql in PAIRS:
            narrow = tr1(narrow_sql, dict_schema)
            broad = tr1(broad_sql, dict_schema)
            for q1, q2 in ((narrow, broad), (broad, narrow)):
                memo.set_memoization(False)
                seed = cq_contained_in(q1, q2)
                memo.set_memoization(True)
                assert cq_contained_in(q1, q2) == seed  # first call: miss
                assert cq_contained_in(q1, q2) == seed  # second call: hit

    def test_exact_repeats_hit_and_alpha_variants_do_not(self, dict_schema):
        # The memo keys on the pair itself: an identical pair replays its
        # answer, and an alpha-variant (no cheaper to canonicalize than to
        # decide) is computed afresh, with the same answer.
        narrow = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        broad = tr1("SELECT a FROM R", dict_schema)
        assert cq_contained_in(narrow, broad)
        assert cq_contained_in(narrow, broad)
        assert memo.CONTAINMENT_MEMO.hits == 1
        assert cq_contained_in(rename_vars(narrow, "'"), rename_vars(broad, "~x"))
        assert memo.CONTAINMENT_MEMO.hits == 1
        assert memo.CONTAINMENT_MEMO.misses == 2

    def test_disabled_path_leaves_memos_untouched(self, dict_schema):
        memo.set_memoization(False)
        q = tr1("SELECT a FROM R WHERE b = 3", dict_schema)
        cq_contained_in(q, tr1("SELECT a FROM R", dict_schema))
        stats = memo.memo_stats()
        assert stats["containment_hits"] == 0
        assert stats["containment_misses"] == 0
        assert stats["containment_size"] == 0


CHECKER_QUERIES = [
    ("SELECT EId FROM Attendance WHERE UId = ?", [1]),
    ("SELECT Title, Loc FROM Events WHERE EId = ?", [2]),
    ("SELECT Name FROM Users WHERE UId = ?", [4]),
    ("SELECT UId FROM Attendance WHERE EId = ?", [3]),
    ("SELECT * FROM Events", []),
]


class TestMemoizedChecker:
    """End-to-end: full compliance checks agree with memoization on/off."""

    def test_decisions_identical_and_containment_memo_hits(self):
        schema = calendar_app.make_schema()
        policy = calendar_app.ground_truth_policy()
        checker = ComplianceChecker(schema, policy)
        bindings = {"MyUId": 1}
        stmts = [
            bind_parameters(parse_select(sql), args) for sql, args in CHECKER_QUERIES
        ]

        memo.set_memoization(False)
        seed = [checker.check(stmt, bindings) for stmt in stmts]

        memo.set_memoization(True)
        cold = [checker.check(stmt, bindings) for stmt in stmts]
        warm = [checker.check(stmt, bindings) for stmt in stmts]

        for seed_d, cold_d, warm_d in zip(seed, cold, warm):
            assert cold_d.allowed == seed_d.allowed
            assert warm_d.allowed == seed_d.allowed
            assert cold_d.reason == seed_d.reason
            assert warm_d.reason == seed_d.reason
        # The warm pass repeats every containment test of the cold one:
        # the memo must be doing real work by then.
        stats = memo.memo_stats()
        assert stats["containment_hits"] > 0
        assert stats["containment_misses"] > 0
