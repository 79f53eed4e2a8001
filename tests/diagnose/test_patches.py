"""Patch-generation tests: narrowing, abduction, and validation."""

from repro.diagnose.abduce import access_check_patches
from repro.diagnose.rewrite import narrowing_patches
from repro.relalg.containment import cq_contained_in
from repro.relalg.translate import translate_select
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


def tr1(sql, schema):
    return translate_select(parse_select(sql), schema).disjuncts[0]


class TestNarrowing:
    def test_q2_narrowed_to_attended(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sql = "SELECT * FROM Events WHERE EId = 2"
        query = tr1(sql, calendar_schema)
        patches = narrowing_patches(query, sql, views, calendar_schema)
        assert patches
        patch = patches[0]
        # The narrowed query joins in the Attendance check.
        assert "Attendance" in patch.narrowed_sql
        narrowed_cq = tr1(patch.narrowed_sql, calendar_schema)
        assert cq_contained_in(narrowed_cq, query)

    def test_narrowed_patch_validates(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sql = "SELECT * FROM Events WHERE EId = 2"
        query = tr1(sql, calendar_schema)
        patches = narrowing_patches(query, sql, views, calendar_schema)
        assert any(
            patch.validates({"MyUId": 1}, calendar_policy, calendar_schema)
            for patch in patches
        )

    def test_no_patch_when_nothing_contained(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sql = "SELECT PId, Disease FROM PatientConditions"
        # A relation no calendar view mentions.
        query = tr1("SELECT Name FROM Users WHERE UId = 77", calendar_schema)
        patches = narrowing_patches(query, "q", views, calendar_schema)
        # Narrowing to "my own row" is only possible when uid = 77 = MyUId;
        # with MyUId = 1 the views are over user 1, so the only contained
        # rewriting would be unsatisfiable and must be filtered out.
        for patch in patches:
            narrowed = tr1(patch.narrowed_sql, calendar_schema)
            assert cq_contained_in(narrowed, query)

    def test_patch_description_shows_diff(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        sql = "SELECT * FROM Events WHERE EId = 2"
        query = tr1(sql, calendar_schema)
        patch = narrowing_patches(query, sql, views, calendar_schema)[0]
        text = patch.describe()
        assert sql in text
        assert patch.narrowed_sql in text


class TestAbduction:
    def test_paper_example_check_synthesized(self, calendar_schema, calendar_policy):
        """§5.2.2: the synthesized check for Q2 alone is the paper's
        "Attendance contains row (UId=1, EId=2)"."""
        views = calendar_policy.view_defs({"MyUId": 1})
        query = tr1("SELECT * FROM Events WHERE EId = 2", calendar_schema)
        patches = access_check_patches(query, views, calendar_schema)
        assert patches
        sqls = [patch.check_sql for patch in patches]
        assert any("Attendance" in sql and "= 1" in sql and "= 2" in sql for sql in sqls)

    def test_patch_validates_via_replay(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        query = tr1("SELECT * FROM Events WHERE EId = 2", calendar_schema)
        stmt = bind_parameters(parse_select("SELECT * FROM Events WHERE EId = ?"), [2])
        patches = access_check_patches(query, views, calendar_schema)
        assert any(
            patch.validates(stmt, {"MyUId": 1}, calendar_policy, calendar_schema)
            for patch in patches
        )

    def test_no_check_for_untouched_relation(self, calendar_schema, calendar_policy):
        views = calendar_policy.view_defs({"MyUId": 1})
        # Users table of someone else: no view remainder helps.
        query = tr1("SELECT Name FROM Users WHERE UId = 77", calendar_schema)
        patches = access_check_patches(query, views, calendar_schema)
        for patch in patches:
            # Whatever is found must have validated, i.e. genuinely makes
            # the query compliant; for user 77 under MyUId=1 none should.
            assert False, f"unexpected patch {patch.check_sql}"

    def test_existing_facts_not_resuggested(self, calendar_schema, calendar_policy):
        from repro.relalg.cq import Atom, Const

        views = calendar_policy.view_defs({"MyUId": 1})
        query = tr1("SELECT * FROM Events WHERE EId = 2", calendar_schema)
        fact = Atom("Attendance", (Const(1), Const(2)))
        # With the fact already certified the query is compliant; the
        # generator may return nothing or redundant checks — but anything
        # returned must still validate.
        patches = access_check_patches(
            query, views, calendar_schema, existing_facts=[fact]
        )
        stmt = bind_parameters(parse_select("SELECT * FROM Events WHERE EId = ?"), [2])
        for patch in patches:
            assert patch.validates(stmt, {"MyUId": 1}, calendar_policy, calendar_schema)
