"""End-to-end diagnosis tests (§5.2's triage heuristic included)."""

import pytest

from repro.diagnose import diagnose
from repro.policy import Policy
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select


def bound(sql, args=()):
    return bind_parameters(parse_select(sql), list(args))


class TestAppBugCase:
    """Q2 issued without its check: the application is the culprit."""

    @pytest.fixture
    def report(self, calendar_schema, calendar_policy):
        stmt = bound("SELECT * FROM Events WHERE EId = ?", [2])
        return diagnose(stmt, {"MyUId": 1}, calendar_policy, calendar_schema)

    def test_counterexample_found(self, report):
        assert report.counterexample is not None

    def test_all_three_patch_kinds(self, report):
        assert report.policy_patches
        assert report.narrowing_patches
        assert report.access_check_patches

    def test_policy_patch_flagged_broad(self, report):
        assert report.policy_patches[0].looks_broad

    def test_verdict_blames_application(self, report):
        assert "application" in report.verdict

    def test_describe_renders_everything(self, report):
        text = report.describe()
        assert "diagnosis" in text
        assert "counterexample" in text
        assert "access-check patch" in text


class TestPolicyGapCase:
    """A policy missing the self-profile view: the policy is the culprit."""

    @pytest.fixture
    def report(self, calendar_schema, calendar_policy):
        gapped = Policy(
            [v for v in calendar_policy.views if v.name != "V3"],
            name="gapped",
        )
        stmt = bound("SELECT * FROM Users WHERE UId = ?", [1])
        return diagnose(stmt, {"MyUId": 1}, gapped, calendar_schema)

    def test_policy_patch_found_and_narrow(self, report):
        assert report.policy_patches
        assert not report.policy_patches[0].looks_broad
        # The generated view is parameterized by the session user.
        view = report.policy_patches[0].add_views[0]
        assert view.param_names == ["MyUId"]

    def test_verdict_mentions_policy(self, report):
        assert "policy" in report.verdict


class TestOutOfFragment:
    def test_untranslatable_query_reported(self, calendar_schema, calendar_policy):
        stmt = bound("SELECT COUNT(*) FROM Events")
        report = diagnose(stmt, {"MyUId": 1}, calendar_policy, calendar_schema)
        assert "fragment" in report.verdict
        assert not report.narrowing_patches
