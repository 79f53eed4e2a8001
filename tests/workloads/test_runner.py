"""AppRunner harness tests."""

import random

import pytest

from repro.serve import EnforcementGateway
from repro.workloads import calendar_app
from repro.workloads.runner import AppRunner, Request


@pytest.fixture
def setup():
    app = calendar_app.make_app()
    db = calendar_app.make_database(10, 3)
    return app, db


class TestConnectionModes:
    def test_unknown_mode_rejected(self, setup):
        app, db = setup
        with pytest.raises(ValueError):
            AppRunner(app, db, mode="nope")

    def test_proxy_mode_requires_policy(self, setup):
        """There is no proxy mode: a policy alone opens no enforcing
        connection, a gateway does (and gateway mode requires one)."""
        app, db = setup
        with pytest.raises(ValueError, match="unknown mode"):
            AppRunner(app, db, mode="proxy")
        with pytest.raises(ValueError, match="needs a gateway"):
            AppRunner(app, db, mode="gateway")
        for gone in ("policy", "history_enabled", "cache"):
            with pytest.raises(TypeError, match=gone):
                AppRunner(app, db, **{gone: None})

    def test_fresh_session_per_request(self, setup):
        """Every request gets its own session."""
        app, db = setup
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        first = runner.connection_for({"user_id": 1})
        second = runner.connection_for({"user_id": 1})
        assert first is not second
        assert first.session.bindings == second.session.bindings == {"MyUId": 1}
        with pytest.raises(TypeError, match="fresh_session_per_request"):
            AppRunner(app, db, fresh_session_per_request=True)

    def test_shared_cache_across_sessions(self, setup):
        app, db = setup
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        requests = app.request_stream(db, random.Random(2), 30)
        runner.run_all(requests)
        assert gateway.shared_cache.hits > 0


class TestOutcomes:
    def test_block_reason_captured(self, setup):
        app, db = setup
        gapped = type(app.ground_truth_policy())(
            [v for v in app.ground_truth_policy().views if v.name != "V3"]
        )
        runner = AppRunner(app, db, mode="gateway", gateway=EnforcementGateway(db, gapped))
        outcome = runner.run(Request("my_profile", {}, {"user_id": 1}))
        assert outcome.blocked
        assert "BLOCK" in outcome.block_reason

    def test_abort_is_not_block(self, setup):
        app, db = setup
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        attended = {
            r[1] for r in db.query(
                "SELECT UId, EId FROM Attendance WHERE UId = 1"
            ).rows
        }
        eid = next(
            e for (e,) in db.query("SELECT EId FROM Events").rows
            if e not in attended
        )
        outcome = runner.run(
            Request("show_event", {"event_id": eid}, {"user_id": 1})
        )
        assert not outcome.blocked
        assert outcome.outcome is not None
        assert outcome.outcome.aborted

    def test_request_hashable(self):
        a = Request("h", {"x": 1}, {"user_id": 2})
        b = Request("h", {"x": 1}, {"user_id": 2})
        assert hash(a) == hash(b)


class TestSessionBindings:
    def test_bindings_mapped_through_session_params(self, setup):
        app, db = setup
        assert app.session_bindings({"user_id": 9}) == {"MyUId": 9}

    def test_missing_attr_omitted(self, setup):
        app, db = setup
        assert app.session_bindings({"other": 1}) == {}
