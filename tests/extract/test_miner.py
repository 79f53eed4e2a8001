"""Black-box miner tests: generalization, guards, and the three controls."""

import random

from repro.extract.miner import MinerConfig, TraceMiner
from repro.policy import View, compare_policies
from repro.policy.compare import view_covered_by
from repro.workloads import calendar_app
from repro.workloads.runner import Request

OPAQUE = frozenset(
    {
        ("Attendance", "EId"),
        ("Attendance", "UId"),
        ("Events", "EId"),
        ("Users", "UId"),
    }
)


def mine_calendar(n_requests=120, config=None, seed=5):
    app = calendar_app.make_app()
    db = calendar_app.make_database(12, seed)
    rng = random.Random(seed)
    requests = app.request_stream(db, rng, n_requests)
    miner = TraceMiner(app, db, config or MinerConfig(opaque_columns=OPAQUE))
    policy = miner.mine(requests)
    return app, policy, miner


class TestFullMiner:
    def test_exact_recovery_with_enough_traces(self):
        app, policy, _ = mine_calendar()
        comparison = compare_policies(policy, app.ground_truth_policy())
        assert comparison.exact, comparison.describe()

    def test_guard_detected_for_show_event(self):
        app, policy, miner = mine_calendar()
        assert miner.report.guarded_templates >= 1
        # The detail view must be guarded (joined with Attendance), not broad.
        db = calendar_app.make_database(12, 5)
        broad = View("B", "SELECT Title FROM Events", db.schema)
        assert not view_covered_by(broad, policy)

    def test_user_id_generalizes_across_sessions(self):
        app, policy, _ = mine_calendar()
        params = {name for view in policy for name in view.param_names}
        assert params == {"MyUId"}


class TestLearningCurve:
    def test_few_traces_under_generalize(self):
        """E5 shape: with very few traces, recall is imperfect."""
        app, few_policy, _ = mine_calendar(n_requests=2)
        app2, many_policy, _ = mine_calendar(n_requests=150)
        truth = app.ground_truth_policy()
        few = compare_policies(few_policy, truth)
        many = compare_policies(many_policy, truth)
        assert many.recall >= few.recall
        assert many.recall == 1.0


class TestHintsControl:
    def test_hints_generalize_singleton_constants(self):
        """A single observation of show_event pins the event id unless the
        opacity hint declares event ids opaque."""
        app = calendar_app.make_app()
        db = calendar_app.make_database(12, 5)
        uid, eid = db.query("SELECT UId, EId FROM Attendance").first()
        request = Request("show_event", {"event_id": eid}, {"user_id": uid})

        with_hints = TraceMiner(
            app, db, MinerConfig(opaque_columns=OPAQUE, active_discovery=False)
        ).mine([request])
        without_hints = TraceMiner(
            app, db, MinerConfig(opaque_columns=frozenset(), active_discovery=False)
        ).mine([request])

        generic = View(
            "G",
            "SELECT e.EId, e.Title, e.Time, e.Loc FROM Events e"
            " JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
            db.schema,
        )
        assert view_covered_by(generic, with_hints)
        assert not view_covered_by(generic, without_hints)


class TestActiveControl:
    def test_active_discovery_generalizes_data_derived_constant(self):
        """my_events' per-row detail queries carry concrete event ids; the
        mutate-and-re-run probe proves they are data-derived.

        The user attends exactly one event, so the constant is observed
        only once — statistics alone cannot generalize it.
        """
        app = calendar_app.make_app()
        db = calendar_app.make_database(12, 5)
        db.sql("INSERT INTO Users VALUES (100, 'solo')")
        db.sql("INSERT INTO Attendance VALUES (100, 3)")
        request = Request("my_events", {}, {"user_id": 100})

        active = TraceMiner(
            app, db, MinerConfig(opaque_columns=frozenset(), active_discovery=True)
        ).mine([request])
        passive = TraceMiner(
            app, db, MinerConfig(opaque_columns=frozenset(), active_discovery=False)
        ).mine([request])

        generic = View(
            "G",
            "SELECT e.EId, e.Title, e.Time, e.Loc FROM Events e"
            " JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
            db.schema,
        )
        assert view_covered_by(generic, active)
        assert not view_covered_by(generic, passive)

    def test_database_unchanged_after_probes(self):
        app = calendar_app.make_app()
        db = calendar_app.make_database(12, 5)
        before = db.relation_contents()
        uid = db.query("SELECT UId FROM Attendance").first()[0]
        TraceMiner(app, db, MinerConfig(active_discovery=True)).mine(
            [Request("my_events", {}, {"user_id": uid})]
        )
        assert db.relation_contents() == before


class TestBudgetControl:
    def test_budget_caps_policy_size(self):
        app = calendar_app.make_app()
        db = calendar_app.make_database(12, 5)
        rng = random.Random(5)
        requests = app.request_stream(db, rng, 60)
        config = MinerConfig(
            opaque_columns=frozenset(),
            active_discovery=False,
            size_budget=5,
        )
        miner = TraceMiner(app, db, config)
        policy = miner.mine(requests)
        assert len(policy) <= 5

    def test_no_budget_keeps_all_templates(self):
        app = calendar_app.make_app()
        db = calendar_app.make_database(12, 5)
        rng = random.Random(5)
        requests = app.request_stream(db, rng, 60)
        config = MinerConfig(
            opaque_columns=frozenset(), active_discovery=False, size_budget=None
        )
        policy = TraceMiner(app, db, config).mine(requests)
        assert len(policy) >= 4
