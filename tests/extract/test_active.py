"""Active constraint-discovery unit tests (the §3.2.2 mutate-and-re-run probes)."""

import pytest

from repro.extract.active import ActiveConstraintDiscovery, _mutated_value
from repro.extract.miner import RecordingConnection
from repro.extract.handlers import run_handler
from repro.workloads import calendar_app
from repro.workloads.runner import Request


@pytest.fixture
def setup():
    app = calendar_app.make_app()
    db = calendar_app.make_database(12, 5)
    return app, db


def record(app, db, request):
    recorder = RecordingConnection(db)
    run_handler(app.handlers[request.handler], recorder, request.params, request.session)
    from repro.extract.miner import RequestTrace

    return RequestTrace(request=request, events=recorder.events)


class TestMutatedValue:
    def test_types(self):
        assert _mutated_value(5) == 5 + 1_000_003
        assert _mutated_value("x") == "x_mutated"
        assert _mutated_value(True) is False
        assert _mutated_value(2.0) == 2.0 + 1_000_003.0


class TestConstantProbes:
    def test_data_derived_constant_detected(self, setup):
        app, db = setup
        db.sql("INSERT INTO Users VALUES (200, 'probe')")
        db.sql("INSERT INTO Attendance VALUES (200, 4)")
        trace = record(app, db, Request("my_events", {}, {"user_id": 200}))
        discovery = ActiveConstraintDiscovery(app, db)
        # The detail query's event-id constant (slot for EId) flows from
        # the prior attendance listing.
        detail = next(
            e for e in trace.events if "Events" in e.statement.sources[0].name
        )
        slot = detail.values.index(4)
        assert discovery.constant_is_data_derived(trace, detail, slot)

    def test_code_constant_not_data_derived(self, setup):
        app, db = setup
        uid, eid = db.query("SELECT UId, EId FROM Attendance").first()
        trace = record(
            app, db, Request("show_event", {"event_id": eid}, {"user_id": uid})
        )
        discovery = ActiveConstraintDiscovery(app, db)
        check = trace.events[0]
        # The user-id slot comes from the session, not from prior data.
        slot = check.values.index(uid)
        assert not discovery.constant_is_data_derived(trace, check, slot)

    def test_database_restored_after_probe(self, setup):
        app, db = setup
        db.sql("INSERT INTO Users VALUES (200, 'probe')")
        db.sql("INSERT INTO Attendance VALUES (200, 4)")
        before = db.relation_contents()
        trace = record(app, db, Request("my_events", {}, {"user_id": 200}))
        discovery = ActiveConstraintDiscovery(app, db)
        detail = next(
            e for e in trace.events if "Events" in e.statement.sources[0].name
        )
        discovery.constant_is_data_derived(trace, detail, detail.values.index(4))
        assert db.relation_contents() == before


class TestGuardProbes:
    def test_real_guard_detected(self, setup):
        app, db = setup
        uid, eid = db.query("SELECT UId, EId FROM Attendance").first()
        trace = record(
            app, db, Request("show_event", {"event_id": eid}, {"user_id": uid})
        )
        discovery = ActiveConstraintDiscovery(app, db)
        detail = trace.events[1]
        guard_key = trace.events[0].sql_skeleton.statement
        assert discovery.guard_is_load_bearing(trace, detail, guard_key)

    def test_join_guard_kept_conservatively(self, setup):
        app, db = setup
        uid, eid = db.query("SELECT UId, EId FROM Attendance").first()
        trace = record(
            app, db, Request("event_attendees", {"event_id": eid}, {"user_id": uid})
        )
        discovery = ActiveConstraintDiscovery(app, db)
        # Fabricate a join-shaped guard event: the probe refuses to delete
        # join results and keeps the guard (conservative direction).
        final = trace.events[-1]
        if final.statement.joins:
            assert discovery.guard_is_load_bearing(
                trace, final, trace.events[0].sql_skeleton.statement
            )
