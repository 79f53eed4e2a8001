"""Handler-DSL concrete-interpreter tests."""

import pytest

from repro.extract.handlers import (
    Abort,
    And,
    Assign,
    Compare,
    ConstArg,
    FieldRef,
    ForEach,
    Handler,
    If,
    IsEmpty,
    Not,
    ParamRef,
    Query,
    Return,
    run_handler,
)
from repro.util.errors import DbacError
from repro.workloads import calendar_app


@pytest.fixture
def db(calendar_db):
    return calendar_db


def show_event():
    return calendar_app.make_handlers()["show_event"]


class TestListing1:
    def test_attended_event_returns_details(self, db):
        uid, eid = db.query("SELECT UId, EId FROM Attendance").first()
        outcome = run_handler(show_event(), db, {"event_id": eid}, {"user_id": uid})
        assert not outcome.aborted
        assert outcome.returned is not None
        assert len(outcome.returned) == 1
        assert [sql for sql, _ in outcome.queries_issued] == [
            "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
            "SELECT * FROM Events WHERE EId = ?",
        ]

    def test_unattended_event_aborts_before_fetch(self, db):
        attended = {
            row[1]
            for row in db.query("SELECT UId, EId FROM Attendance WHERE UId = 1").rows
        }
        eid = next(
            e for (e,) in db.query("SELECT EId FROM Events").rows if e not in attended
        )
        outcome = run_handler(show_event(), db, {"event_id": eid}, {"user_id": 1})
        assert outcome.aborted
        assert outcome.abort_message == "event not found"
        assert len(outcome.queries_issued) == 1  # Q2 never issued

    def test_missing_param_rejected(self, db):
        with pytest.raises(DbacError):
            run_handler(show_event(), db, {}, {"user_id": 1})

    def test_missing_session_attribute_rejected(self, db):
        with pytest.raises(DbacError):
            run_handler(show_event(), db, {"event_id": 1}, {})


class TestForEach:
    def test_foreach_iterates_rows(self, db):
        handler = calendar_app.make_handlers()["my_events"]
        uid = db.query("SELECT UId FROM Attendance").first()[0]
        count = len(db.query("SELECT EId FROM Attendance WHERE UId = ?", [uid]))
        outcome = run_handler(handler, db, {}, {"user_id": uid})
        # One list query plus one detail query per attended event.
        assert len(outcome.queries_issued) == 1 + count

    def test_foreach_over_empty_result(self, db):
        handler = Handler(
            name="h",
            params=(),
            body=(
                Assign("rows", Query("SELECT EId FROM Attendance WHERE UId = 99999")),
                ForEach(
                    "row",
                    "rows",
                    body=(
                        Assign(
                            "x",
                            Query(
                                "SELECT * FROM Events WHERE EId = ?",
                                (FieldRef("row", "EId"),),
                            ),
                        ),
                    ),
                ),
                Return(None),
            ),
        )
        outcome = run_handler(handler, db, {}, {})
        assert len(outcome.queries_issued) == 1


class TestConditions:
    def test_compare_on_field(self, db):
        handler = Handler(
            name="h",
            params=("eid",),
            body=(
                Assign(
                    "event",
                    Query("SELECT Title FROM Events WHERE EId = ?", (ParamRef("eid"),)),
                ),
                If(IsEmpty("event"), then=(Abort("gone"),)),
                If(
                    Compare("=", FieldRef("event", "Title"), ConstArg("standup")),
                    then=(Return(None),),
                    orelse=(Abort("not standup"),),
                ),
            ),
        )
        standup = db.query(
            "SELECT EId FROM Events WHERE Title = 'standup'"
        ).first()
        other = db.query(
            "SELECT EId FROM Events WHERE Title <> 'standup'"
        ).first()
        if standup:
            assert not run_handler(handler, db, {"eid": standup[0]}, {}).aborted
        if other:
            assert run_handler(handler, db, {"eid": other[0]}, {}).aborted

    def test_and_not_conditions(self, db):
        handler = Handler(
            name="h",
            params=("a", "b"),
            body=(
                If(
                    And(
                        (
                            Compare("<", ParamRef("a"), ParamRef("b")),
                            Not(Compare("=", ParamRef("a"), ConstArg(0))),
                        )
                    ),
                    then=(Return(None),),
                    orelse=(Abort("no"),),
                ),
            ),
        )
        assert not run_handler(handler, db, {"a": 1, "b": 2}, {}).aborted
        assert run_handler(handler, db, {"a": 0, "b": 2}, {}).aborted
        assert run_handler(handler, db, {"a": 3, "b": 2}, {}).aborted

    def test_fieldref_outside_foreach_uses_first_row(self, db):
        handler = Handler(
            name="h",
            params=(),
            body=(
                Assign("users", Query("SELECT UId, Name FROM Users WHERE UId = 1")),
                If(IsEmpty("users"), then=(Abort("none"),)),
                Return(
                    Query(
                        "SELECT EId FROM Attendance WHERE UId = ?",
                        (FieldRef("users", "UId"),),
                    )
                ),
            ),
        )
        outcome = run_handler(handler, db, {}, {})
        assert outcome.returned is not None

    def test_fieldref_on_empty_result_raises(self, db):
        handler = Handler(
            name="h",
            params=(),
            body=(
                Assign("users", Query("SELECT UId FROM Users WHERE UId = 9999")),
                Return(
                    Query(
                        "SELECT EId FROM Attendance WHERE UId = ?",
                        (FieldRef("users", "UId"),),
                    )
                ),
            ),
        )
        with pytest.raises(DbacError):
            run_handler(handler, db, {}, {})
