"""Trace and fact-extraction tests."""

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.enforce.trace import (
    _NULL_PREFIX,
    Trace,
    fact_from_wire,
    fact_to_wire,
    is_labeled_null,
)
from repro.engine.executor import Result
from repro.relalg.cq import Atom, Const, Var
from repro.relalg.translate import translate_select
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app


def tr1(sql, schema):
    return translate_select(parse_select(sql), schema).disjuncts[0]


class TestFactExtraction:
    def test_ground_fact_from_constant_query(self, calendar_schema):
        # Q1 of Example 2.1: all arguments pinned by comparisons.
        trace = Trace()
        query = tr1(
            "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2", calendar_schema
        )
        trace.record("q1", query, Result(columns=["c"], rows=[(1,)]))
        assert trace.facts == (
            type(trace.facts[0])("Attendance", (Const(1), Const(2))),
        )

    def test_head_binding_creates_fact_per_row(self, calendar_schema):
        trace = Trace()
        query = tr1("SELECT EId FROM Attendance WHERE UId = 1", calendar_schema)
        trace.record("q", query, Result(columns=["EId"], rows=[(5,), (6,)]))
        values = sorted(fact.args[1].value for fact in trace.facts)
        assert values == [5, 6]
        assert all(fact.args[0] == Const(1) for fact in trace.facts)

    def test_undetermined_column_becomes_labeled_null(self, calendar_schema):
        trace = Trace()
        query = tr1("SELECT Title FROM Events WHERE EId = 3", calendar_schema)
        trace.record("q", query, Result(columns=["Title"], rows=[("standup",)]))
        fact = trace.facts[0]
        assert fact.rel == "Events"
        assert fact.args[0] == Const(3)
        assert fact.args[1] == Const("standup")
        assert is_labeled_null(fact.args[2])  # Time
        assert is_labeled_null(fact.args[3])  # Loc

    def test_joined_variables_share_null(self, calendar_schema):
        trace = Trace()
        query = tr1(
            "SELECT a.UId FROM Events e JOIN Attendance a ON e.EId = a.EId"
            " WHERE a.UId = 1",
            calendar_schema,
        )
        trace.record("q", query, Result(columns=["UId"], rows=[(1,)]))
        events_fact = next(f for f in trace.facts if f.rel == "Events")
        attendance_fact = next(f for f in trace.facts if f.rel == "Attendance")
        # The join column carries the same labeled null in both facts.
        assert events_fact.args[0] == attendance_fact.args[1]

    def test_empty_result_produces_no_facts(self, calendar_schema):
        trace = Trace()
        query = tr1("SELECT EId FROM Attendance WHERE UId = 1", calendar_schema)
        trace.record("q", query, Result(columns=["EId"], rows=[]))
        assert trace.facts == ()

    def test_untranslatable_query_recorded_without_facts(self):
        trace = Trace()
        certified = trace.record("q", None, Result(columns=["c"], rows=[(1,)]))
        assert certified == () and trace.facts == ()
        assert len(trace) == 1

    def test_fact_cap_respected(self, calendar_schema):
        trace = Trace(max_facts=3)
        query = tr1("SELECT EId FROM Attendance WHERE UId = 1", calendar_schema)
        rows = [(i,) for i in range(10)]
        trace.record("q", query, Result(columns=["EId"], rows=rows))
        assert len(trace.facts) == 3

    def test_facts_of_filters_by_relation(self, calendar_schema):
        trace = Trace()
        query = tr1("SELECT EId FROM Attendance WHERE UId = 1", calendar_schema)
        trace.record("q", query, Result(columns=["EId"], rows=[(5,)]))
        assert trace.facts_of("Attendance")
        assert not trace.facts_of("Events")

    def test_duplicate_ground_facts_deduped(self, calendar_schema):
        trace = Trace()
        query = tr1(
            "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2", calendar_schema
        )
        trace.record("q", query, Result(columns=["c"], rows=[(1,)]))
        trace.record("q", query, Result(columns=["c"], rows=[(1,)]))
        assert len(trace.facts) == 1


SCHEMA = calendar_app.make_schema()


def certify(trace, uid, eids):
    """Record ``uid`` attending ``eids``: one ground fact per event id."""
    query = tr1(f"SELECT EId FROM Attendance WHERE UId = {uid}", SCHEMA)
    trace.record("q", query, Result(columns=["EId"], rows=[(e,) for e in eids]))


def certify_event(trace, eid):
    """Record an Events lookup: a fact with fresh labeled nulls every time."""
    query = tr1(f"SELECT Title FROM Events WHERE EId = {eid}", SCHEMA)
    trace.record("q", query, Result(columns=["Title"], rows=[("standup",)]))


class TestBoundedTrace:
    def test_long_session_holds_at_most_max_facts_of_anything(self):
        """Per-session state must not grow with session length: 5 000
        re-certifying records leave no container longer than the cap."""
        trace = Trace(max_facts=8)
        for step in range(5000):
            certify(trace, uid=1, eids=[step % 8, (step + 3) % 8])
        assert len(trace) == 5000
        assert len(trace.facts) == 8
        sized = {
            name: len(value)
            for name, value in vars(trace).items()
            if hasattr(value, "__len__")
        }
        assert sized and max(sized.values()) <= trace.max_facts, sized


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 3), st.lists(st.integers(1, 6), max_size=4)),
        st.integers(1, 3),
    ),
    max_size=30,
)
_RELATIONS = ("Attendance", "Events", "Users")


class TestSnapshotEqualsHistory:
    @given(steps=_STEPS, max_facts=st.integers(1, 6))
    def test_from_facts_of_a_snapshot_reads_like_the_live_trace(self, steps, max_facts):
        """Adds, re-certifying refreshes and adds past the cap, in any
        order: a trace rebuilt from ``facts`` is the same history to a
        checker (same facts, same recency order, same facts per relation)."""
        trace = Trace(max_facts=max_facts)
        for step in steps:
            if isinstance(step, tuple):
                certify(trace, *step)
            else:
                certify_event(trace, step)
            snapshot = Trace.from_facts(trace.facts)
            assert snapshot.facts == trace.facts
            for relation in _RELATIONS:
                assert list(snapshot.facts_of(relation)) == list(
                    trace.facts_of(relation)
                )


class ListAndSetTrace:
    """The trace as it was before it was indexed: a list in recency order
    and a set for membership — the model the indexed one must read like."""

    def __init__(self, max_facts):
        self.facts, self.known, self.max_facts = [], set(), max_facts

    def certify(self, facts):
        for fact in facts:
            if fact in self.known:
                self.facts.remove(fact)  # the O(n) refresh the index replaced
                self.facts.append(fact)
            elif len(self.facts) < self.max_facts:
                self.known.add(fact)
                self.facts.append(fact)


class TestIndexedTraceReadsLikeTheListModel:
    @given(steps=_STEPS, max_facts=st.integers(1, 6))
    def test_record_and_re_record_across_the_cap(self, steps, max_facts):
        """Same tuple, same order, same per-relation view and the same
        answer to "is this certified" after every record — new facts,
        refreshed ones, and new ones dropped at the cap."""
        trace, model = Trace(max_facts=max_facts), ListAndSetTrace(max_facts)
        for step in steps:
            if isinstance(step, tuple):
                uid, eids = step
                query = tr1(f"SELECT EId FROM Attendance WHERE UId = {uid}", SCHEMA)
                rows = [(eid,) for eid in eids]
            else:
                query = tr1(f"SELECT Title FROM Events WHERE EId = {step}", SCHEMA)
                rows = [("standup",)]
            certified = trace.record("q", query, Result(columns=["c"], rows=rows))
            model.certify(certified)
            assert trace.facts == tuple(model.facts)
            assert trace.facts is trace.facts  # a snapshot, until the next record
            for relation in _RELATIONS:
                assert list(trace.facts_of(relation)) == [
                    fact for fact in model.facts if fact.rel == relation
                ]
            for fact in model.facts:
                assert trace.certified(fact) is fact
            dropped = [fact for fact in certified if fact not in model.known]
            assert all(trace.certified(fact) is None for fact in dropped)
            rebuilt = Trace.from_facts(trace.facts)
            assert rebuilt.facts == trace.facts
            assert [list(rebuilt.facts_of(r)) for r in _RELATIONS] == [
                list(trace.facts_of(r)) for r in _RELATIONS
            ]

    def test_a_re_certified_fact_is_replaced_by_its_new_spelling(self):
        """``Const(1) == Const(True)``: the refreshed fact is the atom just
        certified, as ``remove`` + ``append`` left it."""
        trace = Trace()
        query = tr1("SELECT EId FROM Attendance WHERE UId = 1", SCHEMA)
        trace.record("q", query, Result(columns=["EId"], rows=[(1,), (2,)]))
        trace.record("q", query, Result(columns=["EId"], rows=[(True,)]))
        assert [fact.args[1].value for fact in trace.facts] == [2, True]
        assert type(trace.facts[1].args[1].value) is bool
        assert list(trace.facts_of("Attendance")) == list(trace.facts)


class TestFactSerialization:
    """``fact_to_wire`` / ``fact_from_wire``: the audit log's fact format."""

    def test_const_fact_roundtrip(self):
        fact = Atom("Attendance", (Const(1), Const("héllo — ünïcode")))
        assert fact_to_wire(fact) == [
            "Attendance", [["const", 1], ["const", "héllo — ünïcode"]]
        ]
        assert fact_from_wire(fact_to_wire(fact)) == fact

    def test_labeled_null_roundtrip_preserves_identity(self):
        null_a = Var(f"{_NULL_PREFIX}7")
        null_b = Var(f"{_NULL_PREFIX}8")
        fact = Atom("Events", (null_a, Const(2), null_a, null_b))
        assert fact_to_wire(fact)[1][0] == ["null", "7"]
        restored = fact_from_wire(fact_to_wire(fact))
        assert is_labeled_null(restored.args[0])
        assert restored.args[0] == restored.args[2]  # same null, same var
        assert restored.args[0] != restored.args[3]
        assert restored.args[1] == Const(2)

    def test_bool_and_none_consts_survive(self):
        fact = Atom("T", (Const(True), Const(None), Const(0)))
        restored = fact_from_wire(fact_to_wire(fact))
        assert restored.args[0].value is True
        assert restored.args[1].value is None
        assert restored.args[2].value == 0

    def test_unknown_argument_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fact argument kind"):
            fact_from_wire(["T", [["var", "x"]]])
