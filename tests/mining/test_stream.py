"""AuditStream: durable sink, bounded subscriptions, explicit loss."""

from __future__ import annotations

import json

import pytest

from repro.mining import AuditStream
from repro.serve import DecisionAuditRecord, EnforcementGateway, GatewayConfig


def make_record(sql="SELECT 1 FROM Attendance WHERE UId = 1", allowed=True, version=1):
    return DecisionAuditRecord(
        sql=sql,
        bindings={"MyUId": 1},
        facts=(),
        trace_len=0,
        allowed=allowed,
        policy_version=version,
        from_cache=False,
        views=("V1",),
    )


class TestSubscriptions:
    def test_entries_get_monotonic_ids_across_subscribers(self):
        stream = AuditStream()
        first = stream.subscribe(cap=16)
        second = stream.subscribe(cap=16)
        for index in range(5):
            stream(make_record(sql=f"SELECT {index}"))
        ids_first = [entry.id for entry in first.drain()]
        ids_second = [entry.id for entry in second.drain()]
        assert ids_first == ids_second == [1, 2, 3, 4, 5]

    def test_drain_empties_the_queue(self):
        stream = AuditStream()
        subscription = stream.subscribe(cap=16)
        stream(make_record())
        assert len(subscription) == 1
        assert len(subscription.drain()) == 1
        assert len(subscription) == 0
        assert subscription.drain() == []

    def test_overflow_evicts_oldest_and_counts_the_loss(self):
        stream = AuditStream()
        subscription = stream.subscribe(cap=3)
        for index in range(10):
            stream(make_record(sql=f"SELECT {index}"))
        assert subscription.dropped == 7
        entries = subscription.drain()
        assert [entry.id for entry in entries] == [8, 9, 10]  # newest survive
        assert stream.stats()["dropped"] == 7

    def test_closed_subscription_stops_receiving(self):
        stream = AuditStream()
        subscription = stream.subscribe(cap=4)
        stream(make_record())
        subscription.close()
        stream(make_record())
        assert len(subscription) == 1
        assert stream.stats()["subscribers"] == 0

    def test_cap_must_be_positive(self):
        stream = AuditStream()
        with pytest.raises(ValueError):
            stream.subscribe(cap=0)


class TestSink:
    def test_jsonl_sink_holds_one_line_per_decision(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        stream = AuditStream(sink_path=str(sink))
        stream(make_record(sql="SELECT A", allowed=True))
        stream(make_record(sql="SELECT B", allowed=False, version=2))
        stream.close()
        lines = [
            json.loads(line) for line in sink.read_text().splitlines() if line
        ]
        assert [entry["sql"] for entry in lines] == ["SELECT A", "SELECT B"]
        assert lines[0]["allowed"] and not lines[1]["allowed"]
        assert lines[1]["policy_version"] == 2
        assert lines[0]["views"] == ["V1"]
        assert stream.stats()["sink_records"] == 2


class TestGatewayIntegration:
    def test_snapshot_surfaces_stream_counters(self, calendar_pair):
        app, db = calendar_pair
        gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
        try:
            stream = AuditStream()
            gateway.decision_audit = stream
            subscription = stream.subscribe(cap=2)
            connection = gateway.connect(1)
            for eid in range(1, 7):
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            snapshot = gateway.snapshot()
            assert snapshot.counters["audit_records"] == 6
            # The overflowed subscription's loss is explicit in the
            # aggregate counter — never silent.
            assert snapshot.counters["audit_dropped"] == 4
            assert subscription.dropped == 4
        finally:
            gateway.close()
