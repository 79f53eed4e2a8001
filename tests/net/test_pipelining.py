"""Frame pipelining: many requests in flight on one connection.

The contract under test: the server dispatches a connection's frames
strictly in arrival order (trace history accumulates exactly as in the
one-at-a-time mode) while reading ahead, replies come back in request
order, and the edge cases hold — interleaved replies correlate by id,
frames split across TCP reads reassemble, statements queued behind a
drain get ``ERROR/shutting_down``, and per-request failures don't
poison the rest of the pipeline.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.enforce.decision import PolicyViolation
from repro.engine.executor import Result
from repro.net import (
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
    protocol,
)
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app
from tests.conftest import delay_statements


def make_gateway(**config) -> EnforcementGateway:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy, GatewayConfig(**config))


@pytest.fixture
def server():
    with BackgroundServer(make_gateway(), ServerConfig(port=0)) as background:
        yield background


def connect(background: BackgroundServer, **kwargs) -> NetClientConnection:
    kwargs.setdefault("user", 1)
    return NetClientConnection(background.host, background.port, **kwargs)


class TestPipelineOrdering:
    def test_outcomes_come_back_in_request_order(self, server):
        connection = connect(server)
        uids = [1, 1, 1, 1]
        sequential = [
            connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            for uid in uids
        ]
        outcomes = connection.pipeline(
            [("SELECT EId FROM Attendance WHERE UId = ?", [uid]) for uid in uids]
        )
        assert len(outcomes) == len(uids)
        for got, want in zip(outcomes, sequential):
            assert isinstance(got, Result)
            assert got.columns == want.columns
            assert sorted(got.rows) == sorted(want.rows)
        connection.close()

    def test_trace_history_accumulates_in_pipeline_order(self, server):
        """Example 2.1 inside one pipeline: the attendance probe is frame 1
        and the Events query frame 2 — history must admit frame 2 because
        the server dispatches strictly in arrival order."""
        connection = connect(server)
        outcomes = connection.pipeline(
            [
                ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 2]),
                ("SELECT * FROM Events WHERE EId = ?", [2]),
            ]
        )
        assert isinstance(outcomes[0], Result) and len(outcomes[0]) == 1
        assert isinstance(outcomes[1], Result) and not outcomes[1].is_empty()
        connection.close()

    def test_blocked_request_does_not_poison_the_pipeline(self, server):
        connection = connect(server)
        outcomes = connection.pipeline(
            [
                # An empty probe certifies nothing that could admit request 2.
                ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 999]),
                ("SELECT * FROM Events WHERE EId = ?", [2]),  # no history: blocked
                ("SELECT EId FROM Attendance WHERE UId = ?", [1]),
            ]
        )
        assert isinstance(outcomes[0], Result)
        assert isinstance(outcomes[1], PolicyViolation)
        assert isinstance(outcomes[2], Result)
        connection.close()

    def test_mixed_prepared_and_classic_requests(self, server):
        connection = connect(server)
        prepared = connection.prepare("SELECT EId FROM Attendance WHERE UId = ?")
        outcomes = connection.pipeline(
            [
                (prepared, [1]),
                ("SELECT EId FROM Attendance WHERE UId = ?", [1]),
                (prepared, [1]),
            ]
        )
        assert all(isinstance(outcome, Result) for outcome in outcomes)
        rows = [sorted(outcome.rows) for outcome in outcomes]
        assert rows[0] == rows[1] == rows[2]
        connection.close()

    def test_small_window_still_completes_everything(self, server):
        connection = connect(server)
        outcomes = connection.pipeline(
            [("SELECT EId FROM Attendance WHERE UId = ?", [1])] * 9, window=2
        )
        assert len(outcomes) == 9
        assert all(isinstance(outcome, Result) for outcome in outcomes)
        connection.close()

    def test_bad_window_is_rejected(self, server):
        connection = connect(server)
        with pytest.raises(ValueError):
            connection.pipeline(["SELECT 1 FROM Events"], window=0)
        connection.close()


class TestPartialFrames:
    def test_frame_split_across_many_tcp_writes_reassembles(self, server):
        """The reader must treat the byte stream as a stream: a frame
        dribbled in 1-byte writes parses identically to one sendall."""
        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        sock.settimeout(5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = protocol.encode_frame(
            {
                "type": protocol.HELLO,
                "version": protocol.PROTOCOL_VERSION,
                "bindings": {"MyUId": 1},
            }
        )
        # Split the HELLO mid-length-prefix and mid-payload.
        for chunk in (hello[:2], hello[2:7], hello[7:]):
            sock.sendall(chunk)
            time.sleep(0.02)
        assert protocol.read_frame(sock)["type"] == protocol.WELCOME
        query = protocol.encode_frame(
            {
                "type": protocol.QUERY,
                "id": 1,
                "sql": "SELECT EId FROM Attendance WHERE UId = ?",
                "args": [1],
            }
        )
        for byte in query:  # worst case: one byte per segment
            sock.sendall(bytes([byte]))
        reply = protocol.read_frame(sock)
        assert reply["type"] == protocol.RESULT and reply["id"] == 1
        sock.close()

    def test_two_frames_in_one_write_both_answered(self, server):
        """The inverse split: coalesced client writes must yield two
        replies, in order."""
        connection = connect(server)
        first = protocol.encode_frame(
            {
                "type": protocol.QUERY,
                "id": 11,
                "sql": "SELECT EId FROM Attendance WHERE UId = ?",
                "args": [1],
            }
        )
        second = protocol.encode_frame({"type": protocol.PING, "id": 12})
        connection._sock.sendall(first + second)
        assert protocol.read_frame(connection._sock)["id"] == 11
        assert protocol.read_frame(connection._sock)["id"] == 12
        connection.close()


class TestDrainDuringPipeline:
    def test_queued_statements_get_shutting_down_then_bye(self):
        """Statements already read ahead when the drain starts must be
        answered ERR_SHUTTING_DOWN (not silently dropped), then BYE."""
        background = BackgroundServer(
            delay_statements(make_gateway(), 0.3), ServerConfig(port=0)
        ).start()
        try:
            connection = connect(background)
            frames = bytearray()
            for request_id in (1, 2, 3):
                protocol.encode_frame_into(
                    {
                        "type": protocol.QUERY,
                        "id": request_id,
                        "sql": "SELECT EId FROM Attendance WHERE UId = ?",
                        "args": [1],
                    },
                    frames,
                )
            connection._sock.sendall(bytes(frames))
            time.sleep(0.1)  # frame 1 is executing; 2 and 3 are queued
            stopper = threading.Thread(target=background.stop)
            stopper.start()
            first = protocol.read_frame(connection._sock)
            assert first["type"] == protocol.RESULT and first["id"] == 1
            for request_id in (2, 3):
                reply = protocol.read_frame(connection._sock)
                assert reply["type"] == protocol.ERROR
                assert reply["code"] == protocol.ERR_SHUTTING_DOWN
                assert reply["id"] == request_id
            assert protocol.read_frame(connection._sock)["type"] == protocol.BYE
            stopper.join()
            connection._sock.close()
        finally:
            background.stop()

    def test_pipeline_call_surfaces_drain_errors_per_request(self):
        background = BackgroundServer(
            delay_statements(make_gateway(), 0.3), ServerConfig(port=0)
        ).start()
        try:
            connection = connect(background)
            outcomes_box = {}

            def run() -> None:
                outcomes_box["outcomes"] = connection.pipeline(
                    [("SELECT EId FROM Attendance WHERE UId = ?", [1])] * 3
                )

            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.1)
            background.stop()
            worker.join()
            outcomes = outcomes_box["outcomes"]
            assert isinstance(outcomes[0], Result)
            shed = [o for o in outcomes[1:] if isinstance(o, NetError)]
            assert shed and all(
                o.code == protocol.ERR_SHUTTING_DOWN for o in shed
            )
        finally:
            background.stop()


class TestReadAheadOverlap:
    def test_server_reads_ahead_while_a_statement_executes(self):
        """With an injected 0.2s execute delay, three pipelined requests
        must take ~1x the delay + ~3x, not 3 round trips of client think
        time: the wall clock bound proves requests 2 and 3 were already
        server-side while request 1 executed."""
        with BackgroundServer(
            delay_statements(make_gateway(), 0.2), ServerConfig(port=0)
        ) as background:
            connection = connect(background)
            started = time.perf_counter()
            outcomes = connection.pipeline(
                [("SELECT EId FROM Attendance WHERE UId = ?", [1])] * 3
            )
            elapsed = time.perf_counter() - started
            assert all(isinstance(outcome, Result) for outcome in outcomes)
            # Sequential with delay would be >= 0.6s of server time plus 3
            # full round trips; pipelined still pays 3 * delay (statements
            # are serialized per session) but zero extra think-time gaps.
            assert elapsed < 1.5
            # The real assertion: all three frames were accepted before the
            # first reply was written (the pipeline sent them in one burst).
            connection.close()
