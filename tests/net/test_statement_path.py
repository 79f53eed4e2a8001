"""What the thread-per-connection server changed, pinned.

* **One path** — a statement takes the same route through the server
  whether it arrives as a QUERY round trip, inside a pipelined burst, or
  as an EXECUTE of a prepared handle: same decisions, same rows, same
  checker and cache work, and the same certified facts left in every
  session's trace, as the in-process gateway session.
* **Deadlines inside a burst** — the budget is per statement, and a
  statement that overruns it costs the connection exactly one
  ``ERROR/timeout`` after the replies already owed.
* **An admin verb's deadline** works the same way — one ``ERROR/timeout``
  and a close — and the verb itself still runs to completion. (The
  asyncio server answered the error and kept the operator's connection.)
* **A connection is a session**: two connections of one principal share
  nothing, so neither waits for the other.
* **Bounded work** — racing connection threads never overshoot
  ``max_in_flight``; ``max_connections`` connections are served, the
  next is refused, and every connection's thread ends with it.
"""

from __future__ import annotations

import contextlib
import socket
import sys
import threading
import time

import pytest

from repro.enforce.decision import PolicyViolation
from repro.engine.executor import Result
from repro.lifecycle import LifecycleManager
from repro.net import (
    AdminClient,
    BackgroundServer,
    NetClientConnection,
    NetError,
    ServerConfig,
    protocol,
)
from repro.policy.policy import Policy
from repro.policy.serialize import policy_from_text, policy_to_text
from repro.workloads import calendar_app
from tests.conftest import delay_statements
from tests.net.test_client_server import connect, make_gateway

MINE = "SELECT EId FROM Attendance WHERE UId = ?"
PROBE = "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
EVENT = "SELECT * FROM Events WHERE EId = ?"
PROFILE = "SELECT Name FROM Users WHERE UId = ?"
WRITE = "UPDATE Events SET Title = Title"

NOBODY_ATTENDS = 999
SESSIONS = 6


def session_script(user: int, event: int, stranger: int) -> list[tuple[str, list]]:
    """One session's statements: blocked, history-gated and allowed.

    The blocked probes come first, while the trace holds at most one
    fact — a Block's cost grows steeply with the facts it must search
    (ROADMAP, "a blocked check must not be exponential").
    """
    opening = [
        (EVENT, [NOBODY_ATTENDS]),  # blocked: no view reveals it
        (PROBE, [user, event]),  # certifies the attendance fact
        (PROFILE, [stranger]),  # blocked: someone else's profile
        (EVENT, [event]),  # allowed by that fact (Example 2.1) — while V2 lasts
    ]
    steady = [(PROFILE, [user]), (MINE, [user]), (PROBE, [user, event])]
    return opening + steady * 3


def make_stream(db) -> list[list[tuple[str, list]]]:
    attendance = db.query("SELECT UId, EId FROM Attendance ORDER BY UId, EId").rows
    first_event = {}
    for user, event in attendance:
        first_event.setdefault(user, event)
    users = sorted(first_event)[:SESSIONS]
    assert len(users) == SESSIONS
    return [
        session_script(user, first_event[user], users[index - 1])
        for index, user in enumerate(users)
    ]


WRITE_AFTER_SESSION = 1
RELOAD_AFTER_SESSION = 3


def reduced_policy_text() -> str:
    """The calendar policy without V2: event details become invisible."""
    policy = calendar_app.ground_truth_policy()
    return policy_to_text(
        Policy([v for v in policy.views if v.name != "V2"], name="minus-V2")
    )


def digest(outcome: object) -> tuple:
    if isinstance(outcome, Result):
        return ("allow", tuple(sorted(outcome.rows)))
    if isinstance(outcome, PolicyViolation):
        return ("block",)
    assert isinstance(outcome, int), outcome
    return ("rowcount", outcome)


def attempt(call, *args) -> object:
    try:
        return call(*args)
    except PolicyViolation as violation:
        return violation


def checker_work(gateway) -> tuple:
    counters = gateway.snapshot().counters
    return (
        counters["cache_hits"],
        counters["cache_misses"],
        counters["compile_misses"],  # full checks, cumulative across the reload
    )


def run_session(mode: str, connection, script, write: bool) -> list[object]:
    """One session's statements (then, maybe, the write) in one wire shape."""
    if mode == "prepared":
        handles = {sql: connection.prepare(sql) for sql in (EVENT, PROBE, PROFILE, MINE)}
        outcomes = connection.pipeline([(handles[sql], args) for sql, args in script])
        if write:
            outcomes.append(connection.execute(connection.prepare(WRITE)))
        return outcomes
    if mode == "pipelined":
        outcomes = connection.pipeline(script)
    else:  # "classic" over the wire, and the in-process session
        outcomes = [attempt(connection.query, sql, args) for sql, args in script]
    if write:
        outcomes.append(connection.sql(WRITE))
    return outcomes


def replay(mode: str) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """Run the stream one way on a fresh gateway; returns (outcome
    digests, checker work before the reload and at the end, every
    session's ``trace.facts`` at the end)."""
    gateway = make_gateway()
    sessions = []  # in-process or behind the wire, a session is vended here
    plain_connect = gateway.connect

    def connect_and_keep(*args, **kwargs):
        sessions.append(plain_connect(*args, **kwargs))
        return sessions[-1]

    gateway.connect = connect_and_keep
    lifecycle = LifecycleManager(gateway)
    stream = make_stream(gateway.db)
    outcomes: list[object] = []
    work: list[tuple] = []
    in_process = mode == "in-process"
    server = (
        contextlib.nullcontext()
        if in_process
        else BackgroundServer(gateway, ServerConfig(port=0), lifecycle=lifecycle)
    )
    with server as bg:
        for index, script in enumerate(stream):
            user = script[1][1][0]
            if in_process:
                connection = gateway.connect(user)
            else:
                connection = connect(bg, user=user)
            outcomes += run_session(
                mode, connection, script, write=index == WRITE_AFTER_SESSION
            )
            connection.close()
            if index == RELOAD_AFTER_SESSION:
                work.append(checker_work(gateway))
                if in_process:
                    lifecycle.reload(
                        policy_from_text(reduced_policy_text(), gateway.db.schema)
                    )
                else:
                    with AdminClient(bg.host, bg.port, timeout_s=30.0) as operator:
                        operator.reload(reduced_policy_text())
        work.append(checker_work(gateway))
    gateway.close()
    assert len(sessions) == SESSIONS
    facts = [session.trace.facts for session in sessions]
    return [digest(outcome) for outcome in outcomes], work, facts


class TestOneStatementPath:
    def test_every_wire_shape_matches_the_in_process_session(self):
        expected, expected_work, expected_facts = replay("in-process")
        assert len(expected) >= 60 and all(expected_facts)
        assert {entry[0] for entry in expected} == {"allow", "block", "rowcount"}
        # The reload bites: the first session's event lookup was allowed,
        # the last session's is blocked.
        per_session = len(expected) // SESSIONS
        assert expected[3][0] == "allow"
        assert expected[-per_session + 3][0] == "block"
        for mode in ("classic", "pipelined", "prepared"):
            got, work, facts = replay(mode)
            assert got == expected, mode
            assert work == expected_work, mode
            # Labeled-null names and recency order included.
            assert facts == expected_facts, mode


def statement_frames(ids, args_for) -> bytes:
    frames = bytearray()
    for request_id in ids:
        protocol.encode_frame_into(
            {
                "type": protocol.QUERY,
                "id": request_id,
                "sql": MINE,
                "args": args_for(request_id),
            },
            frames,
        )
    return bytes(frames)


class TestDeadlineInsideAPipelinedRun:
    def test_the_budget_is_per_statement_not_per_burst(self):
        config = ServerConfig(port=0, request_timeout_s=0.25)
        with BackgroundServer(delay_statements(make_gateway(), 0.1), config) as bg:
            connection = connect(bg)
            # 0.4 s of statements in one burst, each within its own 0.25 s.
            outcomes = connection.pipeline([(MINE, [1])] * 4)
            assert all(isinstance(outcome, Result) for outcome in outcomes)
            assert bg.server.metrics.counter("requests_timed_out") == 0
            connection.close()

    def test_an_overrun_costs_one_timeout_after_the_owed_replies(self):
        gateway = make_gateway()
        plain_connect = gateway.connect

        def connect_slowly(*args, **kwargs):
            """The session the wire HELLO opens, with a slow third query."""
            session = plain_connect(*args, **kwargs)
            plain_query = session.query

            def query(sql, args=(), named=None):
                if list(args) == [3]:
                    time.sleep(0.8)  # the third statement overruns the deadline
                return plain_query(sql, args, named)

            session.query = query
            return session

        gateway.connect = connect_slowly
        config = ServerConfig(port=0, request_timeout_s=0.25)
        with BackgroundServer(gateway, config) as bg:
            connection = connect(bg)
            sock = connection._sock
            sock.sendall(statement_frames((1, 2, 3, 4), lambda i: [3 if i == 3 else 1]))
            for request_id in (1, 2):  # owed before the slow statement began
                reply = protocol.read_frame(sock)
                assert (reply["type"], reply["id"]) == (protocol.RESULT, request_id)
            reply = protocol.read_frame(sock)
            assert (reply["type"], reply["id"]) == (protocol.ERROR, 3)
            assert reply["code"] == protocol.ERR_TIMEOUT
            # Exactly one: the fourth statement is never run or answered.
            with pytest.raises(protocol.ConnectionClosed):
                protocol.read_frame(sock)
            sock.close()
            metrics = bg.server.metrics
            assert metrics.counter("requests_timed_out") == 1
            # The connection's slot is free at once; the orphan gives the
            # in-flight slot back when the statement returns.
            assert metrics.active_connections == 0
            deadline = time.monotonic() + 5.0
            while metrics.in_flight and time.monotonic() < deadline:
                time.sleep(0.02)
            assert metrics.in_flight == 0
            assert metrics.counter("requests_ok") == 2


class TestAdminVerbDeadline:
    def test_an_overrun_costs_the_connection_and_the_verb_still_completes(
        self, monkeypatch
    ):
        gateway = make_gateway()
        lifecycle = LifecycleManager(gateway)
        plain_reload = lifecycle.reload

        def slow_reload(*args, **kwargs):
            time.sleep(1.0)  # past the (shortened) admin deadline
            return plain_reload(*args, **kwargs)

        lifecycle.reload = slow_reload
        monkeypatch.setattr("repro.net.server._ADMIN_TIMEOUT_S", 0.2)
        with BackgroundServer(gateway, ServerConfig(port=0), lifecycle=lifecycle) as bg:
            before = gateway.policy_version
            operator = AdminClient(bg.host, bg.port, timeout_s=30.0)
            with pytest.raises(NetError) as overrun:
                operator.reload(reduced_policy_text())
            assert overrun.value.code == protocol.ERR_TIMEOUT
            assert "RELOAD exceeded the 0.200s deadline" in str(overrun.value)
            assert gateway.policy_version == before  # answered for, not finished
            with pytest.raises(protocol.ConnectionClosed):
                operator.policy_status()  # that connection is gone
            metrics = bg.server.metrics
            assert metrics.counter("requests_timed_out") == 1
            assert metrics.active_connections == 0
            # The connection's thread could not be interrupted: the reload
            # lands, once, and a new operator connection sees it.
            wait_until(lambda: gateway.policy_version == before + 1)
            with AdminClient(bg.host, bg.port, timeout_s=30.0) as again:
                assert again.policy_status()["active_version"] == before + 1
        assert gateway.policy_version == before + 1


def second_finishes_after_first(bg: BackgroundServer) -> float:
    """Two connections of principal 1 each run one statement, the second
    sent 0.05 s after the first; returns how long after the first's reply
    the second's arrived."""
    first = connect(bg)
    second = connect(bg)
    finished: dict[str, float] = {}

    def run(name: str, connection: NetClientConnection) -> None:
        connection.query(MINE, [1])
        finished[name] = time.monotonic()

    threads = [
        threading.Thread(target=run, args=("first", first)),
        threading.Thread(target=run, args=("second", second)),
    ]
    threads[0].start()
    time.sleep(0.05)
    threads[1].start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    first.close()
    second.close()
    return finished["second"] - finished["first"]


class TestSessionSerialisation:
    DELAY_S = 0.4  # held in each statement's admitted slot by delay_statements

    def test_fresh_sessions_of_one_principal_do_not_wait(self):
        gateway = delay_statements(make_gateway(), self.DELAY_S)
        with BackgroundServer(gateway, ServerConfig(port=0)) as bg:
            # They share no state, so they overlap: 0.05 s apart, as sent.
            assert second_finishes_after_first(bg) < self.DELAY_S / 2


class TestAdmissionUnderContention:
    def test_concurrent_connection_threads_never_overshoot_the_bound(self):
        """More connection threads than cores race for two in-flight
        slots with the interpreter switching every few bytecodes: the
        check-and-take must stay atomic and every slot must come back."""
        bound, clients, each = 2, 6, 25
        config = ServerConfig(port=0, max_in_flight=bound)
        gateway = delay_statements(make_gateway(), 0.002)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BackgroundServer(gateway, config) as bg:
                metrics = bg.server.metrics
                admit = metrics.request_started
                peak = []

                def watched(limit: int) -> bool:
                    admitted = admit(limit)
                    if admitted:
                        peak.append(metrics.in_flight)
                    return admitted

                metrics.request_started = watched
                outcomes: list[str] = []

                def hammer(user: int) -> None:
                    connection = connect(bg, user=user)
                    for _ in range(each):
                        try:
                            connection.query(MINE, [user])
                            outcomes.append("ok")
                        except NetError as exc:
                            outcomes.append(exc.code)
                    connection.close()

                threads = [
                    threading.Thread(target=hammer, args=(1 + i,)) for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                assert max(peak) <= bound
                assert metrics.in_flight == 0
                assert set(outcomes) <= {"ok", protocol.ERR_OVERLOADED}
                assert len(outcomes) == clients * each
                assert metrics.counter("requests_ok") == outcomes.count("ok")
                assert metrics.counter("requests_shed") == outcomes.count(
                    protocol.ERR_OVERLOADED
                )
                assert metrics.counter("requests") == outcomes.count("ok")
        finally:
            sys.setswitchinterval(interval)


class TestConnectionBound:
    def test_the_bound_is_served_the_next_refused_and_threads_end(self):
        bound = 6
        config = ServerConfig(port=0, max_connections=bound)
        with BackgroundServer(make_gateway(), config) as bg:
            baseline = threading.active_count()  # accept + housekeeping included
            metrics = bg.server.metrics
            connections = [connect(bg, user=1 + i) for i in range(bound)]
            assert threading.active_count() == baseline + bound
            for connection in connections:  # idle, open, and still served
                assert connection.ping() < 5.0
            with pytest.raises(NetError) as refused:
                connect(bg, user=99)
            assert refused.value.code == protocol.ERR_OVERLOADED
            connections.pop().close()
            wait_until(lambda: metrics.active_connections == bound - 1)
            connections.append(connect(bg, user=99))  # closing one admits one
            assert connections[-1].ping() < 5.0
            for connection in connections:
                connection.close()
            wait_until(lambda: threading.active_count() == baseline)
            assert metrics.active_connections == 0


class TestDrainWakesTheAcceptThread:
    def test_without_the_wakeup_only_linux_gives(self, monkeypatch):
        """Shutting a listening socket down wakes a blocked ``accept()`` on
        Linux and nowhere else; without that the accept loop's own poll
        must notice the drain, or ``stop()`` would hang."""
        bg = BackgroundServer(make_gateway(), ServerConfig(port=0)).start()
        listener = bg.server._listener
        plain_shutdown = socket.socket.shutdown

        def shutdown(sock, how):
            if sock is not listener:
                plain_shutdown(sock, how)

        monkeypatch.setattr(socket.socket, "shutdown", shutdown)
        connection = connect(bg)
        stopper = threading.Thread(target=bg.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=3.0)
        assert not stopper.is_alive()
        assert not bg.server._acceptor.is_alive()
        assert bg.server.metrics.counter("drained_connections") == 1
        connection.close()


def wait_until(condition, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition()
