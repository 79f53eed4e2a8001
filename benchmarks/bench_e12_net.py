"""E12 — the network tier: wire overhead, overload shedding, graceful drain.

Three questions about ``repro.net`` fronting the enforcement gateway:

1. **Fidelity & overhead** — replaying each workload through
   :class:`NetClientConnection` over a loopback socket must reach
   *identical* enforcement outcomes (completed / blocked / aborted) to
   the in-process gateway; how much throughput does the wire cost?

2. **Overload** — with a small in-flight bound and a slow (fault-
   injected) execute stage, admission control must shed excess load with
   structured ``ERROR/overloaded`` replies *immediately*, so the p50
   latency of *admitted* requests stays within 2x the unloaded p50
   instead of collapsing under a queue.

3. **Drain** — stopping the server with statements in flight must
   deliver every outstanding reply: zero dropped requests.

Marked ``slow``: real sockets, deliberate execute delays.
"""

import random
import statistics
import threading
import time

import pytest

from repro.bench.harness import print_table
from repro.net import BackgroundServer, NetClientConnection, NetGatewayClient, ServerConfig
from repro.net.protocol import ERR_OVERLOADED, NetError
from repro.serve import EnforcementGateway, GatewayConfig, WorkloadDriver

from conftest import fresh_app

pytestmark = pytest.mark.slow


def make_gateway(app_name: str, users: int):
    app, db = fresh_app(app_name, size=users)
    policy = app.ground_truth_policy()
    return app, db, EnforcementGateway(db, policy, GatewayConfig())


# -- E12a: wire vs in-process ------------------------------------------------------


def replay_pair(app_name: str, users: int, requests: int, workers: int, seed: int = 12):
    """Run the same stream in-process and over the wire; return both reports."""
    app, db, gateway = make_gateway(app_name, users)
    stream = app.request_stream(db, random.Random(seed), requests)
    inproc = WorkloadDriver(app, gateway, workers=workers).run(stream)

    app2, db2, gateway2 = make_gateway(app_name, users)
    stream2 = app2.request_stream(db2, random.Random(seed), requests)
    with BackgroundServer(gateway2, ServerConfig(port=0)) as background:
        client = NetGatewayClient(background.host, background.port, db=db2)
        with client:
            wire = WorkloadDriver(app2, client, workers=workers).run(stream2)
    return inproc, wire


def request_p50_us(report) -> float:
    return report.metrics.stages.get("request", {}).get("p50_us", 0.0)


def fidelity_rows():
    rows = []
    for app_name in ("calendar", "hospital", "employees", "social"):
        inproc, wire = replay_pair(app_name, users=16, requests=120, workers=4)
        identical = (inproc.completed, inproc.blocked, inproc.aborted) == (
            wire.completed,
            wire.blocked,
            wire.aborted,
        )
        rows.append(
            (
                app_name,
                inproc.requests,
                f"{inproc.completed}/{inproc.blocked}/{inproc.aborted}",
                f"{wire.completed}/{wire.blocked}/{wire.aborted}",
                identical,
                round(inproc.throughput_rps),
                round(wire.throughput_rps),
                round(request_p50_us(inproc)),
                round(request_p50_us(wire)),
            )
        )
    return rows


# -- E12b: overload shedding -------------------------------------------------------

EXECUTE_DELAY_S = 0.02
OVERLOAD_CLIENTS = 8
ADMITTED_TARGET = 12


def overload_rows():
    app, db, gateway = make_gateway("calendar", users=OVERLOAD_CLIENTS + 2)
    config = ServerConfig(
        port=0,
        max_in_flight=2,
        execute_delay_s=EXECUTE_DELAY_S,
    )
    rows = []
    with BackgroundServer(gateway, config) as background:
        # Unloaded baseline: one client, sequential requests, no contention.
        client = NetClientConnection(background.host, background.port, user=1)
        unloaded: list[float] = []
        for _ in range(30):
            started = time.perf_counter()
            client.query("SELECT EId FROM Attendance WHERE UId = ?", [1])
            unloaded.append(time.perf_counter() - started)
        client.close()
        unloaded_p50 = statistics.median(unloaded)

        # Overload: many concurrent principals against an in-flight bound
        # of 2. Excess statements get ERROR/overloaded immediately; each
        # client keeps going until it has ADMITTED_TARGET admitted answers.
        admitted: list[float] = []
        shed_latencies: list[float] = []
        shed = 0
        lock = threading.Lock()
        barrier = threading.Barrier(OVERLOAD_CLIENTS)
        errors: list[BaseException] = []

        def hammer(uid: int) -> None:
            nonlocal shed
            try:
                connection = NetClientConnection(
                    background.host, background.port, user=uid
                )
                barrier.wait()
                ok, attempts = 0, 0
                while ok < ADMITTED_TARGET and attempts < 400:
                    attempts += 1
                    started = time.perf_counter()
                    try:
                        connection.query(
                            "SELECT EId FROM Attendance WHERE UId = ?", [uid]
                        )
                    except NetError as exc:
                        if exc.code != ERR_OVERLOADED:
                            raise
                        with lock:
                            shed += 1
                            shed_latencies.append(time.perf_counter() - started)
                        continue
                    ok += 1
                    with lock:
                        admitted.append(time.perf_counter() - started)
                connection.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(uid,))
            for uid in range(1, OVERLOAD_CLIENTS + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        stats = NetGatewayClient(background.host, background.port).remote_stats()

    admitted_p50 = statistics.median(admitted)
    rows.append(
        (
            "unloaded",
            1,
            len(unloaded),
            0,
            round(unloaded_p50 * 1e3, 2),
            round(max(unloaded) * 1e3, 2),
        )
    )
    rows.append(
        (
            "overloaded",
            OVERLOAD_CLIENTS,
            len(admitted),
            shed,
            round(admitted_p50 * 1e3, 2),
            round(max(admitted) * 1e3, 2),
        )
    )
    shed_p50_ms = round(statistics.median(shed_latencies) * 1e3, 2) if shed else 0.0
    server_shed = stats["net"]["counters"].get("requests_shed", 0)
    return rows, unloaded_p50, admitted_p50, shed, shed_p50_ms, server_shed


# -- E12c: graceful drain ----------------------------------------------------------

DRAIN_IN_FLIGHT = 6


def drain_rows():
    app, db, gateway = make_gateway("calendar", users=DRAIN_IN_FLIGHT + 2)
    config = ServerConfig(
        port=0,
        max_in_flight=16,
        execute_delay_s=0.15,
        drain_grace_s=5.0,
    )
    background = BackgroundServer(gateway, config).start()
    replies: list[object] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    clients = [
        NetClientConnection(background.host, background.port, user=uid)
        for uid in range(1, DRAIN_IN_FLIGHT + 1)
    ]

    def one_statement(connection: NetClientConnection, uid: int) -> None:
        try:
            result = connection.query("SELECT EId FROM Attendance WHERE UId = ?", [uid])
            with lock:
                replies.append(result)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=one_statement, args=(connection, uid))
        for uid, connection in enumerate(clients, start=1)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let every statement reach the executor
    started = time.perf_counter()
    background.stop()  # graceful drain: finish in-flight, then close
    drain_seconds = time.perf_counter() - started
    for thread in threads:
        thread.join()
    for connection in clients:
        connection.close()

    drained = background.server.metrics.counter("drained_connections")
    row = (
        DRAIN_IN_FLIGHT,
        len(replies),
        len(errors),
        drained,
        round(drain_seconds * 1e3, 1),
    )
    return [row], replies, errors


# -- the experiment ----------------------------------------------------------------


def test_e12_net(benchmark, capsys):
    fidelity = fidelity_rows()
    overload, unloaded_p50, admitted_p50, shed, shed_p50_ms, server_shed = (
        overload_rows()
    )
    drain, drain_replies, drain_errors = drain_rows()

    # The measured pass: a warmed single-session query round-trip over
    # the wire (protocol + socket + dispatch overhead on a cache hit).
    app, db, gateway = make_gateway("calendar", users=8)
    with BackgroundServer(gateway, ServerConfig(port=0)) as background:
        client = NetClientConnection(background.host, background.port, user=1)
        client.query("SELECT EId FROM Attendance WHERE UId = 1")  # warm

        def roundtrip():
            client.query("SELECT EId FROM Attendance WHERE UId = 1")

        benchmark.pedantic(roundtrip, rounds=5, iterations=50)
        client.close()

    with capsys.disabled():
        print_table(
            "E12a",
            "wire vs in-process gateway (16 users, 120 requests, 4 workers)",
            [
                "app",
                "requests",
                "inproc c/b/a",
                "wire c/b/a",
                "identical",
                "inproc req/s",
                "wire req/s",
                "inproc p50 µs",
                "wire p50 µs",
            ],
            fidelity,
        )
        print_table(
            "E12b",
            f"overload shedding (in-flight bound 2, {EXECUTE_DELAY_S * 1e3:.0f} ms"
            " execute delay)",
            ["scenario", "clients", "admitted", "shed", "p50 ms", "max ms"],
            overload,
        )
        print(
            f"shed replies: {shed} client-side / {server_shed} server-side,"
            f" p50 {shed_p50_ms} ms (vs {EXECUTE_DELAY_S * 1e3:.0f} ms execute)"
        )
        print_table(
            "E12c",
            "graceful drain with statements in flight (0.15 s execute delay)",
            ["in flight", "replies", "dropped", "drained conns", "drain ms"],
            drain,
        )

    # (a) the wire changes nothing about enforcement.
    assert all(row[4] for row in fidelity), fidelity
    # (b) overload sheds rather than queues: sheds happened, every shed
    # answered fast, and admitted latency stayed within 2x unloaded.
    assert shed > 0 and server_shed >= shed
    assert shed_p50_ms < EXECUTE_DELAY_S * 1e3
    assert admitted_p50 <= 2 * unloaded_p50, (admitted_p50, unloaded_p50)
    # (c) drain dropped nothing.
    assert not drain_errors, drain_errors
    assert len(drain_replies) == DRAIN_IN_FLIGHT
