"""Set-up and untraced rounds: replay a stream through the program's
public entry points and time every statement.

The loop is *closed* — each client sends its next statement only when
the previous reply is in hand, as an app-server worker would — with one
client in process and at most two over the wire (the box has two cores).
A round builds a fresh database and gateway (or opens fresh sessions on
the server subprocess), replays the untimed warm-up sessions, then times
the identical timed sessions and the same allowed statements on a bare
``DirectConnection`` (the unmodified app) for ``overhead_ratio``.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from dataclasses import dataclass, field

from repro.enforce.baselines import DirectConnection
from repro.enforce.decision import PolicyViolation
from repro.lifecycle import LifecycleManager
from repro.net.client import AdminClient, NetClientConnection
from repro.relalg import memo
from repro.serve import EnforcementGateway, GatewayConfig

from bench.reference import Reference, Verdict, compute_reference, judge
from bench.servers import ServerProcess
from bench.workloads import Session, Stream, Workload

PIPELINE_BATCH = 32
#: Work of one calibration spin: pure interpreter arithmetic, so it tracks
#: the machine's speed and nothing of the program under test. One spin
#: runs right before and one right after every timed section (and every
#: set-up); the two together (~100 ms on the box this was sized on) are
#: the section's ``calib_ms``.
CALIBRATION_ITERATIONS = 1_000_000
#: Timings are reported as on a machine whose ``calib_ms`` is this — a
#: unit, not a property of any box (see README, *Machine speed*).
CALIBRATION_NOMINAL_MS = 100.0

now = time.perf_counter


def calibration_ms() -> float:
    started = now()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return (now() - started) * 1e3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Setup:
    """What set-up produces and every round of one workload shares."""

    workload: Workload
    stream: Stream
    reference: Reference
    policy: object
    server: ServerProcess | None = None
    seconds: float = 0.0
    calib_ms: float = 0.0
    #: The server subprocess keeps its caches between rounds, so the wire
    #: workloads replay the warm-up once, before the first round.
    server_warm: bool = False

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def set_up(workload: Workload, seed: int) -> Setup:
    """Everything before the first timed statement: record the stream,
    compute reference outcomes, compile the policy / start the server.
    ``seconds`` is at nominal machine speed, like the round timings."""
    spin = calibration_ms()
    started = now()
    stream = workload.build(seed)
    reference = compute_reference(stream)
    policy = stream.make_app().ground_truth_policy()
    setup = Setup(workload, stream, reference, policy)
    if workload.mode == "inproc":
        # The first gateway pays the policy compile; rounds build their own.
        EnforcementGateway(stream.make_database(), policy, GatewayConfig()).close()
    else:
        kind = "cluster" if workload.mode == "cluster" else "serve"
        setup.server = ServerProcess(kind, stream.app, stream.size, stream.data_seed)
        NetClientConnection(
            setup.server.host, setup.server.port, user=stream.timed[0].user, fresh=True
        ).close()
    elapsed = now() - started
    setup.calib_ms = spin + calibration_ms()
    setup.seconds = elapsed * CALIBRATION_NOMINAL_MS / setup.calib_ms
    return setup


@dataclass
class Round:
    """One round's raw measurements."""

    wall_s: float = 0.0
    #: Seconds per answered timed statement, in reference (stream) order;
    #: statements lost to a dead connection have an answer (the error)
    #: but no latency.
    latencies: list[float] = field(default_factory=list)
    answers: list[object] = field(default_factory=list)
    #: Seconds per reference-allowed statement on DirectConnection.
    direct: list[float] = field(default_factory=list)
    #: The spins before and after the timed section, summed.
    calib_ms: float = 0.0
    #: Program-side counters over the timed section (hits, misses, ...).
    counters: dict[str, float] = field(default_factory=dict)
    facts_at_end: list[int] = field(default_factory=list)
    #: Timed statements answered by each cluster shard.
    shard_statements: dict[int, int] = field(default_factory=dict)
    reload_reports: list = field(default_factory=list)
    reload_seconds: list[float] = field(default_factory=list)
    #: Timed-statement counts at which a reload ran.
    reload_points: list[int] = field(default_factory=list)
    #: Timed-statement indexes whose cache lookup missed (traced rounds).
    missed: list[int] = field(default_factory=list)

    def verdict(self, reference: Reference) -> Verdict:
        return judge(self.answers, reference)

    @property
    def at_nominal(self) -> float:
        """Factor that takes a time measured in this round's timed section
        to nominal machine speed (< 1: the box ran slow)."""
        return CALIBRATION_NOMINAL_MS / self.calib_ms

    def end_timed_section(self, started: float, ended: float) -> None:
        self.wall_s = ended - started
        self.calib_ms += calibration_ms()
        gc.unfreeze()


def begin_round() -> Round:
    """Noise hygiene before a timed section, and the opening spin."""
    memo.clear_memos()
    memo.reset_memo_stats()
    gc.collect()
    gc.freeze()
    return Round(calib_ms=calibration_ms())


def time_direct(result: Round, stream: Stream, reference: Reference) -> None:
    """The unmodified app: the reference-allowed statements, no proxy,
    right after the timed section of the same round."""
    direct = DirectConnection(stream.make_database())
    seconds = result.direct
    outcomes = iter(reference.outcomes)
    for session in stream.timed:
        for sql, args in session.statements:
            if not next(outcomes)[0]:
                continue
            started = now()
            direct.sql(sql, args)
            seconds.append(now() - started)


def _replay_untimed(connection, session: Session) -> None:
    for sql, args in session.statements:
        try:
            connection.sql(sql, args)
        except PolicyViolation:
            pass


# -- in-process ---------------------------------------------------------------------


def flatten_stats(
    gateway: dict, gateway_stages: dict, net: dict | None = None, net_stages: dict | None = None
) -> dict[str, float]:
    """The counters and stage totals a round needs, from a gateway
    snapshot or a STATS document (both use the same names)."""
    net = net or {}
    counters = {
        # The gateway's own decision counters, not the cache's: a hot
        # reload installs a fresh cache whose counters restart at zero.
        "cache_hits": gateway.get("cache_hits", 0),
        "cache_misses": gateway.get("cache_misses", 0),
        "full_checks": gateway.get("compile_misses", 0),
        "template_hits": gateway.get("compiled_hits", 0),
        "stripe_contention": gateway.get("cache_stripe_contention", 0),
        "templates_applied": gateway.get("exchange_templates_applied", 0),
        "batches": gateway.get("batch_batches", 0),
        "batches_gt1": sum(gateway.get(f"batch_size_{size}", 0) for size in (2, 4, 8)),
        "shed": net.get("requests_shed", 0),
    }
    for stages in (gateway_stages, net_stages or {}):
        for stage, document in stages.items():
            counters[f"stage_{stage}_count"] = document["count"]
            counters[f"stage_{stage}_seconds"] = document["total_s"]
    return counters


def gateway_counters(gateway: EnforcementGateway) -> dict[str, float]:
    snapshot = gateway.snapshot()
    return flatten_stats(snapshot.counters, snapshot.stages)


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def warm_gateway(setup: Setup) -> tuple[EnforcementGateway, LifecycleManager | None]:
    """A fresh database and gateway with the warm-up sessions replayed."""
    stream = setup.stream
    gateway = EnforcementGateway(stream.make_database(), setup.policy, GatewayConfig())
    lifecycle = LifecycleManager(gateway) if stream.reload_every else None
    for session in stream.warmup:
        _replay_untimed(gateway.connect(session.bindings, fresh=True), session)
    return gateway, lifecycle


def reload_if_due(result: Round, lifecycle, setup: Setup, count: int) -> None:
    """The identity hot reload after every ``reload_every`` timed statements."""
    if lifecycle is not None and count % setup.stream.reload_every == 0:
        started = now()
        result.reload_reports.append(lifecycle.reload(setup.policy))
        result.reload_seconds.append(now() - started)
        result.reload_points.append(count)


def inproc_round(setup: Setup) -> Round:
    stream = setup.stream
    gateway, lifecycle = warm_gateway(setup)
    result = begin_round()
    before = gateway_counters(gateway)
    latencies, answers = result.latencies, result.answers
    count = 0
    round_started = now()
    for session in stream.timed:
        connection = gateway.connect(session.bindings, fresh=True)
        for sql, args in session.statements:
            started = now()
            try:
                answer = connection.sql(sql, args)
            except Exception as exc:  # a block or an error: judged later
                answer = exc
            latencies.append(now() - started)
            answers.append(answer)
            count += 1
            reload_if_due(result, lifecycle, setup, count)
        result.facts_at_end.append(len(connection.trace.facts))
    result.end_timed_section(round_started, now())
    result.counters = delta(gateway_counters(gateway), before)
    gateway.close()
    time_direct(result, stream, setup.reference)
    return result


# -- over the wire ------------------------------------------------------------------


def server_counters(setup: Setup) -> dict[str, float]:
    """The server's (or the whole cluster's) counters via the STATS verb."""
    assert setup.server is not None
    with AdminClient(setup.server.host, setup.server.port) as admin:
        stats = admin.stats()
    return flatten_stats(
        stats["gateway"]["counters"],
        stats["gateway"]["stages"],
        stats["net"]["counters"],
        stats["net"]["stages"],
    )


def on_connection(open_connection, session: Session, body) -> tuple[list, list, object]:
    """Open a connection, run ``body(connection, latencies, answers)`` and
    close it. Returns the session's latencies, answers and serving shard;
    a dead connection fails every remaining statement of the session
    (an answer each, the error, and no latency)."""
    latencies: list[float] = []
    answers: list[object] = []
    shard = None
    connection = None
    try:
        connection = open_connection()
        shard = connection.server_shard_id
        body(connection, latencies, answers)
    except Exception as exc:
        del latencies[len(answers):]
        answers.extend([exc] * (len(session.statements) - len(answers)))
    finally:
        if connection is not None:
            connection.close()
    return latencies, answers, shard


def batches(session: Session):
    """The session's statements in pipeline batches."""
    statements = session.statements
    for offset in range(0, len(statements), PIPELINE_BATCH):
        yield statements[offset : offset + PIPELINE_BATCH]


def _open_client(setup: Setup, session: Session):
    server = setup.server
    return lambda: NetClientConnection(
        server.host, server.port, bindings=session.bindings, fresh=True
    )


def classic_session(setup: Setup, session: Session) -> tuple[list, list, object]:
    """QUERY round trips, one outstanding at a time."""

    def body(connection, latencies, answers) -> None:
        for sql, args in session.statements:
            started = now()
            try:
                answer = connection.query(sql, args)
            except PolicyViolation as exc:
                answer = exc
            latencies.append(now() - started)
            answers.append(answer)

    return on_connection(_open_client(setup, session), session, body)


def pipelined_session(setup: Setup, session: Session) -> tuple[list, list, object]:
    """PREPARE each distinct SQL once, then pipeline() calls of 32; a
    statement's latency is its call's time divided by the batch size."""

    def body(connection, latencies, answers) -> None:
        prepared = {sql: None for sql, _ in session.statements}
        for sql in prepared:
            prepared[sql] = connection.prepare(sql)
        for batch in batches(session):
            requests = [(prepared[sql], args) for sql, args in batch]
            started = now()
            outcomes = connection.pipeline(requests, window=PIPELINE_BATCH)
            latencies.extend([(now() - started) / len(batch)] * len(batch))
            answers.extend(outcomes)

    return on_connection(_open_client(setup, session), session, body)


def wire_round(setup: Setup, run_session=None) -> Round:
    """Replay over the wire with ``workload.clients`` closed-loop threads.

    The timed sessions are split in half between the clients; each
    client walks its sessions one at a time, so at most ``clients``
    connections are ever open.
    """
    stream = setup.stream
    if run_session is None:
        run_session = (
            pipelined_session if setup.workload.mode == "pipelined" else classic_session
        )
    if not setup.server_warm:
        for session in stream.warmup:
            run_session(setup, session)
        setup.server_warm = True
    result = begin_round()
    before = server_counters(setup)
    clients = setup.workload.clients
    share = -(-len(stream.timed) // clients)
    per_session: list = [None] * len(stream.timed)
    barrier = threading.Barrier(clients + 1)
    finished: list[float] = [0.0] * clients

    def client(index: int) -> None:
        barrier.wait()
        for position in range(index * share, min((index + 1) * share, len(stream.timed))):
            per_session[position] = run_session(setup, stream.timed[position])
        finished[index] = now()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    round_started = now()
    for thread in threads:
        thread.join()
    result.end_timed_section(round_started, max(finished))
    after = server_counters(setup)
    result.counters = delta(after, before)
    # Cross-shard templates are applied while the caches warm, before the
    # first timed section: report the server's running total.
    result.counters["templates_applied"] = after["templates_applied"]
    for latencies, answers, shard in per_session:
        result.latencies.extend(latencies)
        result.answers.extend(answers)
        if shard is not None:
            result.shard_statements[shard] = (
                result.shard_statements.get(shard, 0) + len(latencies)
            )
    time_direct(result, stream, setup.reference)
    return result


def run_round(setup: Setup) -> Round:
    if setup.workload.mode == "inproc":
        return inproc_round(setup)
    return wire_round(setup)
