"""The traced run: per-layer numbers, recorded entirely from ``bench/``.

In-process workloads are replayed *stage by stage* through the public
functions the proxy itself calls — ``Database.parse`` →
``bind_parameters`` → ``skeletonize`` → ``DecisionCache.lookup`` →
(``ComplianceChecker.check`` + ``DecisionCache.store`` on a miss) →
``Database.sql`` → ``ComplianceChecker.translate`` → ``Trace.record`` —
with one span per call. Wire workloads speak the protocol by hand
(``protocol.encode_frame`` / socket / ``protocol.decode_payload``) so
encode, send→receive and decode get a span each, and the server's own
``parse``/``check``/``execute`` stage histograms are read through the
public STATS verb before and after. Spans stay in memory and are written
out only at the end; end-to-end metrics are never taken from here.
"""

from __future__ import annotations

import itertools
import socket
import statistics
import struct
import time
from collections import defaultdict

from repro.enforce.decision import Decision, PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.net import protocol
from repro.net.client import NetClientConnection, connect_with_retry
from repro.relalg import memo
from repro.relalg.compile import compile_policy
from repro.serve import EnforcementGateway, GatewayConfig
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_sql
from repro.sqlir.skeleton import skeletonize

from bench.replay import (
    Round,
    Setup,
    _replay_untimed,
    batches,
    begin_round,
    delta,
    gateway_counters,
    on_connection,
    percentile,
    reload_if_due,
    time_direct,
    warm_gateway,
)
from bench.workloads import Session

now = time.perf_counter

#: (span id, parent id or None, statement id, name, start, end)
Span = tuple[int, int | None, int, str, float, float]
ROOT = "stmt"
#: Every layer span a traced round records; ``<name>_us`` is its metric.
SPAN_NAMES = (
    "sqlir.parse_cached", "sqlir.bind", "sqlir.skeletonize", "relalg.translate",
    "enforce.check_full", "enforce.check_template", "enforce.cache_lookup_hit",
    "enforce.cache_lookup_miss", "enforce.cache_store", "enforce.invalidate_table",
    "enforce.trace_record", "engine.select", "engine.write",
    "net.encode", "net.decode", "net.roundtrip",
)


# Declared per-layer metrics a workload does not produce; they are
# reported as 0 for it. Any other declared metric that a traced run fails
# to measure is an error (``run.summarize``), so a renamed span or a dead
# counter cannot pass as a zero. The sets are ISSUE 11's "predicted zero"
# (the layer is not on that workload's path) plus what sits inside the
# server subprocess, where the benchmark has no spans.
_NET = frozenset(
    f"net.{name}" for name in (
        "encode_us", "decode_us", "roundtrip_us", "ping_us", "query_rtt_us",
        "execute_pipelined_us", "wire_tax_us", "bytes_per_stmt", "connect_ms", "shed",
    )
)
_CLUSTER = frozenset(
    f"cluster.{name}"
    for name in ("ping_us", "router_hop_us", "shard_imbalance", "templates_applied")
)
_WRITES = frozenset({"enforce.invalidate_table_us", "engine.write_us", "serve.write_us"})
_RELOADS = frozenset(
    f"lifecycle.{name}"
    for name in ("reload_ms", "compile_ms", "swap_pause_us", "misses_per_reload")
)
#: Only a cache miss reaches the checker, the memo and the batcher.
_CHECKER = frozenset({
    "enforce.cache_lookup_miss_us", "enforce.cache_store_us", "enforce.check_full_us",
    "enforce.check_full_p99_us", "relalg.memo_hit_rate",
    "relalg.containment_calls_per_check", "serve.batch_gt1_share",
})
#: ``checker.check`` replays a *Block* template only for a blocked statement
#: that repeats; no workload has one (inproc_miss pins a fresh literal in
#: every probe), so this is off every path until a workload adds repeats.
_BLOCK_REPLAY = frozenset({"enforce.check_template_us"})
_IN_SERVER = _CHECKER | frozenset({
    "enforce.cache_lookup_hit_us", "enforce.trace_record_us", "enforce.trace_facts_end",
    "relalg.translate_us", "sqlir.bind_us", "sqlir.skeletonize_us",
    "serve.connect_us", "serve.snapshot_ms",
})
_WIRE_COMMON = _WRITES | _RELOADS | _IN_SERVER | _BLOCK_REPLAY
OFF_PATH: dict[str, frozenset[str]] = {
    "inproc_hit": _NET | _CLUSTER | _WRITES | _RELOADS | _CHECKER | _BLOCK_REPLAY,
    "inproc_miss": _NET | _CLUSTER | _WRITES | _RELOADS | _BLOCK_REPLAY
    | {"enforce.cache_lookup_hit_us"},
    "inproc_churn": _NET | _CLUSTER | _BLOCK_REPLAY,
    "inproc_long_session": _NET | _CLUSTER | _WRITES | _RELOADS | _BLOCK_REPLAY,
    "wire_hit": _WIRE_COMMON | _CLUSTER | {"net.execute_pipelined_us"},
    "wire_pipelined": _WIRE_COMMON | _CLUSTER | {"net.query_rtt_us", "net.wire_tax_us"},
    "cluster_hit": _WIRE_COMMON | {"net.execute_pipelined_us"},
}


class Tracer:
    """Spans in memory; one root per statement, one child per layer call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float, parent, stmt: int) -> None:
        self.spans.append((self.new_id(), parent, stmt, name, start, end))

    def call(self, name: str, parent, stmt: int, fn, *args, **kwargs):
        start = now()
        result = fn(*args, **kwargs)
        self.spans.append((self.new_id(), parent, stmt, name, start, now()))
        return result

    def root(self, root_id: int, stmt: int, start: float, end: float) -> None:
        self.spans.append((root_id, None, stmt, ROOT, start, end))

    def durations(self) -> dict[str, list[float]]:
        """Self time per span name: duration minus what children cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(list)
        for span_id, _, _, name, start, end in self.spans:
            by_name[name].append(end - start - covered.get(span_id, 0.0))
        return by_name

    def root_durations(self) -> list[float]:
        return [end - start for _, _, _, name, start, end in self.spans if name == ROOT]


def median_us(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e6


# -- in-process: stage-by-stage replay ----------------------------------------------


def staged_inproc_round(setup: Setup, tracer: Tracer) -> Round:
    """Replay the timed sessions stage by stage, one span per call."""
    stream = setup.stream
    gateway, lifecycle = warm_gateway(setup)
    db = gateway.db
    result = begin_round()
    before = gateway_counters(gateway)
    call = tracer.call
    count = 0
    round_started = now()
    for session in stream.timed:
        bindings = session.bindings
        param_items = sorted(bindings.items())
        trace = Trace()
        for sql, args in session.statements:
            root = tracer.new_id()
            started = now()
            epoch = gateway.epoch
            cache, checker = epoch.shared_cache, epoch.checker
            try:
                stmt = call("sqlir.parse_cached", root, count, db.parse, sql)
                if not isinstance(stmt, ast.Select):
                    answer = call("engine.write", root, count, db.sql, stmt, args)
                    for target in epoch.caches():
                        call(
                            "enforce.invalidate_table", root, count,
                            target.invalidate_table, stmt.table,
                        )
                else:
                    answer = _staged_select(
                        tracer, root, count, db, cache, checker,
                        stmt, args, bindings, param_items, trace, result.missed,
                    )
            except Exception as exc:
                answer = exc
            ended = now()
            tracer.root(root, count, started, ended)
            result.latencies.append(ended - started)
            result.answers.append(answer)
            count += 1
            reload_if_due(result, lifecycle, setup, count)
        result.facts_at_end.append(len(trace.facts))
    result.end_timed_section(round_started, now())
    result.counters = delta(gateway_counters(gateway), before)
    # The staged replay bypasses GatewayConnection, whose counters these are.
    names = [name for _, _, _, name, _, _ in tracer.spans]
    result.counters.update(
        cache_hits=names.count("enforce.cache_lookup_hit"),
        cache_misses=names.count("enforce.cache_lookup_miss"),
        full_checks=names.count("enforce.check_full"),
        template_hits=names.count("enforce.check_template"),
    )
    result.counters.update({f"memo_{k}": v for k, v in memo.memo_stats().items()})
    gateway.close()
    time_direct(result, stream, setup.reference)
    return result


def _staged_select(
    tracer, root, count, db, cache, checker, stmt, args, bindings, param_items, trace,
    missed,
):
    call = tracer.call
    bound = call("sqlir.bind", root, count, bind_parameters, stmt, args, None)
    skeleton = call("sqlir.skeletonize", root, count, skeletonize, bound)
    start = now()
    decision = cache.lookup(
        bound, bindings, trace, skeleton=skeleton, param_items=param_items
    )
    end = now()
    hit = decision is not None
    tracer.add(
        "enforce.cache_lookup_hit" if hit else "enforce.cache_lookup_miss",
        start, end, root, count,
    )
    if not hit:
        missed.append(count)
        templates_before = cache.compiled_hits
        start = now()
        decision = checker.check(bound, bindings, trace, skeleton=skeleton)
        end = now()
        replayed = cache.compiled_hits > templates_before
        tracer.add(
            "enforce.check_template" if replayed else "enforce.check_full",
            start, end, root, count,
        )
        call(
            "enforce.cache_store", root, count,
            cache.store, bound, bindings, decision, skeleton=skeleton,
        )
    if not decision.allowed:
        return PolicyViolation(decision)
    result = call("engine.select", root, count, db.sql, bound)
    query = call("relalg.translate", root, count, checker.translate, bound)
    single = (
        query.disjuncts[0] if query is not None and len(query.disjuncts) == 1 else None
    )
    call("enforce.trace_record", root, count, trace.record, decision.sql, single, result)
    return result


# -- over the wire: the protocol by hand --------------------------------------------

_LENGTH = struct.Struct(">I")  # the protocol's documented 4-byte frame prefix


class TracedWireSession:
    """One wire session with a span around encode, send→receive, decode."""

    def __init__(self, host: str, port: int, bindings: dict, tracer: Tracer):
        self.tracer = tracer
        #: Bytes sent and received since the last reset.
        self.bytes = 0
        self._next_id = 0
        self._sock = connect_with_retry(host, port, 30.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        protocol.write_frame(
            self._sock,
            {
                "type": protocol.HELLO,
                "version": protocol.PROTOCOL_VERSION,
                "bindings": bindings,
                "fresh": True,
            },
        )
        welcome = protocol.read_frame(self._sock)
        if welcome["type"] != protocol.WELCOME:
            raise protocol.NetError(str(welcome.get("error", welcome)))
        self.server_shard_id = welcome.get("shard_id")

    def close(self) -> None:
        try:
            protocol.write_frame(self._sock, {"type": protocol.GOODBYE})
        except OSError:
            pass
        self._sock.close()

    def _receive(self) -> bytes:
        header = self._recv_exactly(_LENGTH.size)
        payload = self._recv_exactly(_LENGTH.unpack(header)[0])
        self.bytes += len(header) + len(payload)
        return payload

    def _recv_exactly(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = self._sock.recv(count - len(chunks))
            if not chunk:
                raise protocol.ConnectionClosed()
            chunks.extend(chunk)
        return bytes(chunks)

    def _message(self, kind: str, **fields) -> dict:
        self._next_id += 1
        return {"type": kind, "id": self._next_id, **fields}

    def _exchange(self, frame: bytes) -> bytes:
        self._sock.sendall(frame)
        self.bytes += len(frame)
        return self._receive()

    def query(self, root: int, stmt: int, sql: str, args: tuple) -> object:
        call = self.tracer.call
        message = self._message(protocol.QUERY, sql=sql, args=list(args), named=None)
        frame = call("net.encode", root, stmt, protocol.encode_frame, message)
        payload = call("net.roundtrip", root, stmt, self._exchange, frame)
        reply = call("net.decode", root, stmt, protocol.decode_payload, payload)
        return to_answer(reply)

    def prepare(self, sql: str) -> int:
        frame = protocol.encode_frame(self._message(protocol.PREPARE, sql=sql))
        reply = protocol.decode_payload(self._exchange(frame))
        if reply["type"] != protocol.PREPARED:
            raise protocol.NetError(str(reply.get("error", reply)))
        return int(reply["handle"])

    def execute_batch(self, root: int, stmt: int, items: list[tuple[int, tuple]]):
        """EXECUTE a batch pipelined: all frames out, then all replies in."""
        call = self.tracer.call
        burst = bytearray()
        for handle, args in items:
            message = self._message(
                protocol.EXECUTE, handle=handle, args=list(args), named=None
            )
            burst += call("net.encode", root, stmt, protocol.encode_frame, message)

        def exchange() -> list[bytes]:
            self._sock.sendall(burst)
            self.bytes += len(burst)
            return [self._receive() for _ in items]

        payloads = call("net.roundtrip", root, stmt, exchange)
        return [
            to_answer(call("net.decode", root, stmt, protocol.decode_payload, payload))
            for payload in payloads
        ]


def to_answer(reply: dict) -> object:
    """A reply frame as the answer ``bench.reference.judge`` understands."""
    kind = reply.get("type")
    if kind == protocol.RESULT:
        if "rowcount" in reply:
            return int(reply["rowcount"])
        return Result(
            columns=list(reply["columns"]), rows=[tuple(row) for row in reply["rows"]]
        )
    if kind == protocol.BLOCKED:
        return PolicyViolation(
            Decision(False, str(reply.get("sql", "")), str(reply.get("reason", "")))
        )
    return protocol.NetError(str(reply.get("error", reply)))


class WireTrace:
    """Traced per-session runners for ``replay.wire_round``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.bytes = 0
        self.connect_seconds: list[float] = []
        self._stmt_ids = itertools.count()

    def _open(self, setup: Setup, session: Session):
        def open_connection() -> TracedWireSession:
            started = now()
            wire = TracedWireSession(
                setup.server.host, setup.server.port, session.bindings, self.tracer
            )
            self.connect_seconds.append(now() - started)
            return wire

        return open_connection

    def classic(self, setup: Setup, session: Session):
        def body(wire, latencies, answers) -> None:
            for sql, args in session.statements:
                root, stmt = self.tracer.new_id(), next(self._stmt_ids)
                started = now()
                answer = wire.query(root, stmt, sql, args)
                ended = now()
                self.tracer.root(root, stmt, started, ended)
                latencies.append(ended - started)
                answers.append(answer)
            self.bytes += wire.bytes

        return on_connection(self._open(setup, session), session, body)

    def pipelined(self, setup: Setup, session: Session):
        def body(wire, latencies, answers) -> None:
            handles = {sql: None for sql, _ in session.statements}
            for sql in handles:
                handles[sql] = wire.prepare(sql)
            # PREPARE traffic is per connection, not per statement.
            wire.bytes = 0
            for batch in batches(session):
                root, stmt = self.tracer.new_id(), next(self._stmt_ids)
                started = now()
                outcomes = wire.execute_batch(
                    root, stmt, [(handles[sql], args) for sql, args in batch]
                )
                ended = now()
                self.tracer.root(root, stmt, started, ended)
                latencies.extend([(ended - started) / len(batch)] * len(batch))
                answers.extend(outcomes)
            self.bytes += wire.bytes

        return on_connection(self._open(setup, session), session, body)


# -- microbenchmarks of single calls -------------------------------------------------


def _median_call_us(fn, argument_sets, repeat: int = 1) -> float:
    seconds = []
    for _ in range(repeat):
        for arguments in argument_sets:
            started = now()
            fn(*arguments)
            seconds.append(now() - started)
    return median_us(seconds)


def micro_metrics(setup: Setup) -> dict[str, float]:
    """Single-call costs no round isolates (uncached parse, prepare,
    prepared bind, policy compile, connect, snapshot, ping, wire connect)."""
    stream = setup.stream
    db = stream.make_database()
    statements = [s for session in stream.timed for s in session.statements]
    texts = sorted({sql for sql, _ in statements})
    plans = {sql: db.prepare(sql) for sql in texts}

    def prepared_bind(sql: str, args: tuple) -> None:
        plan = plans[sql]
        plan.bind(args, None)
        plan.skeleton_for(args, None)

    metrics = {
        "sqlir.parse_us": _median_call_us(parse_sql, [(t,) for t in texts], repeat=5),
        "sqlir.prepare_us": _median_call_us(db.prepare, [(t,) for t in texts], repeat=5),
        "sqlir.prepared_bind_us": _median_call_us(prepared_bind, statements[:600]),
        "relalg.compile_policy_ms": _median_call_us(
            compile_policy, [(db.schema, setup.policy)] * 5
        )
        / 1e3,
    }
    if setup.server is None:
        gateway = EnforcementGateway(db, setup.policy, GatewayConfig())
        for session in stream.warmup[:1]:
            _replay_untimed(gateway.connect(session.bindings, fresh=True), session)
        users = [(s.bindings, True) for s in stream.timed] * 10
        metrics["serve.connect_us"] = _median_call_us(gateway.connect, users[:60])
        metrics["serve.snapshot_ms"] = (
            _median_call_us(gateway.snapshot, [()] * 5) / 1e3
        )
        gateway.close()
        return metrics
    server = setup.server
    user = stream.timed[0].user

    def ping_us(port: int) -> float:
        connection = NetClientConnection(server.host, port, user=user, fresh=True)
        try:
            return median_us([connection.ping() for _ in range(300)][50:])
        finally:
            connection.close()

    if server.shard_ports:
        metrics["cluster.ping_us"] = ping_us(server.port)
        metrics["net.ping_us"] = ping_us(server.shard_ports[0])
        metrics["cluster.router_hop_us"] = (
            metrics["cluster.ping_us"] - metrics["net.ping_us"]
        )
    else:
        metrics["net.ping_us"] = ping_us(server.port)
    return metrics


# -- assembling the per-layer metrics -----------------------------------------------


def _stage_mean_us(counters: dict, stage: str) -> float:
    count = counters.get(f"stage_{stage}_count", 0)
    return counters.get(f"stage_{stage}_seconds", 0.0) / count * 1e6 if count else 0.0


def _gateway_stages_us(counters: dict) -> float:
    """What the gateway's own parse + check + execute stages add up to."""
    return sum(_stage_mean_us(counters, s) for s in ("parse", "check", "execute"))


def last_fifth_slowdown(setup: Setup, latencies: list[float]) -> float:
    """Mean latency of each session's last fifth over its first fifth."""
    first = last = 0.0
    offset = 0
    for session in setup.stream.timed:
        n = len(session.statements)
        fifth = max(1, n // 5)
        first += sum(latencies[offset : offset + fifth])
        last += sum(latencies[offset + n - fifth : offset + n])
        offset += n
    return last / first if first else 0.0


def misses_after_reloads(traced: Round, window: int = 50) -> float:
    """Full checks + template replays in the ``window`` statements after
    each reload — the re-derivation a reload causes (plus the writes that
    fall in the window)."""
    if not traced.reload_points:
        return 0.0
    total = 0
    for point in traced.reload_points:
        total += sum(1 for index in traced.missed if point <= index < point + window)
    return total / len(traced.reload_points)


def layer_metrics(
    setup: Setup, tracer: Tracer, traced: Round, untraced: Round, micro: dict,
    wire: WireTrace | None,
) -> dict[str, float]:
    """Every per-layer metric of one (untraced, traced) pair of rounds."""
    by_name = tracer.durations()
    statements = len(traced.latencies)
    counters = traced.counters
    inproc = setup.server is None
    m: dict[str, float] = dict(micro)

    for name in SPAN_NAMES:
        if name in by_name:
            m[f"{name}_us"] = median_us(by_name[name])
    if "enforce.check_full" in by_name:
        m["enforce.check_full_p99_us"] = percentile(by_name["enforce.check_full"], 0.99) * 1e6
    if not inproc:
        # The server's own stage histograms stand in for the spans the
        # benchmark cannot record inside another process.
        m["sqlir.parse_cached_us"] = _stage_mean_us(counters, "parse")
        m["engine.select_us"] = _stage_mean_us(counters, "execute")
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    m["enforce.cache_hit_rate"] = counters["cache_hits"] / lookups
    m["enforce.full_checks"] = counters["full_checks"]
    m["enforce.template_hits"] = counters["template_hits"]
    if untraced.facts_at_end:
        m["enforce.trace_facts_end"] = max(untraced.facts_at_end)
    memo_lookups = sum(
        v for k, v in counters.items()
        if k.startswith("memo_") and k.endswith(("_hits", "_misses"))
    )
    memo_hits = sum(
        v for k, v in counters.items() if k.startswith("memo_") and k.endswith("_hits")
    )
    if memo_lookups:
        m["relalg.memo_hit_rate"] = memo_hits / memo_lookups
    containment = counters.get("memo_containment_hits", 0) + counters.get(
        "memo_containment_misses", 0
    )
    if inproc and m["enforce.full_checks"]:
        m["relalg.containment_calls_per_check"] = containment / m["enforce.full_checks"]
    m["engine.direct_stmt_us"] = median_us(untraced.direct)
    m["engine.rows_per_select"] = statistics.fmean(
        len(a.rows) for a in untraced.answers if isinstance(a, Result)
    )

    untraced_p50 = median_us(untraced.latencies)
    staged_p50 = median_us(traced.latencies)  # per statement, also when pipelined
    stage_sum = _gateway_stages_us(untraced.counters)
    m["serve.decide_us"] = _stage_mean_us(untraced.counters, "check")
    if inproc:
        m["serve.sql_us"] = untraced_p50
        m["serve.self_us"] = untraced_p50 - staged_p50
    else:
        m["serve.sql_us"] = stage_sum
        m["serve.self_us"] = _stage_mean_us(untraced.counters, "net_request") - stage_sum
    writes = [
        latency
        for latency, (sql, _) in zip(
            untraced.latencies,
            (s for session in setup.stream.timed for s in session.statements),
        )
        if not sql.startswith("SELECT")
    ]
    if writes:
        m["serve.write_us"] = median_us(writes)
    m["serve.stripe_contention"] = untraced.counters["stripe_contention"]
    if untraced.counters["batches"]:
        m["serve.batch_gt1_share"] = (
            untraced.counters["batches_gt1"] / untraced.counters["batches"]
        )
    m["serve.last_fifth_slowdown"] = last_fifth_slowdown(setup, untraced.latencies)

    if wire is not None:
        if setup.workload.mode == "pipelined":
            m["net.execute_pipelined_us"] = median_us(traced.latencies)
        else:
            m["net.query_rtt_us"] = median_us(traced.latencies)
            m["net.wire_tax_us"] = m["net.query_rtt_us"] - _gateway_stages_us(counters)
        m["net.bytes_per_stmt"] = wire.bytes / statements
        m["net.connect_ms"] = statistics.median(wire.connect_seconds) * 1e3
        m["net.shed"] = counters["shed"] + untraced.counters["shed"]
    if traced.shard_statements:
        shares = list(traced.shard_statements.values())
        # One silent shard is the worst imbalance there is.
        m["cluster.shard_imbalance"] = max(shares) / min(shares) if len(shares) > 1 else 99.0
        m["cluster.templates_applied"] = counters["templates_applied"]
    if traced.reload_reports:
        reports = traced.reload_reports
        m["lifecycle.reload_ms"] = statistics.median(traced.reload_seconds) * 1e3
        m["lifecycle.compile_ms"] = statistics.median(r.compile_s for r in reports) * 1e3
        m["lifecycle.swap_pause_us"] = statistics.median(r.swap_pause_s for r in reports) * 1e6
        m["lifecycle.misses_per_reload"] = misses_after_reloads(traced)
    m["trace.coverage"] = staged_p50 / untraced_p50
    m["trace.overhead_share"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    return m


def budget_table(tracer: Tracer, statements: int) -> list[str]:
    """The per-stage budget: where a traced statement's time went."""
    by_name = tracer.durations()
    root_total = sum(tracer.root_durations())
    lines = [f"{'stage (self time)':34} {'calls':>7} {'median us':>10} {'us/stmt':>9} {'share':>7}"]
    order = sorted(by_name, key=lambda name: -sum(by_name[name]))
    for name in order:
        values = by_name[name]
        label = "(staged glue + span cost)" if name == ROOT else name
        lines.append(
            f"{label:34} {len(values):7d} {median_us(values):10.1f}"
            f" {sum(values) / statements * 1e6:9.1f}"
            f" {sum(values) / root_total if root_total else 0.0:7.1%}"
        )
    return lines
