"""E18 — Shaving the hit path: prepared handles and pipelining.

Three questions about the PR-9 fast path (``repro.sqlir.prepared``, the
precomputed-skeleton cache probe, the pipelined wire protocol; the lock
stripes that arrived with it were measured against one lock and removed
— EXPERIMENTS.md "E18 — stripes"):

1. **E18a — where the microseconds go.** The per-request hit path is
   parse → bind+skeletonize → cache probe → wire round trip. The
   prepared path hoists the first stage entirely (paid once at
   PREPARE), replaces the second with slot substitution, hands the
   third a precomputed skeleton, and amortizes the fourth across a
   pipeline window. The table shows µs/op per stage, classic vs
   prepared, plus the one-time plan-construction cost being amortized.

2. **E18b — single-connection cached-hit throughput.** One client, one
   TCP connection, one hot statement shape that is a shared-cache hit:
   classic sequential QUERY round trips vs pipelined EXECUTE, in
   alternated passes. The acceptance bar: the pipelined path decides
   no slower than round trips — median per-pass ratio >= 1.0. Against
   the asyncio server the bar was >= 2x (2.07x measured), because every
   classic statement paid a loop->pool thread hop that a pipelined
   burst paid once. The thread-per-connection server has no hop: on
   one box, back to back, classic went 460 -> 247 us/req while
   pipelined stayed at ~215 on both servers. Client and server share a
   GIL here, so what pipelining still saves is the per-statement socket
   wake-up, 1.15-1.2x; single passes read 0.8-1.9x, which is why the
   verdict is a median and not one pass per side.

3. **E18c — decision fidelity across a hot reload.** The same >= 500
   statement calendar stream replayed twice over the wire — classic
   QUERY-per-statement and prepared/pipelined — with a policy hot
   reload fired mid-replay on both. Every (sql, bindings, allow/block,
   rows) outcome must agree, and the prepared replay must actually
   cross the reload on stale handles (re-prepares observed), not dodge
   it.

``E18_QUICK=1`` shrinks sizes for the CI perf-smoke leg. Marked
``slow``.
"""

import os
import random
import statistics
import time

import pytest

from repro.bench.harness import print_table
from repro.enforce.cache import DecisionCache
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.lifecycle import LifecycleManager
from repro.net import (
    AdminClient,
    BackgroundServer,
    NetClientConnection,
    ServerConfig,
)
from repro.policy import policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_sql
from repro.sqlir.prepared import prepare_plan
from repro.sqlir.skeleton import skeletonize
from repro.workloads import calendar_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E18_QUICK", "") not in ("", "0")

#: The hot shape every leg hammers: session-local (V1), so it is a
#: shared-cache hit independent of trace history.
HOT_SHAPE = "SELECT EId FROM Attendance WHERE UId = ?"


def make_gateway(**config) -> EnforcementGateway:
    db = calendar_app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    policy = calendar_app.make_app().ground_truth_policy()
    return EnforcementGateway(db, policy, GatewayConfig(**config))


def stage_us(fn, iters: int) -> float:
    fn()  # warm once outside the measured pass
    started = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - started) / iters * 1e6


# --------------------------------------------------------------------------
# E18a — per-stage hit-path breakdown
# --------------------------------------------------------------------------


def stage_breakdown(iters: int):
    statement = parse_sql(HOT_SHAPE)
    plan = prepare_plan(statement, HOT_SHAPE)
    args = [1]

    parse_classic = stage_us(lambda: parse_sql(HOT_SHAPE), iters)
    prepare_once = stage_us(
        lambda: prepare_plan(parse_sql(HOT_SHAPE), HOT_SHAPE), max(iters // 4, 50)
    )

    skel_classic = stage_us(
        lambda: skeletonize(bind_parameters(statement, args)), iters
    )
    skel_prepared = stage_us(lambda: plan.skeleton_for(args), iters)

    # Cache probe: one gateway-shaped DecisionCache holding the template
    # the hot shape matches; classic probes re-skeletonize per lookup,
    # the prepared probe hands the precomputed skeleton + sorted session
    # bindings in.
    from repro.enforce.proxy import EnforcementProxy, ProxyConfig, Session

    policy = calendar_app.make_app().ground_truth_policy()
    db = calendar_app.make_database(size=8, seed=3)
    session = Session.for_user(1)
    cache = DecisionCache(policy)
    proxy = EnforcementProxy(db, policy, session, ProxyConfig(cache=cache))
    proxy.sql(HOT_SHAPE, args)  # derive + store the template
    bound = bind_parameters(statement, args)
    bindings = session.bindings
    param_items = sorted(bindings.items())
    trace = Trace()
    assert cache.lookup(bound, bindings, trace) is not None, "probe must hit"
    probe_classic = stage_us(lambda: cache.lookup(bound, bindings, trace), iters)
    skeleton = plan.skeleton_for(args)
    probe_prepared = stage_us(
        lambda: cache.lookup(
            bound, bindings, trace, skeleton=skeleton, param_items=param_items
        ),
        iters,
    )

    rows = [
        ("parse", round(parse_classic, 2), 0.0, "hoisted into PREPARE"),
        ("bind+skeletonize", round(skel_classic, 2), round(skel_prepared, 2),
         "slot substitution"),
        ("cache probe", round(probe_classic, 2), round(probe_prepared, 2),
         "skeleton handed in"),
        ("prepare (one-time)", "-", round(prepare_once, 2), "amortized over executes"),
    ]
    return rows, {
        "parse": parse_classic,
        "skel": (skel_classic, skel_prepared),
        "probe": (probe_classic, probe_prepared),
    }


# --------------------------------------------------------------------------
# E18b — single-connection cached-hit throughput, classic vs pipelined
# --------------------------------------------------------------------------


#: E18b's bar on the median per-pass ratio classic time / pipelined time.
E18B_BAR = 1.0
E18B_PASSES = 7


def wire_throughput(n_requests: int, rounds: int = E18B_PASSES, window: int = 64):
    """``rounds`` alternated passes of ``n_requests`` in each mode on one
    connection. Everything reported is a median across the rounds and
    the speedup is the median of the per-round ratios, so a stall that
    lands on one pass cannot decide the verdict."""
    classic_s: list[float] = []
    pipelined_s: list[float] = []
    background = BackgroundServer(make_gateway(), ServerConfig(port=0)).start()
    try:
        connection = NetClientConnection(background.host, background.port, user=1)
        prepared = connection.prepare(HOT_SHAPE)
        for _ in range(20):  # warm: template derived, shared-cache hot
            connection.query(HOT_SHAPE, [1])
        connection.pipeline([(prepared, [1])] * 20, window=window)
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(n_requests):
                connection.query(HOT_SHAPE, [1])
            classic_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            outcomes = connection.pipeline(
                [(prepared, [1])] * n_requests, window=window
            )
            pipelined_s.append(time.perf_counter() - started)
            assert all(isinstance(outcome, Result) for outcome in outcomes)
        connection.close()
    finally:
        background.stop()
    classic, pipelined = statistics.median(classic_s), statistics.median(pipelined_s)
    ratios = sorted(c / p for c, p in zip(classic_s, pipelined_s))
    return {
        "classic_us": classic / n_requests * 1e6,
        "pipelined_us": pipelined / n_requests * 1e6,
        "classic_rps": n_requests / classic,
        "pipelined_rps": n_requests / pipelined,
        "speedup": statistics.median(ratios),
        "speedup_range": (ratios[0], ratios[-1]),
    }


# --------------------------------------------------------------------------
# E18c — prepared/pipelined vs classic fidelity across a hot reload
# --------------------------------------------------------------------------

#: Mixed stream: probes that certify facts (events 2 and 5 are user 1's;
#: 99 is nobody's), history-dependent Events reads whose allow/block
#: depends on exactly which probes ran *before them in the session* —
#: the shapes where an ordering bug in the pipelined path would show up
#: as a decision flip — plus always-blocked other-user reads. The value
#: ranges are deliberately narrow: checker cost grows steeply with
#: certified trace facts, so realistic replay means short sessions over
#: a small hot set, not one endless session (the stock workload streams
#: are built the same way).
SHAPE_POOL = [
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
     lambda rng: [1, rng.choice((2, 5, 99))]),
    ("SELECT * FROM Events WHERE EId = ?", lambda rng: [rng.choice((2, 5, 7, 9))]),
    ("SELECT Title, Loc FROM Events WHERE EId = ?",
     lambda rng: [rng.choice((2, 5, 7, 9))]),
    ("SELECT Name FROM Users WHERE UId = ?", lambda rng: [rng.randint(1, 4)]),
    (HOT_SHAPE, lambda rng: [rng.randint(2, 4)]),
]

#: Statements per session (one fresh wire session per segment) and the
#: pipeline chunk size — two chunks per session, so the mid-replay
#: reload can land *between* a session's chunks, while its prepared
#: handles are live.
SESSION_LEN = 12
CHUNK = SESSION_LEN // 2


def statement_stream(n: int, seed: int = 18):
    rng = random.Random(seed)
    stream = []
    for _ in range(n):
        sql, gen = SHAPE_POOL[rng.randrange(len(SHAPE_POOL))]
        stream.append((sql, gen(rng)))
    return stream


def lifecycle_server() -> BackgroundServer:
    gateway = make_gateway()
    lifecycle = LifecycleManager(gateway)
    return BackgroundServer(
        gateway, ServerConfig(port=0), lifecycle=lifecycle
    ).start()


def fire_reload(background: BackgroundServer) -> None:
    # Same policy text, new version: semantics identical on both paths,
    # but every prepared handle goes stale and must re-prepare.
    text = policy_to_text(calendar_app.make_app().ground_truth_policy())
    with AdminClient(background.host, background.port, timeout_s=30.0) as operator:
        operator.reload(text, provenance="patched", label="e18-midstream")


def outcome_key(sql, args, outcome):
    if isinstance(outcome, Result):
        return (sql, tuple(args), "ok", tuple(sorted(outcome.rows)))
    if isinstance(outcome, PolicyViolation):
        return (sql, tuple(args), "blocked", None)
    return (sql, tuple(args), "error", repr(outcome))


def run_classic(stream, reload_at: int):
    background = lifecycle_server()
    try:
        outcomes = []
        for start in range(0, len(stream), SESSION_LEN):
            connection = NetClientConnection(
                background.host, background.port, user=1, fresh=True
            )
            for offset, (sql, args) in enumerate(stream[start:start + SESSION_LEN]):
                if start + offset == reload_at:
                    fire_reload(background)
                try:
                    outcomes.append(
                        outcome_key(sql, args, connection.query(sql, args))
                    )
                except PolicyViolation as blocked:
                    outcomes.append(outcome_key(sql, args, blocked))
            connection.close()
        version = background.server.gateway.policy_version
    finally:
        background.stop()
    return outcomes, version


def run_prepared(stream, reload_at: int):
    shapes = [sql for sql, _ in SHAPE_POOL]
    background = lifecycle_server()
    try:
        outcomes = []
        for start in range(0, len(stream), SESSION_LEN):
            connection = NetClientConnection(
                background.host, background.port, user=1, fresh=True
            )
            # Handles are prepared at session start; the mid-replay
            # reload lands between this session's chunks, so they are
            # stale for the second chunk and must transparently
            # re-prepare.
            plans = {sql: connection.prepare(sql) for sql in shapes}
            for chunk_start in range(start, start + SESSION_LEN, CHUNK):
                if chunk_start == reload_at:
                    fire_reload(background)
                batch = stream[chunk_start:min(chunk_start + CHUNK, len(stream))]
                replies = connection.pipeline(
                    [(plans[sql], args) for sql, args in batch]
                )
                outcomes.extend(
                    outcome_key(sql, args, reply)
                    for (sql, args), reply in zip(batch, replies)
                )
            connection.close()
        prepares = background.server.metrics.counter("statements_prepared")
        stale_refusals = background.server.metrics.counter("prepared_stale")
        sessions = (len(stream) + SESSION_LEN - 1) // SESSION_LEN
        version = background.server.gateway.policy_version
    finally:
        background.stop()
    return outcomes, version, prepares - sessions * len(shapes), stale_refusals


def fidelity(n_statements: int):
    # The reload fires between the middle session's two pipeline chunks:
    # that session prepared its handles before the swap and pipelines
    # EXECUTEs after it, so the stale path is crossed by construction.
    # Both replays swap at exactly the same statement index.
    sessions = n_statements // SESSION_LEN
    reload_at = (sessions // 2) * SESSION_LEN + CHUNK
    stream = statement_stream(n_statements)
    classic, classic_version = run_classic(stream, reload_at)
    prepared, prepared_version, reprepares, stale = run_prepared(stream, reload_at)
    disagreements = sum(1 for a, b in zip(classic, prepared) if a != b)
    rows = [
        ("classic QUERY", n_statements,
         sum(1 for key in classic if key[2] == "ok"),
         sum(1 for key in classic if key[2] == "blocked"),
         classic_version, "-", "-"),
        ("prepared+pipelined", n_statements,
         sum(1 for key in prepared if key[2] == "ok"),
         sum(1 for key in prepared if key[2] == "blocked"),
         prepared_version, reprepares, stale),
    ]
    return rows, disagreements, reprepares, stale, classic, prepared


# --------------------------------------------------------------------------


def test_e18_hitpath(benchmark, capsys):
    stage_iters = 500 if QUICK else 4000
    wire_requests = 200 if QUICK else 1000  # per pass
    replay_n = 520 if QUICK else 1200

    stage_rows, stages = stage_breakdown(stage_iters)
    wire = wire_throughput(wire_requests)
    stage_rows.append(
        ("wire round trip", round(wire["classic_us"], 2),
         round(wire["pipelined_us"], 2), "pipelined, window=64")
    )
    fidelity_rows, disagreements, reprepares, stale, classic, prepared = fidelity(
        replay_n
    )

    # The measured pass for the benchmark fixture: one prepared EXECUTE
    # round trip on a warm connection.
    with BackgroundServer(make_gateway(), ServerConfig(port=0)) as background:
        connection = NetClientConnection(background.host, background.port, user=1)
        handle = connection.prepare(HOT_SHAPE)
        connection.execute(handle, [1])
        benchmark.pedantic(
            lambda: connection.execute(handle, [1]), rounds=20, iterations=5
        )
        connection.close()

    with capsys.disabled():
        print_table(
            "E18a",
            "hit-path budget per stage (microseconds per op)",
            ["stage", "classic us", "prepared us", "note"],
            stage_rows,
        )
        print_table(
            "E18b",
            f"single-connection cached-hit throughput (medians of {E18B_PASSES}"
            " alternated passes)",
            ["mode", "requests/pass", "us/req", "req/s", "speedup"],
            [
                ("classic sequential", wire_requests,
                 round(wire["classic_us"], 1), round(wire["classic_rps"]), 1.0),
                ("pipelined prepared", wire_requests,
                 round(wire["pipelined_us"], 1), round(wire["pipelined_rps"]),
                 round(wire["speedup"], 2)),
            ],
        )
        low, high = wire["speedup_range"]
        print(f"E18b per-pass speedups: {low:.2f}x - {high:.2f}x")
        print_table(
            "E18c",
            "replayed decisions across a hot reload, classic vs prepared",
            ["path", "decisions", "ok", "blocked", "policy version",
             "re-prepares", "stale refusals"],
            fidelity_rows,
        )
        print(f"E18c disagreements: {disagreements}")

    # E18a: the prepared path strictly shrinks every per-request stage.
    assert stages["skel"][1] < stages["skel"][0]
    assert stages["probe"][1] < stages["probe"][0]
    # E18b: the acceptance bar — on one connection a pipelined burst of
    # cached hits is decided faster than the same hits as round trips.
    assert wire["speedup"] >= E18B_BAR, (
        f"median pipelined speedup {wire['speedup']:.2f}x < {E18B_BAR}x"
    )
    # E18c: >= 500 replayed decisions, zero (sql, bindings, allow/block)
    # disagreements, and the reload really crossed the prepared path.
    assert len(classic) == len(prepared) >= 500
    assert disagreements == 0
    assert reprepares > 0 and stale > 0
    assert not any(key[2] == "error" for key in prepared)
