"""Seeded statement streams for the seven benchmark workloads.

The unit of work is one *statement* (SQL text + positional args sent by
one session). Streams are recorded once at set-up by running the stock
``WorkloadApp.request_stream`` handlers through a recording
``Connection`` wrapper, so the handler interpreter is not part of what a
round measures and the same stream can be replayed in-process, over the
wire, pipelined and through the cluster. The program under test only
ever receives the statements built here; the same seed gives
byte-identical streams (see ``Stream.digest``).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

from repro.cluster.router import shard_index_for
from repro.enforce.baselines import DirectConnection
from repro.extract.handlers import run_handler
from repro.workloads import calendar_app, social

Statement = tuple[str, tuple]

APPS = {"calendar": calendar_app, "social": social}
#: The apps' own default data seeds (``make_database``'s defaults).
DATA_SEEDS = {"calendar": 7, "social": 17}

#: Statements per recorded session of the hit stream (at least: a
#: session ends with a whole request) and the number of sessions.
#: 12 x 100 keeps every round at >= 1200 timed statements, so >= 12
#: samples lie beyond p99.
HIT_SESSION_LEN = 100
HIT_SESSIONS = 12

#: inproc_miss: sessions of 8 statements keep traces at <= ~10 facts.
MISS_SESSION_LEN = 8  # 2 blocked probes + 1 one-row guard + 5 allowed shapes
MISS_WARMUP_SESSIONS = 25
MISS_TIMED_SESSIONS = 150

#: inproc_churn: a data-identity UPDATE after every 5th statement of a
#: session, an identity hot reload after every 400 timed statements
#: (placed by statement count, not by timer).
CHURN_WRITE_EVERY = 5
CHURN_RELOAD_EVERY = 400

#: inproc_long_session: social at 60 users fills a 256-fact trace within
#: ~250-500 statements, so 600 per session runs the last half at the cap.
LONG_SIZE = 60
LONG_SESSION_LEN = 600
LONG_TIMED_SESSIONS = 2
LONG_WARMUP_SESSIONS = 5
#: The seed reorders requests only within blocks of 3. A hit on a
#: history-dependent template tries that skeleton's variants in the order
#: they were learned, so the global order of a long session decides what
#: a *hit* costs: fully shuffled, the same requests ran at a p50 of
#: 254-768 us depending on the seed; within blocks of 3 the seeds agree.
LONG_SHUFFLE_WINDOW = 3


@dataclass(frozen=True)
class Session:
    """One principal's statements, replayed in order on one connection."""

    user: int
    statements: tuple[Statement, ...]

    @property
    def bindings(self) -> dict[str, object]:
        return {"MyUId": self.user}


@dataclass(frozen=True)
class Stream:
    """Everything a round replays: which app/data, and which statements."""

    app: str
    size: int
    #: Seed of the *statements*. The database is the app's stock one
    #: (``DATA_SEEDS``) for every seed, so streams of different seeds
    #: differ in order and parameters but not in what the data costs.
    seed: int
    warmup: tuple[Session, ...]
    timed: tuple[Session, ...]
    #: Identity hot reload after every this many timed statements (0: never).
    reload_every: int = 0

    @property
    def statements(self) -> int:
        return sum(len(session.statements) for session in self.timed)

    @property
    def digest(self) -> str:
        """Content hash of the whole stream (provenance; determinism test)."""
        body = json.dumps(
            [
                self.app,
                self.size,
                self.seed,
                self.reload_every,
                [[s.user, s.statements] for s in self.warmup],
                [[s.user, s.statements] for s in self.timed],
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def make_app(self):
        return APPS[self.app].make_app()

    @property
    def data_seed(self) -> int:
        return DATA_SEEDS[self.app]

    def make_database(self):
        return self.make_app().make_database(self.size, self.data_seed)


class RecordingConnection:
    """A ``Connection`` that notes every statement it forwards."""

    def __init__(self, inner, log: list[Statement]):
        self._inner = inner
        self._log = log

    def sql(self, sql, args=(), named=None):
        self._log.append((sql, tuple(args)))
        return self._inner.sql(sql, args, named)

    def query(self, sql, args=(), named=None):
        self._log.append((sql, tuple(args)))
        return self._inner.query(sql, args, named)

    def close(self) -> None:
        self._inner.close()


#: Seed of the request *pool*. Which requests a session makes is drawn
#: once, from the app's stock ``request_stream`` with this fixed seed; the
#: benchmark's ``--seed`` then decides the order they are made in. So
#: every seed replays the same multiset of requests (the same work, the
#: same statement count) in another order, and run-to-run spread measures
#: the machine and the program, not how heavy a seed's draw happened to be
#: (with freely drawn requests two seeds in ten cost ~15 % more in p99 and
#: throughput than the rest).
POOL_SEED = 20230622


def request_pool(app, db, users, length: int) -> dict[int, list[tuple[Statement, ...]]]:
    """For each of ``users``, requests from the app's stock stream — each
    as the statements its handler issues — until the session holds at
    least ``length`` statements (requests of other users are skipped)."""
    rng = random.Random(POOL_SEED)
    pool: dict[int, list[tuple[Statement, ...]]] = {user: [] for user in users}
    size = dict.fromkeys(users, 0)
    direct = DirectConnection(db)
    while any(count < length for count in size.values()):
        for request in app.request_stream(db, rng, 50 * db.row_count("Users")):
            user = request.session["user_id"]
            if size.get(user, length) >= length:
                continue
            log: list[Statement] = []
            run_handler(
                app.handlers[request.handler],
                RecordingConnection(direct, log),
                request.params,
                request.session,
            )
            pool[user].append(tuple(log))
            size[user] += len(log)
    return pool


def seeded_sessions(
    pool, users, rng: random.Random, window: int | None = None
) -> list[Session]:
    """One session per user: its pooled requests in a seeded order (a
    request's statements stay together, guard query before fetch).
    ``window`` limits the reordering to consecutive blocks of that many
    requests; ``None`` shuffles the whole session."""
    sessions = []
    for user in users:
        requests = list(pool[user])
        ordered: list = []
        step = window or len(requests)
        for start in range(0, len(requests), step):
            block = requests[start : start + step]
            rng.shuffle(block)
            ordered.extend(block)
        sessions.append(Session(user, tuple(s for request in ordered for s in request)))
    return sessions


def _balanced_users(size: int) -> list[int]:
    """User ids ordered so consecutive sessions alternate between the two
    shards a 2-shard cluster hashes them to (``shard_index_for``); the
    same order is used by every workload that shares the hit stream."""
    by_shard: dict[int, list[int]] = {0: [], 1: []}
    for user in range(1, size + 1):
        by_shard[shard_index_for({"MyUId": user}, 2)].append(user)
    order: list[int] = []
    for pair in zip(by_shard[0], by_shard[1]):
        order.extend(pair)
    return order


def hit_stream(seed: int) -> Stream:
    """Calendar stock stream: ~10 templates, hit rate >= 0.99 once warm."""
    app = calendar_app.make_app()
    size = app.default_size
    db = app.make_database(size, DATA_SEEDS["calendar"])
    users = _balanced_users(size)[:HIT_SESSIONS]
    pool = request_pool(app, db, users, HIT_SESSION_LEN)
    sessions = tuple(seeded_sessions(pool, users, random.Random(seed)))
    # The warm-up is the timed traffic itself (on fresh sessions): which
    # variant of a history-dependent template a statement needs depends on
    # the facts its session holds by then, so only the same sessions in
    # the same order teach the cache every variant the timed pass will ask
    # for. With other users as warm-up 2-12 statements per round (by
    # seed) fell through to 7 ms full checks, right at the p99 boundary.
    return Stream(app="calendar", size=size, seed=seed, warmup=sessions, timed=sessions)


_IDENTITY_WRITES = (
    "UPDATE Users SET Name = Name WHERE UId = ?",
    "UPDATE Attendance SET EId = EId WHERE UId = ?",
    "UPDATE Events SET Title = Title WHERE EId = ?",
)


def churn_stream(seed: int) -> Stream:
    """The hit stream with identity writes and reloads interleaved (the
    warm-up is the plain hit stream: no writes, no reloads)."""
    base = hit_stream(seed)

    def with_writes(session: Session, offset: int) -> Session:
        statements: list[Statement] = []
        for index, statement in enumerate(session.statements, start=1):
            statements.append(statement)
            if index % CHURN_WRITE_EVERY == 0:
                write = _IDENTITY_WRITES[(offset + index) % len(_IDENTITY_WRITES)]
                statements.append((write, (session.user,)))
        return Session(session.user, tuple(statements))

    return Stream(
        app=base.app,
        size=base.size,
        seed=seed,
        warmup=base.timed,
        timed=tuple(with_writes(s, i) for i, s in enumerate(base.timed)),
        reload_every=CHURN_RELOAD_EVERY,
    )


# inproc_miss statement shapes. Every one carries an order comparison, so
# its literal is *pinned* in the decision template and a fresh literal is
# a fresh full check. Blocked probes sit at positions 0 and 2 only: a
# blocked check costs ~0.5 ms on an empty trace, ~3 ms with one fact and
# grows ~8x per further fact, so later probes would turn p99 into three
# outliers (measured: 90-200 ms at 3 facts, >1 s at 4).
_MISS_BLOCKED = (
    ("SELECT {cols} FROM Attendance WHERE UId = ? AND EId > ?", "other"),
    ("SELECT Title FROM Events WHERE Time > ?", None),
    ("SELECT Name FROM Users WHERE UId > ?", None),
)
_MISS_ONE_FACT = "SELECT EId FROM Attendance WHERE UId = ? AND EId = ? AND EId > ?"
# (template, literal shift): literals are drawn from 1..6000, so a shift
# of -3000 spreads them around the data and +100 keeps ``UId = u AND
# UId < k`` satisfiable (an unsatisfiable query is blocked, not allowed).
_MISS_ALLOWED = (
    ("SELECT {cols} FROM Attendance WHERE UId = ? AND EId > ?", -3000),
    ("SELECT {cols} FROM Attendance WHERE UId = ? AND EId < ?", -3000),
    (
        "SELECT {ecols} FROM Events e JOIN Attendance a ON e.EId = a.EId"
        " WHERE a.UId = ? AND e.Time > ?",
        -3000,
    ),
    (
        "SELECT {ecols} FROM Events e JOIN Attendance a ON e.EId = a.EId"
        " WHERE a.UId = ? AND e.EId < ?",
        -3000,
    ),
    ("SELECT {ucols} FROM Users WHERE UId = ? AND UId < ?", 100),
)
_COLS = ("EId", "UId, EId", "EId, UId", "*")
_ECOLS = ("*", "e.EId, e.Title", "e.Title, e.Time", "e.Loc", "e.EId, e.Time")
_UCOLS = ("Name", "*", "UId, Name")


def miss_stream(seed: int) -> Stream:
    """Generated calendar statements whose pinned literals never repeat."""
    app = calendar_app.make_app()
    size = app.default_size
    db = app.make_database(size, DATA_SEEDS["calendar"])
    rng = random.Random(seed)
    attended: dict[int, list[int]] = {}
    for uid, eid in db.query("SELECT UId, EId FROM Attendance").rows:
        attended.setdefault(uid, []).append(eid)
    total = (MISS_WARMUP_SESSIONS + MISS_TIMED_SESSIONS) * MISS_SESSION_LEN
    # One never-repeating literal per statement; warm-up and timed
    # statements are disjoint, so warm-up warms the interpreter only.
    literals = iter(rng.sample(range(1, 6001), total))

    def shape(template: str, index: int) -> str:
        return template.format(
            cols=_COLS[index % len(_COLS)],
            ecols=_ECOLS[index % len(_ECOLS)],
            ucols=_UCOLS[index % len(_UCOLS)],
        )

    def blocked(user: int, index: int) -> Statement:
        template, who = _MISS_BLOCKED[index % len(_MISS_BLOCKED)]
        k = next(literals) - 3000
        if who == "other":
            return shape(template, index), (user % size + 1, k)
        return shape(template, index), (k,)

    def session_for(user: int, index: int) -> Session:
        """Every session has the same shapes (so every seed does the same
        work); the seed picks the literals, the event and the order of
        the five allowed statements."""
        statements = [blocked(user, index)]
        # Exactly one row, so exactly one certified fact before the
        # second probe. The comparison literal is below every event id.
        event = rng.choice(attended[user])
        statements.append((_MISS_ONE_FACT, (user, event, -next(literals))))
        statements.append(blocked(user, index + 1))
        allowed = list(enumerate(_MISS_ALLOWED))
        rng.shuffle(allowed)
        for position, (template, shift) in allowed:
            statements.append(
                (shape(template, index + position), (user, next(literals) + shift))
            )
        return Session(user, tuple(statements))

    users = sorted(attended)
    sessions = [
        session_for(users[index % len(users)], index)
        for index in range(MISS_WARMUP_SESSIONS + MISS_TIMED_SESSIONS)
    ]
    return Stream(
        app="calendar",
        size=size,
        seed=seed,
        warmup=tuple(sessions[:MISS_WARMUP_SESSIONS]),
        timed=tuple(sessions[MISS_WARMUP_SESSIONS:]),
    )


def long_stream(seed: int) -> Stream:
    """Social stock stream for a few principals whose sessions never end.

    The timed principals are the two users with the most friends: their
    reachable fact universe is the largest, so at least one of them
    reaches the 256-fact trace cap (checked as a workload property).
    """
    app = social.make_app()
    db = app.make_database(LONG_SIZE, DATA_SEEDS["social"])
    friends = Counter(row[0] for row in db.query("SELECT UId1 FROM Friendships").rows)
    ranked = sorted(friends, key=lambda user: (-friends[user], user))
    timed_users = ranked[:LONG_TIMED_SESSIONS]
    warm_users = ranked[-LONG_WARMUP_SESSIONS:]
    rng = random.Random(seed)
    timed = seeded_sessions(
        request_pool(app, db, timed_users, LONG_SESSION_LEN),
        timed_users, rng, LONG_SHUFFLE_WINDOW,
    )
    warmup = seeded_sessions(
        request_pool(app, db, warm_users, HIT_SESSION_LEN),
        warm_users, rng, LONG_SHUFFLE_WINDOW,
    )
    return Stream(
        app="social",
        size=LONG_SIZE,
        seed=seed,
        warmup=tuple(warmup),
        timed=tuple(timed),
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its stream and how a round replays it."""

    name: str
    build: object  # (seed) -> Stream
    #: "inproc" | "wire" | "pipelined" | "cluster"
    mode: str
    clients: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "inproc_hit", hit_stream, "inproc", 1,
            "Calendar stock stream on one gateway, hit rate >= 0.99: the steady"
            " state of a deployed proxy; baseline for every hit-path claim.",
        ),
        Workload(
            "inproc_miss", miss_stream, "inproc", 1,
            "Pinned literals never repeat, ~25 % blocked: the full checker and"
            " rewriting search do the work and the caches almost none.",
        ),
        Workload(
            "inproc_churn", churn_stream, "inproc", 1,
            "Hit stream plus identity UPDATEs and identity hot reloads placed by"
            " statement count: invalidate, re-derive, swap; p99 is the re-derivation.",
        ),
        Workload(
            "inproc_long_session", long_stream, "inproc", 1,
            "Social stream, 2 sessions x 600 statements, traces fill to the"
            " 256-fact cap: where per-session state growth must show.",
        ),
        Workload(
            "wire_hit", hit_stream, "wire", 2,
            "Hit stream as classic QUERY round trips to a repro serve"
            " subprocess, 2 client threads: the wire tax over a cache hit.",
        ),
        Workload(
            "wire_pipelined", hit_stream, "pipelined", 1,
            "Hit stream as PREPARE once + pipeline() of 32 EXECUTEs: the"
            " prepared/batched path; per-statement time is call time / 32.",
        ),
        Workload(
            "cluster_hit", hit_stream, "cluster", 2,
            "Hit stream through repro cluster --shards 2 (router + 2 shard"
            " processes): adds the router splice and cross-shard exchange.",
        ),
    )
}
