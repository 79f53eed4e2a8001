"""The enforcement proxy: the SQL front door with access control.

Mirrors the Blockaid deployment model (§2.2): the application keeps its
own access checks and issues ordinary SQL; the proxy intercepts each
query and either executes it as-is or blocks it outright. It never
modifies a query — the paper's first highlighted trait.

Writes (INSERT/UPDATE/DELETE) pass through unchecked: the paper's setting
controls *data revelation*; write control is an orthogonal concern. The
serving gateway hooks :meth:`EnforcementProxy._execute_write` to observe
them anyway, because a write must invalidate shared decision templates
that touch the written table.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import Decision, PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.database import Database
from repro.engine.executor import Result
from repro.policy.policy import Policy
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.prepared import PreparedPlan
from repro.sqlir.skeleton import Skeleton
from repro.util.errors import EngineError


@dataclass(frozen=True)
class Session:
    """Who is asking: the bindings for the policy's parameters."""

    bindings: Mapping[str, object]

    @staticmethod
    def for_user(user_id: object, param: str = "MyUId") -> "Session":
        return Session(bindings={param: user_id})


@dataclass(frozen=True)
class ProxyConfig:
    """Everything configurable about an :class:`EnforcementProxy`.

    One value object instead of a growing pile of constructor flags, so
    the gateway can stamp out many identically-configured sessions and
    new knobs don't ripple through every call site.

    * ``history_enabled`` — conjoin certified trace facts into checks
      (the Example 2.1 mechanism); disable for the no-history ablation.
    * ``record_decisions`` — keep the most recent decisions on
      ``stats.decisions`` for tooling (capped by ``decision_log_cap``).
    * ``cache`` — a :class:`DecisionCache` to consult before running the
      checker (one may be shared by any number of proxies and threads);
      ``None`` disables caching.
    * ``decision_log_cap`` — ring-buffer size for recorded decisions.
    """

    history_enabled: bool = True
    record_decisions: bool = False
    cache: DecisionCache | None = None
    decision_log_cap: int = 256


@dataclass
class ProxyStats:
    """Counters a proxy accumulates over its lifetime.

    ``decisions`` is a bounded ring buffer (newest last): with
    ``record_decisions`` on, an unbounded list would grow forever in a
    long-lived serving session. Overflow is not silent: every decision
    the ring evicts to make room increments ``audit_dropped``, which the
    gateway surfaces in ``snapshot()``/STATS — an operator replaying the
    decision log must be able to tell a complete window from a clipped
    one.
    """

    allowed: int = 0
    blocked: int = 0
    cache_hits: int = 0
    parse_seconds: float = 0.0
    check_seconds: float = 0.0
    execute_seconds: float = 0.0
    decisions: deque[Decision] = field(default_factory=lambda: deque(maxlen=256))
    #: Decisions evicted from the ``decisions`` ring by the cap.
    audit_dropped: int = 0

    @staticmethod
    def with_cap(decision_log_cap: int) -> "ProxyStats":
        return ProxyStats(decisions=deque(maxlen=max(1, decision_log_cap)))

    def record_decision(self, decision: Decision) -> None:
        """Append to the ring, counting (not hiding) any eviction."""
        ring = self.decisions
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.audit_dropped += 1
        ring.append(decision)


class EnforcementProxy:
    """A per-session database connection with policy enforcement.

    Implements the :class:`~repro.engine.connection.Connection` protocol
    (``sql()`` / ``query()`` / ``close()``), same as
    :class:`~repro.engine.database.Database`, so application handlers run
    unmodified against either.

    Configuration lives in :class:`ProxyConfig`.
    """

    def __init__(
        self,
        db: Database,
        policy: Policy,
        session: Session,
        config: ProxyConfig | None = None,
    ):
        base = config or ProxyConfig()
        self.config = base
        self.db = db
        self.policy = policy
        self.session = session
        self.trace = Trace()
        self.stats = ProxyStats.with_cap(base.decision_log_cap)
        # Per-session invariant, hoisted: the decision cache keys its
        # equality partitions on sorted binding items, and re-sorting an
        # immutable mapping on every request is pure hot-path waste.
        self._param_items = sorted(session.bindings.items())
        self._closed = False

    @cached_property
    def checker(self) -> ComplianceChecker:
        """This proxy's own checker, built when a miss first needs it (a
        gateway session decides under its epoch's and never builds one)."""
        return ComplianceChecker(
            self.db.schema, self.policy, history_enabled=self.config.history_enabled
        )

    # -- the application-facing API ----------------------------------------------

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        plan, stmt = self._resolve(sql)
        return self._execute(plan, stmt, args, named)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        """Like :meth:`sql` but refuses anything except a SELECT — before
        executing it, so a rejected write leaves the data untouched."""
        plan, stmt = self._resolve(sql)
        if not isinstance(stmt, ast.Select):
            raise EngineError("query() requires a SELECT statement")
        result = self._execute(plan, stmt, args, named)
        assert isinstance(result, Result)
        return result

    # -- prepared statements -------------------------------------------------------

    def prepare(self, sql: str | ast.Statement) -> PreparedPlan:
        """Hoist this statement's per-shape work; see ``docs/prepared.md``.

        The plan is the database's for this SQL text — the one ``sql()``
        and ``query()`` resolve for themselves — and policy-independent:
        it may be executed across hot reloads (decisions always come from
        the current epoch's caches), and one plan serves many sessions.
        """
        return self.db.prepare(sql)

    def execute_prepared(
        self,
        plan: PreparedPlan,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """Execute a prepared plan: what ``sql()`` does once it has
        resolved its text's plan — the decision itself is unchanged."""
        if self._closed:
            raise EngineError("connection is closed")
        return self._execute(plan, plan.statement, args, named)

    def _resolve(
        self, sql: str | ast.Statement
    ) -> tuple[PreparedPlan | None, ast.Statement]:
        """A SQL text's plan, from the database's plan table, and its
        statement (the parse stage). A statement object has no text to
        key a plan on: it comes back alone, to take the per-request path."""
        if self._closed:
            raise EngineError("connection is closed")
        started = time.perf_counter()
        plan = self.db.prepare(sql) if isinstance(sql, str) else None
        parse_seconds = time.perf_counter() - started
        self.stats.parse_seconds += parse_seconds
        self._record_stage("parse", parse_seconds)
        return plan, (sql if plan is None else plan.statement)

    def _execute(
        self,
        plan: PreparedPlan | None,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        """Bind once; a SELECT is then decided, executed and certified."""
        if not isinstance(stmt, ast.Select):
            return self._execute_write(stmt, args, named)
        bound = bind_parameters(stmt, args, named)
        assert isinstance(bound, ast.Select)
        skeleton = plan.skeleton_for(args, named) if plan is not None else None
        decision = self.decide(bound, skeleton=skeleton)
        if self.config.record_decisions:
            self.stats.record_decision(decision)
        if not decision.allowed:
            self.stats.blocked += 1
            raise PolicyViolation(decision)
        self.stats.allowed += 1
        started = time.perf_counter()
        result = self.db.execute_bound(bound)
        executed = time.perf_counter()
        self.stats.execute_seconds += executed - started
        self._record_stage("execute", executed - started)
        assert isinstance(result, Result)
        # The tail after ``execute``: certify the answer's facts into the
        # trace. Timed from the end of execute so the stages of one SELECT
        # are contiguous.
        self.trace.record_execution(bound, result, self.db.schema, plan, skeleton)
        self._record_stage("certify", time.perf_counter() - executed)
        return result

    def close(self) -> None:
        """Close the session: refuse further statements. The trace stays
        readable on the closed object; nothing resumes it."""
        self._closed = True

    # -- decisions ---------------------------------------------------------------

    def decide(self, bound: ast.Select, skeleton: Skeleton | None = None) -> Decision:
        """Vet a bound SELECT (without executing it).

        ``skeleton`` is the prepared-statement fast path: a precomputed
        ``skeletonize(bound)`` that lets the cache probe and template
        store skip the per-request AST traversal. A miss goes to
        :meth:`_check_fresh`, which also stores what it decided.
        """
        started = time.perf_counter()
        cache = self._decision_cache()
        # Only offer the trace to the cache when this session's checker
        # would use history itself; otherwise a fact-dependent template
        # could allow what the no-history checker would block.
        trace = self.trace if self.config.history_enabled else None
        decision = None
        if cache is not None:
            decision = cache.lookup(
                bound,
                self.session.bindings,
                trace,
                skeleton=skeleton,
                param_items=self._param_items,
            )
        if decision is not None:
            self.stats.cache_hits += 1
        else:
            decision = self._check_fresh(bound, trace, skeleton=skeleton)
        seconds = time.perf_counter() - started
        self.stats.check_seconds += seconds
        self._record_stage("check", seconds)
        self._observe_decision(decision, bound)
        return decision

    # -- subclass hooks (used by repro.serve) -------------------------------------

    def _execute_write(
        self,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        """Run a non-SELECT statement; the gateway overrides to invalidate."""
        started = time.perf_counter()
        outcome = self.db.sql(stmt, args, named)
        self._record_stage("execute", time.perf_counter() - started)
        return outcome

    def _record_stage(self, stage: str, seconds: float) -> None:
        """Per-stage latency observation point; no-op outside the gateway."""

    def _decision_cache(self) -> DecisionCache | None:
        """The decision cache to consult for this decision.

        The gateway overrides this to resolve the cache through the
        policy epoch pinned for the current decision (caches are
        per-policy-version there, not per-connection).
        """
        return self.config.cache

    def _check_fresh(
        self,
        bound: ast.Select,
        trace: Trace | None,
        skeleton: Skeleton | None = None,
    ) -> Decision:
        """Run the full compliance check for a cache miss, and store it.

        The miss hook is the one place a fresh decision is generalized
        into the cache. The gateway overrides it to check under its
        pinned policy epoch, whose compiling checker stores for itself.
        """
        decision = self.checker.check(
            bound, self.session.bindings, trace, skeleton=skeleton
        )
        if self.config.cache is not None:
            self.config.cache.store(
                bound, self.session.bindings, decision, skeleton=skeleton
            )
        return decision

    def _observe_decision(self, decision: Decision, bound: ast.Select) -> None:
        """Decision observation point; no-op outside the gateway."""
