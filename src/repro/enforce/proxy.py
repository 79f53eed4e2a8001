"""The enforcement proxy: the SQL front door with access control.

Mirrors the Blockaid deployment model (§2.2): the application keeps its
own access checks and issues ordinary SQL; the proxy intercepts each
query and either executes it as-is or blocks it outright. It never
modifies a query — the paper's first highlighted trait.

Writes (INSERT/UPDATE/DELETE) pass through unchecked: the paper's setting
controls *data revelation*; write control is an orthogonal concern. (The
serving gateway hooks :meth:`EnforcementProxy._execute_write` to
serialize them.) What a write *does* change is which certified facts are
true: a DELETE or a value-changing UPDATE can remove the row a fact in
some session's trace stood for. So before deciding, every session sweeps
the database's change log (:mod:`repro.engine.changes`) and retires the
facts the changed rows' old images match — whoever wrote, and through
whichever front end — and a SELECT whose facts died under it while it
ran is decided again (:meth:`EnforcementProxy._execute`).
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
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

#: Times one SELECT is decided and executed while concurrent writes keep
#: retiring its session's facts under it; past this it is blocked.
STATEMENT_ATTEMPTS = 3


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

    * ``history_enabled`` — conjoin certified trace facts into checks
      (the Example 2.1 mechanism); disable for the no-history ablation.
    * ``cache`` — a :class:`DecisionCache` to consult before running the
      checker (one may be shared by any number of proxies and threads);
      ``None`` disables caching.
    """

    history_enabled: bool = True
    cache: DecisionCache | None = None


@dataclass
class ProxyStats:
    """Counters a proxy accumulates over its lifetime."""

    allowed: int = 0
    blocked: int = 0
    cache_hits: int = 0
    parse_seconds: float = 0.0
    check_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: Trace facts retired because a write changed the rows they stood for.
    facts_retired: int = 0
    #: SELECTs decided again because a concurrent write retired facts.
    statement_retries: int = 0
    #: Fresh checks that ran out of search budget (each one a Block).
    checks_over_budget: int = 0


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
        self.config = config or ProxyConfig()
        self.db = db
        self.policy = policy
        self.session = session
        self.trace = Trace()
        self.stats = ProxyStats()
        #: The last SELECT's outcome, Allow or Block (``repro enforce
        #: --explain`` prints it).
        self.last_decision: Decision | None = None
        # Per-session invariant, hoisted: the decision cache keys its
        # equality partitions on sorted binding items, and re-sorting an
        # immutable mapping on every request is pure hot-path waste.
        self._param_items = sorted(session.bindings.items())
        #: The change-log sequence number the trace has been swept to.
        self._swept = db.changes.seq
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
        """Bind once; a SELECT is then decided, executed and certified.

        Reads take no lock, so a write may land while a SELECT is decided
        and executed. A write logs the rows it changes before a reader
        can see the change, so if the sequence number moved and the sweep
        after execution retired facts, the decision may have rested on
        one of them: decide and execute again, at most
        ``STATEMENT_ATTEMPTS`` times, then block. After certifying, the
        sweep pointer goes back to the log's ``settled`` mark as it stood
        before the attempt, so the next statement re-checks the new facts
        against every write that overlapped the read — also one logged
        before the attempt began and still mutating during it.

        Each attempt is a decision; the statement's outcome — the last
        one, or the Block that ends the attempts — is counted and
        observed once (:meth:`_conclude`).
        """
        if not isinstance(stmt, ast.Select):
            return self._execute_write(stmt, args, named)
        bound = bind_parameters(stmt, args, named)
        assert isinstance(bound, ast.Select)
        skeleton = plan.skeleton_for(args, named) if plan is not None else None
        changes = self.db.changes
        for attempt in range(STATEMENT_ATTEMPTS):
            if attempt:
                self.stats.statement_retries += 1
                self._record_counter("statement_retries", 1)
            settled = changes.settled
            if changes.seq != self._swept:
                self._sweep()
            swept = self._swept
            decision = self.decide(bound, skeleton=skeleton)
            if not decision.allowed:
                self._conclude(decision, bound)
                raise PolicyViolation(decision)
            started = time.perf_counter()
            result = self.db.execute_bound(bound)
            executed = time.perf_counter()
            self.stats.execute_seconds += executed - started
            self._record_stage("execute", executed - started)
            assert isinstance(result, Result)
            if changes.seq != swept and self._sweep():
                continue
            self._conclude(decision, bound)
            # The tail after ``execute``: certify the answer's facts into
            # the trace.
            certifying = time.perf_counter()
            self.trace.record_execution(bound, result, self.db.schema, plan, skeleton)
            self._swept = settled
            self._record_stage("certify", time.perf_counter() - certifying)
            return result
        block = Decision(
            allowed=False,
            sql=bound,
            reason=f"a concurrent write retired this session's facts during"
            f" each of {STATEMENT_ATTEMPTS} attempts",
            policy_version=decision.policy_version,
        )
        self._conclude(block, bound, decided=False)
        raise PolicyViolation(block)

    def _conclude(
        self, decision: Decision, bound: ast.Select, decided: bool = True
    ) -> None:
        """Count and observe one statement's outcome; ``decided`` is False
        for the Block that ends the attempts, which no check made."""
        if decision.allowed:
            self.stats.allowed += 1
        else:
            self.stats.blocked += 1
        self.last_decision = decision
        self._observe_decision(decision, bound, decided)

    def _sweep(self) -> int:
        """Retire the facts that rows changed since the last sweep stood
        for — all of them when the log no longer says which rows those
        were; returns how many."""
        self._swept, images = self.db.changes.since(self._swept)
        retired = self.trace.clear() if images is None else self.trace.retire(images)
        if retired:
            self.stats.facts_retired += retired
            self._record_counter("facts_retired", retired)
        return retired

    def close(self) -> None:
        """Close the session: refuse further statements. The trace stays
        readable on the closed object; nothing resumes it."""
        self._closed = True

    # -- decisions ---------------------------------------------------------------

    def decide(self, bound: ast.Select, skeleton: Skeleton | None = None) -> Decision:
        """Vet a bound SELECT (without executing it).

        ``skeleton`` is the prepared-statement fast path: a precomputed
        ``skeletonize(bound)`` that lets the cache probe and template
        store skip the per-request AST traversal. The cache is probed once;
        a miss goes to :meth:`_check_fresh`, which also stores what it
        decided (a gateway's may still answer from a template another
        session just stored: ``from_cache``). Deciding
        is not an outcome: the allow/block counts and the audit record
        belong to the statement that executes (:meth:`_conclude`).
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
        if decision is None:
            decision = self._check_fresh(bound, trace, skeleton=skeleton)
            if decision.over_budget:
                self.stats.checks_over_budget += 1
                self._record_counter("checks_over_budget", 1)
        if decision.from_cache:
            self.stats.cache_hits += 1
        seconds = time.perf_counter() - started
        self.stats.check_seconds += seconds
        self._record_stage("check", seconds)
        self._observe_check(decision, bound)
        return decision

    # -- subclass hooks (used by repro.serve) -------------------------------------

    def _execute_write(
        self,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        """Run a non-SELECT statement; the gateway overrides to serialize."""
        started = time.perf_counter()
        outcome = self.db.sql(stmt, args, named)
        self._record_stage("execute", time.perf_counter() - started)
        return outcome

    def _record_stage(self, stage: str, seconds: float) -> None:
        """Per-stage latency observation point; no-op outside the gateway."""

    def _record_counter(self, name: str, amount: int) -> None:
        """Counter observation point (``facts_retired``,
        ``statement_retries``, ``checks_over_budget``);
        no-op outside the gateway."""

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

    def _observe_check(self, decision: Decision, bound: ast.Select) -> None:
        """Observation point for each decision :meth:`decide` makes (a
        retried statement makes several); no-op outside the gateway."""

    def _observe_decision(
        self, decision: Decision, bound: ast.Select, decided: bool
    ) -> None:
        """Observation point for a statement's outcome, once per SELECT
        (see :meth:`_conclude`); no-op outside the gateway."""
