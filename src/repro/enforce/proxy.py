"""The enforcement proxy: the SQL front door with access control.

Mirrors the Blockaid deployment model (§2.2): the application keeps its
own access checks and issues ordinary SQL; the proxy intercepts each
query and either executes it as-is or blocks it outright. It never
modifies a query — the paper's first highlighted trait.

An :class:`EnforcementProxy` is one request's session, and
:meth:`repro.serve.gateway.EnforcementGateway.connect` is the only way
to open one: every decision is made under the gateway's pinned policy
epoch — its one template store, probed once per statement, and its
checker, which learns every miss (Allow or Block) into that store — and
counted in the gateway's metrics.

Writes (INSERT/UPDATE/DELETE) pass through unchecked, serialized by the
gateway: the paper's setting controls *data revelation*; write control
is an orthogonal concern. What a write *does* change is which certified
facts are true: a DELETE or a value-changing UPDATE can remove the row a
fact in some session's trace stood for. So before deciding, every
session sweeps the database's change log (:mod:`repro.engine.changes`)
and retires the facts the changed rows' old images match — whoever
wrote, and through whichever front end — and a SELECT whose facts died
under it while it ran is decided again (:meth:`EnforcementProxy._execute`).
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.enforce.decision import Decision, PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.prepared import PreparedPlan
from repro.sqlir.skeleton import Skeleton
from repro.util.errors import DbacError, EngineError

if TYPE_CHECKING:  # the gateway imports this module
    from repro.serve.gateway import EnforcementGateway

#: Times one SELECT is decided and executed while concurrent writes keep
#: retiring its session's facts under it; past this it is blocked.
STATEMENT_ATTEMPTS = 3

#: The values a session binding may take: JSON scalars. A binding is a
#: constant of every check and template key, so it must be hashable, and
#: it must survive the wire unchanged.
_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class Session:
    """Who is asking: the bindings for the policy's parameters."""

    bindings: Mapping[str, object]

    @staticmethod
    def for_user(user_id: object, param: str = "MyUId") -> "Session":
        return Session(bindings={param: user_id})

    def validate(self) -> None:
        """Refuse a binding whose value is not a JSON scalar (``None``,
        ``bool``, ``int``, ``float`` or ``str``)."""
        for name, value in self.bindings.items():
            if value is not None and not isinstance(value, _SCALARS):
                raise DbacError(
                    f"session binding {name!r} must be null, a boolean, a number"
                    f" or a string, not {type(value).__name__}"
                )


@dataclass(frozen=True)
class DecisionAuditRecord:
    """One statement's decision as the gateway made it — once per SELECT,
    however many attempts it took — for external re-verification.

    Produced when ``gateway.decision_audit`` is set (the no-torn-decision
    instrument of ``tests/lifecycle/test_reload.py::TestNoTornDecisions``):
    carries everything needed to replay
    the decision against a fresh checker for the policy version that
    made it — the bound SQL, the session bindings, and the certified
    trace facts *as of decision time*.
    """

    sql: str
    bindings: dict
    facts: tuple
    trace_len: int
    allowed: bool
    policy_version: int
    from_cache: bool
    #: Names of the policy views the justification's rewritings leaned on
    #: (empty for blocks and for decisions with no witnessing rewriting).
    #: The mining service's tightening detector reads these to find views
    #: live traffic never exercises.
    views: tuple = ()


class EnforcementProxy:
    """One request's database connection with policy enforcement, opened
    by :meth:`EnforcementGateway.connect` on an empty trace.

    Implements the :class:`~repro.engine.connection.Connection` protocol
    (``sql()`` / ``query()`` / ``close()``), same as
    :class:`~repro.engine.database.Database`, so application handlers run
    unmodified against either. Its statements run one at a time, on the
    caller's thread: the trace and the sweep pointer assume it.
    """

    def __init__(self, gateway: "EnforcementGateway", session: Session):
        self._gateway = gateway
        self.db = gateway.db
        self.session = session
        self.trace = Trace()
        #: The last SELECT's outcome, Allow or Block (``repro enforce
        #: --explain`` prints it).
        self.last_decision: Decision | None = None
        # Per-session invariant, hoisted: the decision cache keys its
        # equality partitions on sorted binding items, and re-sorting an
        # immutable mapping on every request is pure hot-path waste.
        self._param_items = sorted(session.bindings.items())
        #: The change-log sequence number the trace has been swept to.
        self._swept = self.db.changes.seq
        self._closed = False
        #: The running statement's stage timings, counter names and view
        #: names, for its one metrics write (:meth:`_execute`).
        self._tally: tuple[list, list, list] | None = None

    # -- the application-facing API ----------------------------------------------

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        plan, stmt, stages = self._resolve(sql)
        return self._execute(plan, stmt, args, named, stages)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        """Like :meth:`sql` but refuses anything except a SELECT — before
        executing it, so a rejected write leaves the data untouched."""
        plan, stmt, stages = self._resolve(sql)
        if not isinstance(stmt, ast.Select):
            self._gateway.metrics.record(stages, (), ())
            raise EngineError("query() requires a SELECT statement")
        result = self._execute(plan, stmt, args, named, stages)
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
        return self._execute(plan, plan.statement, args, named, [])

    def _resolve(
        self, sql: str | ast.Statement
    ) -> tuple[PreparedPlan | None, ast.Statement, list[tuple[str, float]]]:
        """A SQL text's plan, from the database's plan table, its
        statement, and its stage timings so far (the parse). A statement
        object has no text to key a plan on: it comes back alone."""
        if self._closed:
            raise EngineError("connection is closed")
        started = time.perf_counter()
        plan = self.db.prepare(sql) if isinstance(sql, str) else None
        parse = ("parse", time.perf_counter() - started)
        return plan, (sql if plan is None else plan.statement), [parse]

    def _execute(
        self,
        plan: PreparedPlan | None,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
        stages: list[tuple[str, float]],
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
        observed once (:meth:`_conclude`). Its ``stages`` and counts are
        recorded in one metrics write when it ends, however it ends.
        """
        counts: list[str] = []
        views: list[str] = []
        self._tally = (stages, counts, views)
        try:
            if not isinstance(stmt, ast.Select):
                return self._gateway._handle_write(stmt, args, named)
            bound = bind_parameters(stmt, args, named)
            assert isinstance(bound, ast.Select)
            skeleton = plan.skeleton_for(args, named) if plan is not None else None
            changes = self.db.changes
            for attempt in range(STATEMENT_ATTEMPTS):
                if attempt:
                    counts.append("statement_retries")
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
                stages.append(("execute", time.perf_counter() - started))
                assert isinstance(result, Result)
                if changes.seq != swept and self._sweep():
                    continue
                self._conclude(decision, bound)
                # The tail after ``execute``: certify the answer's facts
                # into the trace.
                certifying = time.perf_counter()
                self.trace.record_execution(bound, result, self.db.schema, plan, skeleton)
                self._swept = settled
                stages.append(("certify", time.perf_counter() - certifying))
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
        finally:
            self._tally = None
            self._gateway.metrics.record(stages, counts, views)

    def _conclude(
        self, decision: Decision, bound: ast.Select, decided: bool = True
    ) -> None:
        """One statement's outcome: the outcome counters (into the
        statement's tally), the audit record and the shadow check.
        ``decided`` is False for the Block that ends the attempts: it is
        counted and audited, but not shadowed — no policy made it, so a
        candidate policy cannot diverge from it."""
        self.last_decision = decision
        gateway = self._gateway
        _, counts, views = self._tally
        counts.append("decisions_allowed" if decision.allowed else "decisions_blocked")
        for rewriting in decision.rewritings:
            views.extend(atom.rel for atom in rewriting.atoms)
        audit = gateway.decision_audit
        if audit is not None:
            facts = self.trace.facts
            audit(
                DecisionAuditRecord(
                    sql=decision.sql,
                    bindings=dict(self.session.bindings),
                    facts=facts,
                    trace_len=len(facts),
                    allowed=decision.allowed,
                    policy_version=decision.policy_version,
                    from_cache=decision.from_cache,
                    views=tuple(
                        sorted(
                            {
                                atom.rel
                                for rewriting in decision.rewritings
                                for atom in rewriting.atoms
                            }
                        )
                    ),
                )
            )
        shadow = gateway.shadow
        if shadow is not None and decided:
            shadow.submit(self, bound, decision)

    def _sweep(self) -> int:
        """Retire the facts that rows changed since the last sweep stood
        for — all of them when the log no longer says which rows those
        were; returns how many."""
        self._swept, images = self.db.changes.since(self._swept)
        retired = self.trace.clear() if images is None else self.trace.retire(images)
        if retired:
            self._gateway.metrics.increment("facts_retired", retired)
        return retired

    def close(self) -> None:
        """Close the session: refuse further statements. The trace stays
        readable on the closed object; nothing resumes it."""
        self._closed = True

    # -- decisions ---------------------------------------------------------------

    def decide(self, bound: ast.Select, skeleton: Skeleton | None = None) -> Decision:
        """Vet a bound SELECT (without executing it), entirely under one
        policy epoch.

        The epoch is read once and pinned for the whole decision — the
        store probe, a fresh check and what it learns — so
        a concurrent hot reload can never produce a decision computed
        against a mix of two policies. ``skeleton`` is the
        prepared-statement fast path: a precomputed ``skeletonize(bound)``
        that lets the store probe skip the per-request AST traversal. A
        miss goes through the epoch's batcher to its checker, which learns
        what it decides (and may still answer from a template another
        session just stored: ``from_cache``). Deciding is not an outcome:
        the allow/block counts and the audit record belong to the
        statement that executes (:meth:`_conclude`). Its ``check`` timing
        and counts join the running statement's tally, or are recorded at
        once when no statement runs.
        """
        tally = self._tally
        stages, counts, _ = ([], [], ()) if tally is None else tally
        gateway = self._gateway
        bindings = self.session.bindings
        started = time.perf_counter()
        with gateway.epoch as epoch:
            decision = epoch.shared_cache.lookup(
                bound,
                bindings,
                self.trace,
                skeleton=skeleton,
                param_items=self._param_items,
            )
            if decision is None:
                decision = epoch.batcher.check(
                    bound, bindings, self.trace, skeleton=skeleton
                )
                if decision.over_budget:
                    counts.append("checks_over_budget")
            stages.append(("check", time.perf_counter() - started))
            counts.append("cache_hits" if decision.from_cache else "cache_misses")
        decision.policy_version = epoch.version
        if tally is None:
            gateway.metrics.record(stages, counts, ())
        return decision
