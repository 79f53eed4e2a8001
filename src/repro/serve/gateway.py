"""The multi-session enforcement gateway.

An :class:`EnforcementGateway` is the process-wide front door of a
serving deployment: it owns the database handle, the policy, one
:class:`~repro.enforce.cache.DecisionCache` per policy epoch, and the
metrics registry, and it hands out per-session :class:`GatewayConnection`
objects. Connections implement the standard
:class:`~repro.engine.connection.Connection` protocol, so application
handlers run against a gateway session exactly as they would against a
bare :class:`~repro.engine.database.Database`.

What the gateway adds over a loose pile of per-session proxies:

* **Shared decisions** — all sessions consult (and feed) one
  template store, so a decision learned for one user amortizes across
  the whole user population (per-session traces still gate
  history-dependent templates; see ``repro.enforce.cache`` for why that
  is sound).
* **Serialized writes** — INSERT/UPDATE/DELETE statements run one at a
  time under the gateway's write lock (the in-memory engine is not safe
  for concurrent mutation) and touch no decision template: a template is
  a function of the policy, the statement shape and fact *patterns*,
  none of which a write changes. What a write can falsify is a certified
  fact; every session retires those itself, from the database's change
  log, before its next decision (``repro.enforce.proxy``).
* **Observability** — per-stage latency histograms (parse / check /
  execute), cache and decision counters, and per-view allow counts.
* **Optional self-verification** — with ``verify_cached_decisions`` on,
  every cache hit is replayed through the full
  :class:`~repro.enforce.checker.ComplianceChecker` and disagreements
  are counted (``cache_disagreements``); E11 asserts this stays zero.

Policy epochs
-------------
Everything whose meaning depends on the *policy* — the checker, the
decision-template store, the miss batcher — is bundled into one immutable
:class:`PolicyEpoch`. A decision pins the current epoch for its whole
duration (one refcount increment), so a hot reload
(:mod:`repro.lifecycle.reload`) can atomically install a new epoch
without ever tearing a decision across two policy versions: in-flight
decisions finish entirely under the epoch they started with, new
decisions start entirely under the new one, and the old epoch is only
retired once its pin count drains to zero. Session state
(connections and their traces) lives *outside* the epoch and survives
reloads untouched.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import Decision
from repro.enforce.proxy import EnforcementProxy, ProxyConfig, Session
from repro.engine.database import Database
from repro.engine.executor import Result
from repro.policy.policy import Policy
from repro.relalg import memo
from repro.relalg.compile import CompiledPolicy, compile_policy
from repro.serve.batch import CheckBatcher
from repro.serve.metrics import GatewayMetrics, MetricsSnapshot
from repro.sqlir import ast


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway-wide configuration, applied to every session it opens.

    ``cache_mode``:

    * ``"shared"`` (default) — every session consults the epoch's one
      :class:`~repro.enforce.cache.DecisionCache` before checking;
    * ``"none"`` — no session does; every statement reaches the checker.

    ``compile_checks`` (default on) builds a
    :class:`~repro.relalg.compile.CompiledPolicy` once per
    :class:`PolicyEpoch` and lets the checker serve and learn skeleton
    templates in the epoch's store, turning repeat-shape cache-miss
    checks into template instantiation (docs/compilation.md).
    ``batch_checks`` (default on) additionally funnels miss checks
    through a :class:`~repro.serve.batch.CheckBatcher` so concurrent
    sessions share per-batch compilation work.

    ``backend`` / ``db_path`` are *declarative*: they record which
    storage backend this deployment expects (and, for path-capable
    backends, where its file lives) so deployment configs can travel as
    one object. The gateway does not construct the database — the owner
    does, via :func:`repro.engine.open_database` — but it validates at
    startup that the database it was handed matches the declared
    backend, failing fast on a misconfigured deployment.
    """

    history_enabled: bool = True
    cache_mode: str = "shared"
    verify_cached_decisions: bool = False
    record_decisions: bool = False
    decision_log_cap: int = 256
    check_timeout_s: float = 60.0
    compile_checks: bool = True
    batch_checks: bool = True
    backend: str | None = None
    db_path: str | None = None

    def __post_init__(self) -> None:
        if self.cache_mode not in ("shared", "none"):
            raise ValueError(f"unknown cache_mode {self.cache_mode!r}")
        if self.db_path is not None and self.backend is None:
            raise ValueError("db_path requires an explicit backend")


class PolicyEpoch:
    """One policy generation: the policy plus everything derived from it.

    Immutable once installed (the caches fill, but never change policy).
    The pin count tracks decisions currently executing under this epoch;
    :meth:`retire` blocks until they drain.
    """

    def __init__(
        self,
        db: Database,
        policy: Policy,
        config: GatewayConfig,
        version: int = 1,
        provenance: str = "hand-written",
    ):
        self.version = version
        self.policy = policy
        self.provenance = provenance
        # Compiled artifacts are built here — before the epoch is
        # installed — so a hot reload pays compilation pre-swap and the
        # install stays a pointer assignment (E17's rebuild-cost table).
        self.compiled: CompiledPolicy | None = (
            compile_policy(db.schema, policy) if config.compile_checks else None
        )
        #: The epoch's one decision-template store: the checker serves and
        #: learns compiled skeleton templates in it (``compile_checks``),
        #: and sessions probe it before checking (``cache_mode="shared"``).
        #: ``None`` only when neither is on.
        self.store: DecisionCache | None = (
            DecisionCache(policy)
            if self.compiled is not None or config.cache_mode == "shared"
            else None
        )
        self.checker = ComplianceChecker(
            db.schema,
            policy,
            history_enabled=config.history_enabled,
            compiled=self.compiled,
            skeletons=self.store if self.compiled is not None else None,
        )
        #: The store as the sessions' cache, or None under ``cache_mode="none"``.
        self.shared_cache: DecisionCache | None = (
            self.store if config.cache_mode == "shared" else None
        )
        #: Combining-lock batcher for miss checks.
        self.batcher: CheckBatcher | None = (
            CheckBatcher(self.checker, timeout_s=config.check_timeout_s)
            if config.batch_checks
            else None
        )
        self._condition = threading.Condition()
        self._pins = 0

    # -- pinning ------------------------------------------------------------------

    def __enter__(self) -> "PolicyEpoch":
        with self._condition:
            self._pins += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._condition:
            self._pins -= 1
            if self._pins == 0:
                self._condition.notify_all()

    @property
    def pins(self) -> int:
        with self._condition:
            return self._pins

    def retire(self, timeout_s: float = 30.0) -> bool:
        """Wait for in-flight decisions to drain.

        Returns ``False`` when pinned decisions were still live at the
        deadline (a straggler still finishes under its own epoch's
        checker, so the decision stays untorn).
        """
        with self._condition:
            return self._condition.wait_for(lambda: self._pins == 0, timeout=timeout_s)

    def caches(self) -> list[DecisionCache]:
        """The store, when there is one, as a list. Nothing in the program
        calls it: it stays for the benchmark's staged replay
        (``bench/tracing.py``), which evicts through it after each write."""
        return [self.store] if self.store is not None else []


class GatewayConnection(EnforcementProxy):
    """One session's connection, vended by :meth:`EnforcementGateway.connect`."""

    def __init__(
        self,
        gateway: "EnforcementGateway",
        session: Session,
        config: ProxyConfig,
    ):
        super().__init__(gateway.db, gateway.policy, session, config)
        self._gateway = gateway
        #: Serialises this session's statements. The trace, the pinned
        #: epoch and the proxy stats assume one statement at a time, so a
        #: caller that may reach one session from two threads (the wire
        #: server, when two connections resume the same principal) holds
        #: this around each call. It lives and dies with the session, and
        #: ``fresh=True`` sessions of one principal share nothing.
        self.lock = threading.Lock()
        # The epoch pinned by the decision currently in flight on this
        # connection (sessions are serialized, so at most one).
        self._pinned_epoch: PolicyEpoch | None = None

    @property
    def checker(self) -> ComplianceChecker:
        """The deciding epoch's checker: a session has none of its own,
        so none is built at connect and none outlives a reload."""
        return self._gateway.epoch.checker

    def close(self) -> None:
        """Close the session and leave the gateway's session table: the
        principal's next ``connect`` opens a new session on an empty trace
        (re-derive, never inherit). A ``fresh=True`` session was never in
        the table."""
        super().close()
        self._gateway._release(self)

    # -- epoch-pinned deciding ---------------------------------------------------

    def decide(self, bound: ast.Select, skeleton=None) -> Decision:
        """Vet a bound SELECT entirely under one policy epoch.

        The epoch is read once and pinned for the whole decision — cache
        lookup, fresh check, store, verification — so a concurrent hot
        reload can never produce a decision computed against a mix of
        two policies. ``skeleton`` is the
        prepared-statement fast path (see ``EnforcementProxy.decide``).
        """
        gateway = self._gateway
        with gateway.epoch as epoch:
            self._pinned_epoch = epoch
            try:
                decision = super().decide(bound, skeleton=skeleton)
            finally:
                self._pinned_epoch = None
        decision.policy_version = epoch.version
        return decision

    def _decision_cache(self) -> DecisionCache | None:
        """The pinned epoch's cache (None under ``cache_mode="none"``)."""
        return self._pinned_epoch.shared_cache

    # -- hooks wired into the gateway ------------------------------------------

    def _execute_write(
        self,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        return self._gateway._handle_write(stmt, args, named)

    def _record_stage(self, stage: str, seconds: float) -> None:
        self._gateway.metrics.observe_stage(stage, seconds)

    def _record_counter(self, name: str, amount: int) -> None:
        self._gateway.metrics.increment(name, amount)

    def _observe_check(self, decision: Decision, bound: ast.Select) -> None:
        """Per decision, under its pinned epoch: the cache counters, and
        the replay of a hit when ``verify_cached_decisions`` is on."""
        metrics = self._gateway.metrics
        if decision.from_cache:
            metrics.increment("cache_hits")
            if self._gateway.config.verify_cached_decisions:
                self._verify_cached(decision, bound)
        else:
            metrics.increment(
                "cache_misses" if self._decision_cache() is not None else "uncached_checks"
            )

    def _observe_decision(
        self, decision: Decision, bound: ast.Select, decided: bool
    ) -> None:
        """Per statement: the outcome counters, the audit record and the
        shadow check. The Block that ends a statement's attempts is
        counted and audited, but not shadowed: no policy made it, so a
        candidate policy cannot diverge from it."""
        gateway = self._gateway
        metrics = gateway.metrics
        metrics.increment("decisions_allowed" if decision.allowed else "decisions_blocked")
        for rewriting in decision.rewritings:
            for atom in rewriting.atoms:
                metrics.count_view_check(atom.rel)
        audit = gateway.decision_audit
        if audit is not None:
            trace = self.trace if self.config.history_enabled else None
            audit(
                DecisionAuditRecord(
                    sql=decision.sql,
                    bindings=dict(self.session.bindings),
                    facts=trace.facts if trace is not None else (),
                    trace_len=len(trace.facts) if trace is not None else 0,
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

    def _verify_cached(self, decision: Decision, bound: ast.Select) -> None:
        """Replay a cache hit through the uncached checker and compare.

        ``allow_compiled=False``: verification must be independent of
        the templates it audits (they live in the very store the hit
        came from), so it runs the full containment path, unbatched, and
        learns nothing from it.
        """
        trace = self.trace if self.config.history_enabled else None
        fresh = self._pinned_epoch.checker.check(
            bound, self.session.bindings, trace, allow_compiled=False
        )
        self._gateway.metrics.increment("cache_verified")
        if fresh.allowed != decision.allowed:
            self._gateway.metrics.increment("cache_disagreements")

    def _check_fresh(self, bound: ast.Select, trace, skeleton=None) -> Decision:
        """Cache-miss check: batched when configured, else direct.

        Always runs against the pinned epoch's checker so the decision
        cannot straddle a reload. A compiling checker has already
        generalized its decision into the epoch's store; only without
        one is there anything left to store here.
        """
        epoch = self._pinned_epoch
        checker = epoch.batcher if epoch.batcher is not None else epoch.checker
        decision = checker.check(
            bound, self.session.bindings, trace, skeleton=skeleton
        )
        if epoch.compiled is None and epoch.shared_cache is not None:
            epoch.shared_cache.store(
                bound, self.session.bindings, decision, skeleton=skeleton
            )
        return decision


@dataclass(frozen=True)
class DecisionAuditRecord:
    """One statement's decision as the gateway made it — once per SELECT,
    however many attempts it took — for external re-verification.

    Produced when ``gateway.decision_audit`` is set (the E14 benchmark's
    no-torn-decision instrument): carries everything needed to replay
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


class EnforcementGateway:
    """Owns the shared cache and metrics; hands out per-session connections."""

    def __init__(
        self,
        db: Database,
        policy: Policy,
        config: GatewayConfig | None = None,
    ):
        self.db = db
        self.config = config or GatewayConfig()
        if (
            self.config.backend is not None
            and self.config.backend != db.backend_name
        ):
            raise ValueError(
                f"gateway configured for backend {self.config.backend!r}"
                f" but the database runs {db.backend_name!r}"
            )
        self.metrics = GatewayMetrics()
        self._epoch = PolicyEpoch(db, policy, self.config)
        self._connections: dict[tuple, GatewayConnection] = {}
        # RLock: connect() holds it while _proxy_config() re-enters.
        self._connect_lock = threading.RLock()
        self._write_lock = threading.RLock()
        #: Optional per-decision audit hook (see DecisionAuditRecord).
        self.decision_audit = None
        #: Optional shadow runner (repro.lifecycle.shadow.ShadowRunner).
        self.shadow = None

    # -- the policy epoch --------------------------------------------------------

    @property
    def epoch(self) -> PolicyEpoch:
        return self._epoch

    @property
    def policy(self) -> Policy:
        """The active policy (the current epoch's)."""
        return self._epoch.policy

    @property
    def policy_version(self) -> int:
        return self._epoch.version

    @property
    def shared_cache(self) -> DecisionCache | None:
        return self._epoch.shared_cache

    def build_epoch(
        self, policy: Policy, version: int, provenance: str = "hand-written"
    ) -> PolicyEpoch:
        """Construct (but do not install) an epoch for ``policy``.

        Doing the expensive part — policy compilation, checker
        construction — *before* the swap keeps the install pause to a
        pointer assignment.
        """
        return PolicyEpoch(self.db, policy, self.config, version, provenance)

    def install_epoch(self, epoch: PolicyEpoch) -> PolicyEpoch:
        """Atomically make ``epoch`` the deciding epoch; returns the old one.

        Taken under the write lock so two installs (a reload racing a
        rollback) serialize, and each new store continues its
        predecessor's counts exactly once. The caller is responsible
        for retiring the returned epoch (``old.retire()``), normally via
        :func:`repro.lifecycle.reload.hot_reload`.

        The new store continues the retiring store's event counts, so the
        cache counters in :meth:`snapshot` never run backwards at a reload.
        """
        with self._write_lock:
            old, self._epoch = self._epoch, epoch
            if epoch.store is not None and old.store is not None:
                epoch.store.continue_counts_of(old.store)
            self.metrics.increment("policy_reloads")
        return old

    # -- session management -----------------------------------------------------

    def connect(
        self,
        session: Session | Mapping[str, object] | object,
        fresh: bool = False,
    ) -> GatewayConnection:
        """Open (or rejoin) the connection for a session.

        ``session`` may be a :class:`Session`, a bindings mapping, or a
        bare user id (bound to the conventional ``MyUId`` parameter).
        Connections are keyed by their bindings: reconnecting as the same
        principal resumes the same trace, the way an application server's
        session store would, until that session is closed. ``fresh=True``
        forces a brand-new session (empty trace) without disturbing the
        stored one.
        """
        normalized = self._normalize(session)
        key = tuple(sorted(normalized.bindings.items()))
        if fresh:
            self.metrics.increment("sessions_opened")
            return GatewayConnection(self, normalized, self._proxy_config())
        with self._connect_lock:
            connection = self._connections.get(key)
            if connection is None:
                connection = GatewayConnection(self, normalized, self._proxy_config())
                self._connections[key] = connection
                self.metrics.increment("sessions_opened")
            return connection

    def _release(self, connection: GatewayConnection) -> None:
        """Drop a closed session from the table, if it is the stored one."""
        key = tuple(sorted(connection.session.bindings.items()))
        with self._connect_lock:
            if self._connections.get(key) is connection:
                del self._connections[key]

    def connections(self) -> list[GatewayConnection]:
        with self._connect_lock:
            return list(self._connections.values())

    def close(self) -> None:
        with self._connect_lock:
            # A snapshot: each close() removes its own entry.
            for connection in list(self._connections.values()):
                connection.close()
        if self.shadow is not None:
            self.shadow.close()
            self.shadow = None
        self._epoch.retire(timeout_s=5.0)

    def _normalize(self, session: Session | Mapping[str, object] | object) -> Session:
        if isinstance(session, Session):
            return session
        if isinstance(session, Mapping):
            return Session(bindings=dict(session))
        return Session.for_user(session)

    def _proxy_config(self) -> ProxyConfig:
        # Decision caches are epoch-owned (see PolicyEpoch); the proxy
        # config's cache field stays None and GatewayConnection resolves
        # the cache through its pinned epoch on every decision.
        return ProxyConfig(
            history_enabled=self.config.history_enabled,
            record_decisions=self.config.record_decisions,
            cache=None,
            decision_log_cap=self.config.decision_log_cap,
        )

    # -- writes ------------------------------------------------------------------

    def _handle_write(
        self,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        """Run a write under the write lock, and nothing else.

        The in-memory engine is not safe for concurrent mutation, so all
        writes funnel through one lock; reads stay lock-free (the
        executor's container operations are atomic under the GIL, and
        ``Table`` replaces an updated row in place). The backend logs the
        rows the write changed; each session retires the facts they stood
        for before its next decision, so no template or trace is touched
        here.
        """
        with self._write_lock:
            outcome = self.db.sql(stmt, args, named)
        self.metrics.increment("writes")
        return outcome

    # -- observability -----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        snapshot = self.metrics.snapshot()
        epoch = self._epoch
        snapshot.counters["policy_version"] = epoch.version
        # Cache counters: event counts are cumulative over the gateway's
        # life (install_epoch carries them across reloads); the sizes
        # (shared_cache_size, compiled_templates) gauge the live store.
        if epoch.shared_cache is not None:
            stats = epoch.shared_cache.stats()
            for name, value in stats.items():
                snapshot.counters[f"shared_cache_{name}"] = value
            # Top-level alias (docs/performance.md): acquisitions of the
            # store's lock that had to wait.
            snapshot.counters["cache_stripe_contention"] = stats["stripe_contention"]
        if epoch.compiled is not None:
            # Top-level compiled-path counters (docs/compilation.md); the
            # cluster router sums these across shards, so numeric only.
            snapshot.counters["compiled_hits"] = epoch.store.compiled_hits
            snapshot.counters["compile_misses"] = epoch.store.compiled_misses
            snapshot.counters["compiled_templates"] = epoch.store.size
            snapshot.counters["compiled_blocks"] = epoch.store.blocks_stored
            compiled_stats = epoch.compiled.stats()
            snapshot.counters["compiled_views"] = compiled_stats["views"]
            snapshot.counters["compiled_view_def_hits"] = compiled_stats["view_def_hits"]
            snapshot.counters["compiled_view_def_misses"] = compiled_stats[
                "view_def_misses"
            ]
        if epoch.batcher is not None:
            for name, value in epoch.batcher.stats().items():
                snapshot.counters[f"batch_{name}"] = value
        shadow = self.shadow
        if shadow is not None:
            for name, value in shadow.stats().items():
                snapshot.counters[f"shadow_{name}"] = value
        # Decision-audit loss accounting: drops from per-session decision
        # rings plus (when an AuditStream is installed) subscriber-queue
        # drops. Always present so STATS consumers can alert on it.
        audit_dropped = sum(
            connection.stats.audit_dropped for connection in self.connections()
        )
        audit = self.decision_audit
        if audit is not None and hasattr(audit, "stats"):
            for name, value in audit.stats().items():
                if name == "dropped":
                    audit_dropped += value
                else:
                    snapshot.counters[f"audit_{name}"] = value
        snapshot.counters["audit_dropped"] = audit_dropped
        for name in ("facts_retired", "statement_retries", "checks_over_budget"):
            snapshot.counters.setdefault(name, 0)
        # The rewriting-core memo counters.
        for name, value in memo.memo_stats().items():
            snapshot.counters[f"memo_{name}"] = value
        return snapshot

    def cache_hit_rate(self) -> float:
        """Session-cache hits over lookups, across reloads (0.0 uncached)."""
        cache = self._epoch.shared_cache
        return cache.hit_rate if cache is not None else 0.0
