"""The multi-session enforcement gateway.

An :class:`EnforcementGateway` is the process-wide front door of a
serving deployment: it owns the database handle, the policy, one
:class:`~repro.enforce.cache.DecisionCache` per policy epoch, and the
metrics registry, and :meth:`EnforcementGateway.connect` is the only way
to open an enforcing session (an
:class:`~repro.enforce.proxy.EnforcementProxy`), one per request.
Sessions implement the standard
:class:`~repro.engine.connection.Connection` protocol, so application
handlers run against a gateway session exactly as they would against a
bare :class:`~repro.engine.database.Database`.

What every session gets from its gateway:

* **Shared decisions** — every statement probes the epoch's one
  template store once, and every miss's full check feeds it, so a
  decision learned for one user amortizes across the whole user
  population (per-session traces still gate history-dependent templates;
  see ``repro.enforce.cache`` for why that is sound).
* **Serialized writes** — INSERT/UPDATE/DELETE statements run one at a
  time under the gateway's write lock (the in-memory engine is not safe
  for concurrent mutation) and touch no decision template: a template is
  a function of the policy, the statement shape and fact *patterns*,
  none of which a write changes. What a write can falsify is a certified
  fact; every session retires those itself, from the database's change
  log, before its next decision (``repro.enforce.proxy``).
* **Observability** — per-stage latency histograms (parse / check /
  execute), cache and decision counters, and per-view allow counts.
  The ``decision_audit`` hook receives every statement's decision with
  the facts it stood on, so a template-free checker can re-decide it
  (``tests/conftest.py::reverify_audit``).

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
retired once its pin count drains to zero. A session's trace lives
*outside* the epoch, so a reload in the middle of a request leaves its
history in place. A new epoch's store starts with the templates of the
live one that its policy still proves, so a reload re-derives only what
it changed.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.proxy import EnforcementProxy, Session
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

    ``backend`` / ``db_path`` are *declarative*: they record which
    storage backend this deployment expects (and, for path-capable
    backends, where its file lives) so deployment configs can travel as
    one object. The gateway does not construct the database — the owner
    does, via :func:`repro.engine.open_database` — but it validates at
    startup that the database it was handed matches the declared
    backend, failing fast on a misconfigured deployment.
    """

    backend: str | None = None
    db_path: str | None = None

    def __post_init__(self) -> None:
        if self.db_path is not None and self.backend is None:
            raise ValueError("db_path requires an explicit backend")


class PolicyEpoch:
    """One policy generation: the policy plus everything derived from it —
    its :class:`~repro.relalg.compile.CompiledPolicy`, its one
    decision-template store (``shared_cache``), the checker that learns
    into that store, and the :class:`~repro.serve.batch.CheckBatcher` that
    funnels the sessions' misses to it (docs/compilation.md).

    Immutable once installed (the store fills, but never changes policy).
    The pin count tracks decisions currently executing under this epoch;
    :meth:`retire` blocks until they drain.

    ``live`` is the deciding epoch's store when this one is built by a
    reload: the new store starts with every template of it that ``policy``
    still proves (:meth:`~repro.enforce.cache.DecisionCache.carry_from`),
    counted in ``templates_carried`` / ``templates_dropped``.
    """

    def __init__(
        self,
        db: Database,
        policy: Policy,
        version: int = 1,
        provenance: str = "hand-written",
        live: DecisionCache | None = None,
    ):
        self.version = version
        self.policy = policy
        self.provenance = provenance
        # Compiled artifacts are built here — before the epoch is
        # installed — so a hot reload pays compilation pre-swap and the
        # install stays a pointer assignment (``lifecycle.swap_pause_us``).
        self.compiled: CompiledPolicy = compile_policy(db.schema, policy)
        #: The epoch's one decision-template store: sessions probe it once
        #: per statement, and the checker learns every miss into it.
        self.shared_cache = DecisionCache(policy)
        self.templates_carried = self.templates_dropped = 0
        if live is not None:
            self.templates_carried, self.templates_dropped = self.shared_cache.carry_from(
                live, self.compiled.relevant_relations
            )
        self.checker = ComplianceChecker(
            db.schema, policy, compiled=self.compiled, skeletons=self.shared_cache
        )
        #: Combining-lock batcher for miss checks.
        self.batcher = CheckBatcher(self.checker, self.shared_cache)
        self._lock = threading.Lock()
        self._pins = 0
        #: Set by the last unpin, made only while :meth:`retire` waits.
        self._drained: threading.Event | None = None

    # -- pinning ------------------------------------------------------------------

    def __enter__(self) -> "PolicyEpoch":
        with self._lock:
            self._pins += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._pins -= 1
            if self._pins == 0 and self._drained is not None:
                self._drained.set()

    def retire(self, timeout_s: float = 30.0) -> bool:
        """Wait for in-flight decisions to drain.

        Returns ``False`` when pinned decisions were still live at the
        deadline (a straggler still finishes under its own epoch's
        checker, so the decision stays untorn).
        """
        with self._lock:
            if self._pins == 0:
                return True
            if self._drained is None or self._drained.is_set():
                self._drained = threading.Event()
            drained = self._drained
        return drained.wait(timeout_s)

    def continue_counts_of(self, retired: "PolicyEpoch") -> None:
        """Start the store's and the compiled policy's event counters where
        ``retired``'s stand, so they stay cumulative across reloads.

        The batcher's (``batch_*``) still restart with each epoch: the
        benchmark's traced ``inproc_churn`` run derives
        ``serve.batch_gt1_share`` from their change over its timed
        section, and fails when that is zero, which a cumulative count
        is once a reload re-derives nothing."""
        self.shared_cache.continue_counts_of(retired.shared_cache)
        self.compiled.continue_counts_of(retired.compiled)

    def caches(self) -> list[DecisionCache]:
        """The store, as a list. Nothing in the program calls it: it stays
        for the benchmark's staged replay (``bench/tracing.py``), which
        evicts through it after each write."""
        return [self.shared_cache]


class EnforcementGateway:
    """Owns the shared cache and metrics; hands out one connection per
    request, and keeps none of them."""

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
        self._epoch = PolicyEpoch(db, policy)
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
    def shared_cache(self) -> DecisionCache:
        return self._epoch.shared_cache

    def build_epoch(
        self, policy: Policy, version: int, provenance: str = "hand-written"
    ) -> PolicyEpoch:
        """Construct (but do not install) an epoch for ``policy``.

        Doing the expensive part — policy compilation, checker
        construction, carrying over the live store's templates that
        ``policy`` still proves — *before* the swap keeps the install
        pause to a pointer assignment. A template the live store learns
        after this call is not carried; the new epoch re-derives it once.
        """
        return PolicyEpoch(
            self.db, policy, version, provenance, live=self._epoch.shared_cache
        )

    def install_epoch(self, epoch: PolicyEpoch) -> PolicyEpoch:
        """Atomically make ``epoch`` the deciding epoch; returns the old one.

        Taken under the write lock so two installs (a reload racing a
        rollback) serialize, and each new epoch continues its
        predecessor's counts exactly once. The caller is responsible
        for retiring the returned epoch (``old.retire()``), normally via
        :func:`repro.lifecycle.reload.hot_reload`.

        The new epoch continues the retiring epoch's event counts, so the
        cache and compile counters in :meth:`snapshot` never run backwards
        at a reload.
        """
        with self._write_lock:
            old, self._epoch = self._epoch, epoch
            epoch.continue_counts_of(old)
            self.metrics.increment("policy_reloads")
            self.metrics.increment("templates_carried", epoch.templates_carried)
        return old

    # -- session management -----------------------------------------------------

    def connect(
        self,
        session: Session | Mapping[str, object] | object,
        fresh: bool = True,
    ) -> EnforcementProxy:
        """Open a new session, on an empty trace, for one request.

        ``session`` may be a :class:`Session`, a bindings mapping, or a
        bare user id (bound to the conventional ``MyUId`` parameter).
        A binding whose value is not a JSON scalar is refused with a
        :class:`~repro.util.errors.DbacError`. ``fresh`` is accepted for
        older callers and ignored: every session is fresh.
        """
        session = self._normalize(session)
        session.validate()
        self.metrics.increment("sessions_opened")
        return EnforcementProxy(self, session)

    def close(self) -> None:
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
        store = epoch.shared_cache
        stats = store.stats()
        for name, value in stats.items():
            snapshot.counters[f"shared_cache_{name}"] = value
        # Top-level aliases (docs/compilation.md); the cluster router sums
        # these across shards, so numeric only.
        snapshot.counters["cache_stripe_contention"] = stats["stripe_contention"]
        snapshot.counters["compiled_hits"] = store.compiled_hits
        snapshot.counters["compile_misses"] = store.misses
        snapshot.counters["compiled_templates"] = store.size
        snapshot.counters["compiled_blocks"] = store.blocks_stored
        compiled_stats = epoch.compiled.stats()
        snapshot.counters["compiled_views"] = compiled_stats["views"]
        snapshot.counters["compiled_view_def_hits"] = compiled_stats["view_def_hits"]
        snapshot.counters["compiled_view_def_misses"] = compiled_stats["view_def_misses"]
        for name, value in epoch.batcher.stats().items():
            snapshot.counters[f"batch_{name}"] = value
        shadow = self.shadow
        if shadow is not None:
            for name, value in shadow.stats().items():
                snapshot.counters[f"shadow_{name}"] = value
        # Decision-audit loss accounting: an installed AuditStream's
        # subscriber-queue drops. Always present so STATS consumers can
        # alert on it.
        audit = self.decision_audit
        if audit is not None and hasattr(audit, "stats"):
            for name, value in audit.stats().items():
                snapshot.counters[f"audit_{name}"] = value
        for name in (
            "audit_dropped",
            "facts_retired", "statement_retries", "checks_over_budget", "templates_carried"
        ):
            snapshot.counters.setdefault(name, 0)
        # The containment memo counters.
        for name, value in memo.memo_stats().items():
            snapshot.counters[f"memo_{name}"] = value
        return snapshot

    def cache_hit_rate(self) -> float:
        """Store hits over probes, across reloads."""
        return self._epoch.shared_cache.hit_rate
