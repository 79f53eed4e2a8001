"""Hot reload: swap a live gateway's policy without a restart.

The mechanism is the gateway's *policy epoch*
(:class:`~repro.serve.gateway.PolicyEpoch`): everything derived from the
policy — checker, decision-template store, miss batcher —
is one immutable bundle, and every decision pins the bundle it
started under for its whole duration. :func:`hot_reload` therefore:

1. **builds** the new epoch first (policy compilation, checker
   construction, carrying over the templates the new policy still
   proves — the expensive part happens while the old epoch keeps
   serving);
2. **installs** it under the gateway's write lock — a pointer swap, so
   the measured pause is microseconds; the lock serializes installs
   with each other (a reload racing a rollback), so each new store
   continues its predecessor's counts exactly once;
3. **retires** the old epoch — waits for its pinned in-flight decisions
   to drain.

No torn decisions: a decision that began under version *n* finishes
entirely under version *n* (its cache, its checker); the next
decision on the same session runs entirely under *n+1*. Session state is
untouched — connections and their traces live on the gateway, not the
epoch, so certified history survives the swap (and immediately gates
history-dependent decisions under the new policy).

The decision-template store keeps what the new policy still proves. A
template is a proof over policy views, compared across versions by
canonical definition, never by name. An Allow is carried when every view
its rewritings apply is still in the new policy. A Block is carried when
the new policy has no view the old one lacked, and the new policy's
relevance pass cannot leave its guard. A fragment Block is always
carried. So an identity reload or a rollback to an equal policy
re-derives nothing, a widening re-derives the Blocks, and a narrowing the
Allows that used a dropped view (docs/compliance.md, "Which templates
survive a reload"). The store's event counts carry over too, so STATS
stays cumulative.

:class:`LifecycleManager` ties this together with the registry, shadow
mode, and the promotion gates into the one object the net server's
admin verbs and the CLI talk to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.lifecycle.promote import GateConfig, PromotionReport, evaluate_gates
from repro.lifecycle.registry import PolicyRegistry, PolicyVersion, RegistryError
from repro.lifecycle.shadow import ShadowRunner
from repro.policy.policy import Policy
from repro.util.errors import DbacError


class LifecycleError(DbacError):
    """Raised for invalid lifecycle operations (no shadow to promote, …)."""


@dataclass
class ReloadReport:
    """What one hot reload did, for logs / STATS / the CLI."""

    old_version: int
    new_version: int
    fingerprint: str
    provenance: str
    swap_pause_s: float
    build_s: float
    #: Seconds spent compiling the policy inside the epoch build — paid
    #: pre-swap, never under the lock.
    compile_s: float
    drained: bool
    sessions_preserved: int
    trace_facts_preserved: int
    #: Decision templates of the old store the new policy still proves
    #: (kept) and those it does not (re-derived on demand).
    templates_carried: int = 0
    templates_dropped: int = 0

    def describe(self) -> str:
        return (
            f"reloaded policy v{self.old_version} → v{self.new_version}"
            f" ({self.provenance}, fingerprint {self.fingerprint}):"
            f" build {self.build_s * 1e3:.1f} ms"
            f" (compile {self.compile_s * 1e3:.1f} ms),"
            f" swap pause {self.swap_pause_s * 1e6:.0f} µs,"
            f" {self.sessions_preserved} sessions"
            f" / {self.trace_facts_preserved} trace facts preserved,"
            f" {self.templates_carried} templates carried"
            f" / {self.templates_dropped} dropped,"
            f" old epoch {'drained' if self.drained else 'NOT fully drained'}"
        )


def hot_reload(
    gateway,
    policy: Policy,
    version: int,
    provenance: str = "hand-written",
    drain_timeout_s: float = 30.0,
) -> ReloadReport:
    """Atomically make ``policy`` the gateway's deciding policy.

    Prefer :meth:`LifecycleManager.reload`, which also versions the
    policy through the registry; this function is the bare mechanism.
    """
    sessions = gateway.connections()
    build_started = time.perf_counter()
    epoch = gateway.build_epoch(policy, version, provenance)
    build_s = time.perf_counter() - build_started
    swap_started = time.perf_counter()
    old = gateway.install_epoch(epoch)
    swap_pause_s = time.perf_counter() - swap_started
    drained = old.retire(timeout_s=drain_timeout_s)
    return ReloadReport(
        old_version=old.version,
        new_version=epoch.version,
        fingerprint=epoch.policy.fingerprint(),
        provenance=provenance,
        swap_pause_s=swap_pause_s,
        build_s=build_s,
        compile_s=epoch.compiled.build_seconds,
        drained=drained,
        sessions_preserved=len(sessions),
        trace_facts_preserved=sum(len(c.trace.facts) for c in sessions),
        templates_carried=epoch.templates_carried,
        templates_dropped=epoch.templates_dropped,
    )


class LifecycleManager:
    """Registry + reload + shadow + promotion, bound to one gateway.

    The initial policy the gateway booted with is registered as the
    first version and recorded as active, so rollback is meaningful from
    the very first reload.
    """

    def __init__(
        self,
        gateway,
        registry: PolicyRegistry | None = None,
        gates: GateConfig | None = None,
    ):
        self.gateway = gateway
        self.registry = registry or PolicyRegistry()
        self.gates = gates or GateConfig()
        self._lock = threading.Lock()
        self._shadow_version: PolicyVersion | None = None
        self._last_promotion: PromotionReport | None = None
        boot = self.registry.register(
            gateway.policy, provenance="hand-written", label="boot"
        )
        # The gateway's boot epoch is version 1 by construction; keep the
        # registry's numbering aligned with the epochs'.
        assert boot.version == gateway.policy_version == 1
        self.registry.record_activation(boot.version)
        self.mining = None

    def enable_mining(self, config=None, stream=None):
        """Attach a :class:`repro.mining.MiningService` to this manager.

        The service is created stopped — call ``manager.mining.start()``
        (``repro serve --mine`` does both) to run the background loop, or
        drive ``run_once()`` by hand / over the MINE admin verb.
        """
        from repro.mining.service import MiningService

        if self.mining is not None:
            raise LifecycleError("mining service already attached")
        self.mining = MiningService(self.gateway, self, config=config, stream=stream)
        return self.mining

    # -- reload & rollback --------------------------------------------------------

    def reload(
        self,
        policy: Policy,
        provenance: str = "hand-written",
        label: str = "",
    ) -> ReloadReport:
        """Register ``policy`` as a new version and hot-swap it in."""
        with self._lock:
            registered = self.registry.register(policy, provenance, label)
            report = hot_reload(
                self.gateway, policy, registered.version, provenance
            )
            self.registry.record_activation(registered.version)
            return report

    def activate(self, version: int) -> ReloadReport:
        """Hot-swap to an already-registered version (used by rollback)."""
        with self._lock:
            return self._activate_locked(version)

    def _activate_locked(self, version: int) -> ReloadReport:
        target = self.registry.get(version)
        report = hot_reload(
            self.gateway, target.policy, target.version, target.provenance
        )
        self.registry.record_activation(target.version)
        return report

    def rollback(self) -> ReloadReport:
        """Restore the previously active version (same traces; the store
        keeps the templates the restored policy still proves)."""
        with self._lock:
            target = self.registry.rollback_target()
            report = self._activate_locked(target.version)
            self.gateway.metrics.increment("policy_rollbacks")
            return report

    # -- shadow mode --------------------------------------------------------------

    def start_shadow(
        self,
        candidate: Policy,
        provenance: str = "extracted",
        label: str = "",
    ) -> PolicyVersion:
        """Register a candidate and start checking it against live traffic."""
        with self._lock:
            if self.gateway.shadow is not None:
                raise LifecycleError(
                    "a shadow candidate is already running; stop or promote it first"
                )
            registered = self.registry.register(candidate, provenance, label)
            runner = ShadowRunner(self.gateway, candidate, registered.version)
            self._shadow_version = registered
            self.gateway.shadow = runner
            self.gateway.metrics.increment("shadow_starts")
            return registered

    def stop_shadow(self) -> dict[str, int]:
        """Tear shadow mode down; returns its final counters."""
        with self._lock:
            runner = self.gateway.shadow
            if runner is None:
                raise LifecycleError("no shadow candidate is running")
            runner.drain(timeout_s=10.0)
            stats = runner.stats()
            self.gateway.shadow = None
            self._shadow_version = None
            runner.close()
            return stats

    def shadow_status(self) -> dict[str, object] | None:
        runner = self.gateway.shadow
        if runner is None:
            return None
        status: dict[str, object] = dict(runner.stats())
        version = self._shadow_version
        if version is not None:
            status["fingerprint"] = version.fingerprint
            status["provenance"] = version.provenance
            status["label"] = version.label
        return status

    # -- promotion ----------------------------------------------------------------

    def promote(
        self, gates: GateConfig | None = None, drain_timeout_s: float = 30.0
    ) -> PromotionReport:
        """Promote the shadowed candidate if (and only if) every gate passes.

        On success the candidate becomes the active policy via
        :func:`hot_reload` and shadow mode ends; on failure shadow mode
        keeps running (the operator may gather more traffic or stop it)
        and the report carries per-divergence diagnoses.
        """
        with self._lock:
            runner = self.gateway.shadow
            version = self._shadow_version
            if runner is None or version is None:
                raise LifecycleError("no shadow candidate to promote")
            config = gates or self.gates
            runner.drain(timeout_s=drain_timeout_s)
            report = evaluate_gates(
                self.gateway.policy,
                runner.candidate,
                runner,
                config,
                self.gateway.db.schema,
                candidate_version=version.version,
            )
            self._last_promotion = report
            if not report.passed:
                self.gateway.metrics.increment("promotions_rejected")
                return report
            # Stop shadowing *before* the swap: once the candidate is
            # active, shadow-checking it against itself is noise.
            self.gateway.shadow = None
            self._shadow_version = None
            runner.close()
            hot_reload(
                self.gateway, runner.candidate, version.version, version.provenance
            )
            self.registry.record_activation(version.version)
            self.gateway.metrics.increment("promotions")
            report.promoted = True
            return report

    # -- status -------------------------------------------------------------------

    def status(self) -> dict[str, object]:
        """One JSON-able blob for STATS / the ``POLICY`` admin verb."""
        active = self.registry.get(self.gateway.policy_version)
        status: dict[str, object] = {
            "active_version": active.version,
            "fingerprint": active.fingerprint,
            "provenance": active.provenance,
            "label": active.label,
            "views": len(active.policy),
            "registered_versions": [pv.version for pv in self.registry.versions()],
            "activation_history": self.registry.activation_history(),
        }
        shadow = self.shadow_status()
        if shadow is not None:
            status["shadow"] = shadow
        if self.mining is not None:
            status["mining"] = self.mining.status()
        try:
            status["rollback_target"] = self.registry.rollback_target().version
        except RegistryError:
            status["rollback_target"] = None
        return status
