"""The background mining service: audit tap → miner → shadow → promote.

One :class:`MiningService` is bound to a gateway and its
:class:`~repro.lifecycle.reload.LifecycleManager`. Each cycle
(:meth:`run_once`, driven by a background thread or an admin verb):

1. drains the audit subscription into the bounded mining window;
2. progresses any mined candidate currently in shadow — once it has
   enough live shadow checks it is promoted through the standard gates,
   and the outcome (promoted, or rejected with §5 diagnoses) is recorded
   in the per-candidate disposition audit;
3. when the shadow slot is free and the window is warm, runs the
   :class:`~repro.mining.miner.AuditMiner` and dispositions each new
   candidate: below the score floor → *parked*; above it → submitted to
   shadow (``auto_promote``) or parked awaiting MINE/APPROVE
   (``propose_only``).

Safety model (docs/mining.md): a mined candidate never reaches the
active epoch except through the same ShadowRunner + promotion gates an
operator-pushed candidate would face. Gap-fillers are gated with
``max_allow_to_block=0`` (widening is the point; breaking the
application is fatal) plus the deployment's disclosure suite; tightening
candidates are gated with zero divergences of any kind (a removed view
that live traffic actually needed flips allows to blocks and is
rejected, with diagnoses).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.lifecycle.promote import GateConfig
from repro.mining import config as settings
from repro.mining.config import MiningConfig
from repro.mining.miner import AuditMiner, MinedCandidate, clears_floor
from repro.mining.stream import AuditEntry, AuditStream
from repro.util.errors import DbacError


class MiningError(DbacError):
    """Raised for invalid mining-service operations."""


#: Loosened total-divergence budget for gap-fill promotion: the per-kind
#: ``max_allow_to_block=0`` cap is the real gate.
_GAP_FILL_DIVERGENCE_BUDGET = 1_000_000


class MiningService:
    """Continuous policy mining bound to one gateway + lifecycle manager."""

    def __init__(
        self,
        gateway,
        lifecycle,
        config: MiningConfig | None = None,
        stream: AuditStream | None = None,
    ):
        self.gateway = gateway
        self.lifecycle = lifecycle
        self.config = config or MiningConfig()
        self.miner = AuditMiner(gateway.db)
        self._lock = threading.RLock()
        self.stream = stream or AuditStream()
        if gateway.decision_audit is None:
            gateway.decision_audit = self.stream
        elif gateway.decision_audit is not self.stream:
            raise MiningError(
                "gateway.decision_audit is already taken by another hook;"
                " install the AuditStream first and pass it as stream="
            )
        self.subscription = self.stream.subscribe(cap=settings.SUBSCRIPTION_CAP)
        self._window: deque[AuditEntry] = deque(maxlen=settings.WINDOW_CAP)
        #: Every candidate ever mined or submitted, by content fingerprint.
        self.candidates: dict[str, MinedCandidate] = {}
        #: Append-only per-candidate disposition audit (why promoted /
        #: parked / rejected), newest last; bounded.
        self.disposition_log: deque[dict] = deque(maxlen=256)
        self._shadow_fingerprint: str | None = None
        self.cycles = 0
        self.mined_total = 0
        self.promoted = 0
        self.rejected = 0
        self.parked = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- the mining cycle ---------------------------------------------------------

    def run_once(self) -> dict:
        """One full cycle; returns a JSON-able summary of what happened."""
        with self._lock:
            self.cycles += 1
            drained = self.subscription.drain()
            self._window.extend(drained)
            progressed = self._progress_shadow()
            mined = []
            if self._shadow_fingerprint is None and (
                len(self._window) >= settings.MIN_WINDOW
            ):
                mined = self._mine_and_disposition()
            return {
                "cycle": self.cycles,
                "drained": len(drained),
                "window": len(self._window),
                "progressed": progressed,
                "mined": [c.fingerprint for c in mined],
            }

    def _mine_and_disposition(self) -> list[MinedCandidate]:
        report = self.miner.mine(
            self.gateway.policy,
            self.gateway.policy_version,
            list(self._window),
        )
        fresh: list[MinedCandidate] = []
        for candidate in report.candidates:
            known = self.candidates.get(candidate.fingerprint)
            if known is not None and known.status in (
                "promoted",
                "rejected",
                "shadowing",
            ):
                continue  # already dispositioned; don't thrash
            self.candidates[candidate.fingerprint] = candidate
            if known is None:
                self.mined_total += 1
                fresh.append(candidate)
                self._log(candidate, "mined", self._score_line(candidate))
            if not clears_floor(candidate):
                self._park(
                    candidate,
                    f"below score floor ({self._score_line(candidate)};"
                    f" floor support ≥ {settings.MIN_SUPPORT},"
                    f" confidence ≥ {settings.MIN_CONFIDENCE})",
                )
            elif self.config.mode != "auto_promote":
                self._park(candidate, "propose_only mode: awaiting MINE/APPROVE")
            elif self._shadow_fingerprint is not None:
                self._park(candidate, "shadow slot busy; will retry next cycle")
            else:
                self._submit(candidate)
        return fresh

    def _progress_shadow(self) -> dict | None:
        """Promote (or keep waiting on) the mined candidate in shadow."""
        fingerprint = self._shadow_fingerprint
        if fingerprint is None:
            return None
        candidate = self.candidates[fingerprint]
        runner = self.gateway.shadow
        if runner is not None:
            runner.drain(timeout_s=10.0)  # checks are async; count settled work
        status = self.lifecycle.shadow_status()
        if status is None:  # shadow torn down behind our back (operator)
            self._shadow_fingerprint = None
            self._park(candidate, "shadow stopped externally; re-parked")
            return {"fingerprint": fingerprint, "action": "re-parked"}
        gates = self._gates_for(candidate)
        if status["checks"] < gates.min_shadow_checks:
            return {
                "fingerprint": fingerprint,
                "action": "waiting",
                "checks": status["checks"],
                "required": gates.min_shadow_checks,
            }
        report = self.lifecycle.promote(gates=gates)
        if report.promoted:
            self.promoted += 1
            candidate.status = "promoted"
            candidate.disposition = (
                f"passed all gates after {status['checks']} shadow checks"
            )
            self._log(candidate, "promoted", candidate.disposition)
        else:
            self.rejected += 1
            candidate.status = "rejected"
            failed = [gate for gate in report.gates if not gate.passed]
            candidate.disposition = "; ".join(gate.describe() for gate in failed)
            candidate.diagnoses = tuple(report.diagnoses)
            self._log(
                candidate,
                "rejected",
                candidate.disposition,
                diagnoses=list(report.diagnoses),
            )
            self.lifecycle.stop_shadow()
        self._shadow_fingerprint = None
        return {"fingerprint": fingerprint, "action": candidate.status}

    # -- submission ---------------------------------------------------------------

    def approve(self, fingerprint: str) -> dict:
        """Operator approval: submit a parked/proposed candidate to shadow."""
        with self._lock:
            candidate = self.candidates.get(fingerprint)
            if candidate is None:
                raise MiningError(f"no mined candidate with fingerprint {fingerprint!r}")
            if candidate.status in ("shadowing", "promoted"):
                raise MiningError(
                    f"candidate {fingerprint} is already {candidate.status}"
                )
            if self._shadow_fingerprint is not None:
                raise MiningError(
                    "another mined candidate is already shadowing;"
                    " promote or stop it first"
                )
            self._log(candidate, "approved", "operator approved via MINE/APPROVE")
            self._submit(candidate)
            return candidate.to_wire()

    def submit(self, candidate: MinedCandidate) -> None:
        """Submit an externally-built candidate (tests, benchmarks)."""
        with self._lock:
            self.candidates[candidate.fingerprint] = candidate
            self._submit(candidate)

    def _submit(self, candidate: MinedCandidate) -> None:
        label = f"mined:{candidate.kind}:{candidate.fingerprint[:8]}"
        self.lifecycle.start_shadow(
            candidate.policy, provenance="mined", label=label
        )
        self._shadow_fingerprint = candidate.fingerprint
        candidate.status = "shadowing"
        candidate.disposition = f"submitted to shadow as {label}"
        self._log(candidate, "shadowing", candidate.disposition)

    def _park(self, candidate: MinedCandidate, reason: str) -> None:
        if candidate.status == "parked" and candidate.disposition == reason:
            return  # unchanged; don't spam the disposition log
        candidate.status = "parked"
        candidate.disposition = reason
        self.parked += 1
        self._log(candidate, "parked", reason)

    def _gates_for(self, candidate: MinedCandidate) -> GateConfig:
        """Kind-aware promotion gates (see the module docstring)."""
        base = self.lifecycle.gates
        if candidate.kind == "gap-fill":
            return GateConfig(
                max_divergences=_GAP_FILL_DIVERGENCE_BUDGET,
                max_allow_to_block=0,
                min_shadow_checks=base.min_shadow_checks,
                min_precision=0.0,  # widening is intended…
                min_recall=1.0,  # …losing coverage is not
                sensitive_suite=base.sensitive_suite,
            )
        return GateConfig(
            max_divergences=0,
            min_shadow_checks=base.min_shadow_checks,
            min_precision=1.0,  # narrowing must stay within the active policy
            min_recall=0.0,  # dropping an unexercised view lowers recall
            sensitive_suite=base.sensitive_suite,
        )

    # -- background loop ----------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`run_once` every ``interval_s`` on a daemon thread."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="mining-service", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.run_once()
            except DbacError:
                # A cycle may race an operator action (e.g. a concurrent
                # shadow start); the next cycle re-reads the world.
                continue

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=10.0)

    def close(self) -> None:
        self.stop()
        self.subscription.close()
        self.stream.close()

    # -- observability ------------------------------------------------------------

    def status(self) -> dict:
        """The miner section of STATS / MINE STATUS."""
        with self._lock:
            by_status: dict[str, int] = {}
            for candidate in self.candidates.values():
                by_status[candidate.status] = by_status.get(candidate.status, 0) + 1
            return {
                "mode": self.config.mode,
                "running": self._thread is not None,
                "cycles": self.cycles,
                "window": len(self._window),
                "mined_total": self.mined_total,
                "promoted": self.promoted,
                "rejected": self.rejected,
                "candidates": by_status,
                "shadowing": self._shadow_fingerprint,
                "miner_fingerprint": self.config.fingerprint(),
                "stream": self.stream.stats(),
                "floor": {
                    "min_support": settings.MIN_SUPPORT,
                    "min_confidence": settings.MIN_CONFIDENCE,
                },
            }

    def candidates_wire(self) -> list[dict]:
        """MINE/CANDIDATES payload, strongest evidence first."""
        with self._lock:
            return [
                candidate.to_wire()
                for candidate in sorted(
                    self.candidates.values(),
                    key=lambda c: (-c.support, c.fingerprint),
                )
            ]

    def disposition_audit(self) -> list[dict]:
        with self._lock:
            return list(self.disposition_log)

    def _log(
        self,
        candidate: MinedCandidate,
        action: str,
        reason: str,
        diagnoses: list[str] | None = None,
    ) -> None:
        entry = {
            "seq": len(self.disposition_log) + 1,
            "fingerprint": candidate.fingerprint,
            "kind": candidate.kind,
            "view": candidate.view_name,
            "action": action,
            "reason": reason,
        }
        if diagnoses:
            entry["diagnoses"] = diagnoses
        self.disposition_log.append(entry)

    @staticmethod
    def _score_line(candidate: MinedCandidate) -> str:
        return (
            f"{candidate.kind} {candidate.view_name}:"
            f" support {candidate.support:.4f},"
            f" confidence {candidate.confidence:.4f}"
        )
