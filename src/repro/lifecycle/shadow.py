"""Shadow mode: trial a candidate policy against live traffic.

Every statement the gateway decides under the active policy is *also*
checked against the candidate, asynchronously and off the hot path, and
any divergence (an allow↔block flip) is captured with enough context to
diagnose it later. This is how a mined (§3) or patched (§5) policy earns
trust before promotion: the paper's lifecycle argument says a policy is
not just a set of views but a claim about what the application needs,
and live traffic is the cheapest oracle for that claim.

Soundness of the comparison rests on snapshotting: the active decision
was made against the session's trace *as of decision time*, so the
shadow check must see exactly those facts. ``submit`` copies
``trace.facts`` (an ordered tuple of at most ``max_facts`` atoms) on the
session's own thread right after the active decision, and the check
replays against :meth:`Trace.from_facts <repro.enforce.trace.Trace.from_facts>`
of that tuple, even though the live trace has moved on by the time the
shadow check runs.

Checks run on a single in-process checker thread bound to the candidate.

Backpressure drops rather than blocks: when ``MAX_PENDING``
shadow checks are queued, new submissions are counted as ``dropped`` and
skipped. The hot path never waits on shadow mode.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.policy.policy import Policy
from repro.sqlir import ast

#: Queued shadow checks past which new submissions are dropped.
MAX_PENDING = 512
#: Most recent divergences a :class:`DivergenceLog` keeps.
DIVERGENCE_LOG_CAP = 256


@dataclass(frozen=True)
class Divergence:
    """One allow↔block flip between the active and candidate policies.

    Carries the bound statement and the decision-time fact snapshot so a failed
    promotion gate can hand the exact situation to ``repro.diagnose``.
    """

    sql: str
    stmt: ast.Select
    bindings: tuple[tuple[str, object], ...]
    active_allowed: bool
    candidate_allowed: bool
    active_version: int
    candidate_version: int
    facts: tuple = ()

    @property
    def trace_len(self) -> int:
        return len(self.facts)

    @property
    def kind(self) -> str:
        return "allow_to_block" if self.active_allowed else "block_to_allow"

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.sql} [bindings={dict(self.bindings)!r},"
            f" trace_len={self.trace_len}, active v{self.active_version}"
            f" {'ALLOW' if self.active_allowed else 'BLOCK'},"
            f" candidate v{self.candidate_version}"
            f" {'ALLOW' if self.candidate_allowed else 'BLOCK'}]"
        )


class DivergenceLog:
    """Bounded, thread-safe log of divergences plus running counters.

    The deque keeps the most recent ``DIVERGENCE_LOG_CAP`` divergences
    (oldest evicted); the counters keep exact totals regardless, so the
    promotion gate can enforce "≤ threshold divergences over ≥ N checks"
    even after eviction.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: deque[Divergence] = deque(maxlen=DIVERGENCE_LOG_CAP)
        self.checks = 0
        self.divergences = 0
        self.allow_to_block = 0
        self.block_to_allow = 0
        self.errors = 0

    def record_check(self) -> None:
        with self._lock:
            self.checks += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record(self, divergence: Divergence) -> None:
        with self._lock:
            self._entries.append(divergence)
            self.divergences += 1
            if divergence.kind == "allow_to_block":
                self.allow_to_block += 1
            else:
                self.block_to_allow += 1

    def entries(self) -> list[Divergence]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "checks": self.checks,
                "divergences": self.divergences,
                "allow_to_block": self.allow_to_block,
                "block_to_allow": self.block_to_allow,
                "errors": self.errors,
            }


class ShadowRunner:
    """Runs candidate-policy checks alongside the active gateway path.

    Installed as ``gateway.shadow``; every session calls :meth:`submit`
    once per statement the active policy decided
    (:meth:`~repro.enforce.proxy.EnforcementProxy._conclude`). One worker
    thread drains the queue in submission order.
    """

    def __init__(
        self,
        gateway,
        candidate: Policy,
        candidate_version: int,
    ):
        self.gateway = gateway
        self.candidate = candidate
        self.candidate_version = candidate_version
        self.log = DivergenceLog()
        self._checker = ComplianceChecker(gateway.db.schema, candidate)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="shadow-checker"
        )
        self._condition = threading.Condition()
        self._submitted = 0
        self._done = 0
        self._dropped = 0
        self._closed = False

    # -- the hot-path entry point -------------------------------------------------

    def submit(self, connection, bound: ast.Select, active_decision) -> bool:
        """Queue one shadow check; never blocks the calling session.

        Returns ``False`` when the check was shed (queue full or runner
        closed). Snapshots everything mutable *now*, on the caller's
        thread: the trace's facts, the bindings, and the active verdict.
        """
        with self._condition:
            if self._closed:
                return False
            if self._submitted - self._done >= MAX_PENDING:
                self._dropped += 1
                return False
            self._submitted += 1
        self._executor.submit(
            self._run_check,
            dict(connection.session.bindings),
            bound,
            active_decision.sql,
            active_decision.allowed,
            active_decision.policy_version or 0,
            connection.trace.facts,
        )
        return True

    # -- the shadow thread --------------------------------------------------------

    def _run_check(
        self,
        bindings: dict,
        bound: ast.Select,
        sql: str,
        active_allowed: bool,
        active_version: int,
        facts: tuple,
    ) -> None:
        try:
            trace = Trace.from_facts(facts)
            candidate_allowed = self._checker.check(bound, bindings, trace).allowed
        except Exception:
            self.log.record_error()
        else:
            self.log.record_check()
            if candidate_allowed != active_allowed:
                self.log.record(
                    Divergence(
                        sql=sql,
                        stmt=bound,
                        bindings=tuple(sorted(bindings.items())),
                        active_allowed=active_allowed,
                        candidate_allowed=candidate_allowed,
                        active_version=active_version,
                        candidate_version=self.candidate_version,
                        facts=facts,
                    )
                )
        finally:
            with self._condition:
                self._done += 1
                self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until every submitted shadow check has completed."""
        import time

        deadline = time.monotonic() + timeout_s
        with self._condition:
            while self._done < self._submitted:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._condition.wait(timeout=remaining)
        return True

    def close(self) -> None:
        with self._condition:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)

    def stats(self) -> dict[str, int]:
        flat = self.log.stats()
        with self._condition:
            flat["submitted"] = self._submitted
            flat["dropped"] = self._dropped
            flat["pending"] = self._submitted - self._done
        flat["candidate_version"] = self.candidate_version
        return flat
