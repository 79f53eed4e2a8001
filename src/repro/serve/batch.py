"""Batched containment checking across gateway sessions.

:class:`CheckBatcher` funnels cache-miss compliance checks from all of a
gateway's session threads through a *combining lock*: the first thread
to arrive becomes the batch leader and checks inline (zero overhead when
uncontended — no dispatcher thread, no handoff); threads that arrive
while a check is running queue up, and the leader drains the whole queue
as one batch — per ticket, in arrival order, one probe of the store and,
if that misses, one :meth:`ComplianceChecker.check` — before releasing
the role.

Why batching pays: the epoch's checker learns every check into the
epoch's one template store, so the first fresh check of a statement
shape does the expensive containment search once, and a follower probes
that store again before its own check — its session missed before the
leader stored the answer. Under concurrent load the queue naturally
fills with the near-duplicate statements applications issue in bursts,
which is exactly the shape that amortizes. The leader never probes
again: its session has just missed.

Failure containment: a follower that has waited ``timeout_s`` without a
result (a wedged or crashed leader) detaches its ticket and runs the
check itself in-process (``fallbacks`` counter) — a slow batch can delay
a decision but never lose one.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Mapping

from repro.enforce.cache import DecisionCache
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import Decision
from repro.enforce.trace import Trace
from repro.sqlir import ast

#: Histogram bucket upper bounds (log2); the last bucket is open-ended.
_BUCKETS = (1, 2, 4, 8)


class _Ticket:
    __slots__ = (
        "stmt",
        "bindings",
        "trace",
        "skeleton",
        "event",
        "decision",
        "error",
        "taken",
    )

    def __init__(self, stmt, bindings, trace, skeleton=None):
        self.stmt = stmt
        self.bindings = bindings
        self.trace = trace
        self.skeleton = skeleton
        self.event = threading.Event()
        self.decision: Decision | None = None
        self.error: BaseException | None = None
        #: Set (under the batcher lock) when the leader claims the ticket;
        #: a timed-out follower only self-serves if its ticket was never
        #: taken, so a check is executed exactly once per ticket.
        self.taken = False


class CheckBatcher:
    """Combining-lock batcher over one epoch's compliance checker and the
    store it learns into."""

    def __init__(
        self, checker: ComplianceChecker, store: DecisionCache, timeout_s: float = 60.0
    ):
        self._checker = checker
        self._store = store
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._busy = False
        self._queue: deque[_Ticket] = deque()
        self.batches = 0
        self.checks = 0
        self.fallbacks = 0
        self._size_buckets = {bound: 0 for bound in _BUCKETS}

    def check(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        trace: Trace | None,
        skeleton=None,
    ) -> Decision:
        """Check one statement, batching with whatever else is queued.

        ``skeleton`` is an optional precomputed ``skeletonize(stmt)``
        (prepared-statement fast path) forwarded to the checker.
        """
        with self._lock:
            if not self._busy:
                self._busy = True
                ticket = None
            else:
                ticket = _Ticket(stmt, bindings, trace, skeleton)
                self._queue.append(ticket)
        if ticket is None:
            # Leader: check inline, then drain followers until quiet.
            try:
                self._observe(1)
                return self._checker.check(stmt, bindings, trace, skeleton=skeleton)
            finally:
                self._drain()
        if ticket.event.wait(self._timeout_s):
            if ticket.error is not None:
                raise ticket.error
            assert ticket.decision is not None
            return ticket.decision
        # Leader wedged (or a very long batch): detach and self-serve,
        # unless the leader claimed the ticket in the meantime — then the
        # result is coming, wait it out.
        with self._lock:
            orphaned = not ticket.taken
            if orphaned:
                try:
                    self._queue.remove(ticket)
                except ValueError:
                    orphaned = not ticket.taken  # claimed between checks
        if not orphaned:
            ticket.event.wait()
            if ticket.error is not None:
                raise ticket.error
            assert ticket.decision is not None
            return ticket.decision
        self.fallbacks += 1
        return self._follow(ticket)

    def _drain(self) -> None:
        """Leader duty: serve queued batches, then release the role."""
        while True:
            with self._lock:
                if not self._queue:
                    self._busy = False
                    return
                batch = list(self._queue)
                self._queue.clear()
                for ticket in batch:
                    ticket.taken = True
            self._observe(len(batch))
            for ticket in batch:
                try:
                    ticket.decision = self._follow(ticket)
                except BaseException as exc:  # noqa: BLE001 - relayed to waiter
                    ticket.error = exc
                ticket.event.set()

    def _follow(self, ticket: _Ticket) -> Decision:
        """A follower's decision: a template stored since its session
        missed, else its own check."""
        args = ticket.stmt, ticket.bindings, ticket.trace
        decision = self._store.lookup(*args, skeleton=ticket.skeleton)
        if decision is None:
            decision = self._checker.check(*args, skeleton=ticket.skeleton)
        return decision

    def _observe(self, size: int) -> None:
        self.batches += 1
        self.checks += size
        for bound in _BUCKETS:
            if size <= bound or bound == _BUCKETS[-1]:
                self._size_buckets[bound] += 1
                break

    def stats(self) -> dict[str, int]:
        """Flat counters (merged into the gateway snapshot as ``batch_*``)."""
        counters = {
            "batches": self.batches,
            "checks": self.checks,
            "fallbacks": self.fallbacks,
        }
        for bound, count in self._size_buckets.items():
            counters[f"size_{bound}"] = count
        return counters
