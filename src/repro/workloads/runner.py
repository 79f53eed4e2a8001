"""The workload harness: apps, requests, and ways to run them.

A :class:`WorkloadApp` bundles everything experiments need about one
application: schema, data generator, DSL handlers, the hand-written
ground-truth policy, RLS predicates for the query-modification baseline,
and generators for compliant request streams and non-compliant "attack"
queries.

:class:`AppRunner` executes request streams against a connection mode
(direct / RLS / the enforcing gateway). Each request gets a connection
of its own, so trace history accumulates within one
handler invocation and never across two. Handlers only ever see the
:class:`~repro.engine.connection.Connection` protocol, so the runner is
backend-agnostic.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.enforce.decision import PolicyViolation
from repro.enforce.baselines import DirectConnection, RowLevelSecurityProxy
from repro.engine.connection import Connection
from repro.engine.database import Database
from repro.extract.handlers import Handler, HandlerOutcome, run_handler
from repro.policy.policy import Policy

if TYPE_CHECKING:  # avoid a hard import cycle with repro.serve
    from repro.serve.gateway import EnforcementGateway


@dataclass(frozen=True)
class Request:
    """One application request: a handler invocation for a session."""

    handler: str
    params: dict[str, object]
    session: dict[str, object]

    def __hash__(self) -> int:  # params/session are small plain dicts
        return hash(
            (
                self.handler,
                tuple(sorted(self.params.items())),
                tuple(sorted(self.session.items())),
            )
        )


@dataclass(frozen=True)
class WorkloadApp:
    """Everything the experiments need to know about one application."""

    name: str
    #: ``(size, seed, *, backend=None, db_path=None) -> Database``; backend
    #: selection flows through keyword-only args so positional callers are
    #: unaffected.
    make_database: Callable[..., Database]
    handlers: dict[str, Handler]
    ground_truth_policy: Callable[[], Policy]
    request_stream: Callable[[Database, random.Random, int], list[Request]]
    attack_queries: Callable[[Database, object], list[tuple[str, list]]]
    rls_predicates: dict[str, str] = field(default_factory=dict)
    session_params: dict[str, str] = field(default_factory=lambda: {"user_id": "MyUId"})
    default_size: int = 20

    def session_bindings(self, session: dict[str, object]) -> dict[str, object]:
        """Map a handler session dict to policy parameter bindings."""
        return {
            param: session[attr]
            for attr, param in self.session_params.items()
            if attr in session
        }


@dataclass
class RequestOutcome:
    """The result of running one request through the harness."""

    request: Request
    outcome: HandlerOutcome | None
    blocked: bool = False
    block_reason: str = ""


class AppRunner:
    """Runs request streams against an app in a chosen connection mode."""

    def __init__(
        self,
        app: WorkloadApp,
        db: Database,
        mode: str = "direct",
        gateway: "EnforcementGateway | None" = None,
    ):
        if mode not in ("direct", "rls", "gateway"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "gateway" and gateway is None:
            raise ValueError("gateway mode needs a gateway")
        self.app = app
        self.db = db
        self.mode = mode
        self.gateway = gateway
        self._direct = DirectConnection(db)

    def connection_for(self, session: dict[str, object]) -> Connection:
        """A new connection for one request of ``session``."""
        if self.mode == "direct":
            return self._direct
        bindings = self.app.session_bindings(session)
        if self.mode == "rls":
            return RowLevelSecurityProxy(self.db, self.app.rls_predicates, bindings)
        assert self.gateway is not None
        return self.gateway.connect(bindings)

    def run(self, request: Request) -> RequestOutcome:
        handler = self.app.handlers[request.handler]
        connection = self.connection_for(request.session)
        try:
            outcome = run_handler(handler, connection, request.params, request.session)
        except PolicyViolation as violation:
            return RequestOutcome(
                request=request,
                outcome=None,
                blocked=True,
                block_reason=str(violation),
            )
        return RequestOutcome(request=request, outcome=outcome)

    def run_all(self, requests: Sequence[Request]) -> list[RequestOutcome]:
        return [self.run(request) for request in requests]
