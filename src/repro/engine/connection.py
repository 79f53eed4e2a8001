"""The backend-agnostic connection interface.

Everything that serves application queries — the raw
:class:`~repro.engine.database.Database`, an enforcing session
(:class:`~repro.enforce.proxy.EnforcementProxy`, opened by
``EnforcementGateway.connect``), the RLS baseline, and the wire client —
exposes the same three methods, so
workload handlers and the serving layer never know (or care) which
backend they talk to:

* ``sql(sql, args, named)`` — parse, bind, and run one statement;
  returns a :class:`~repro.engine.executor.Result` for SELECTs and an
  affected-row count for writes.
* ``query(sql, args, named)`` — like ``sql`` but asserts a SELECT.
* ``close()`` — release per-connection state. The contract, shared by
  every implementation and pinned by
  ``tests/engine/test_connection_contract.py``: ``close()`` is
  **idempotent** (closing twice is a no-op, never an error) and a
  closed connection **refuses further statements** with an
  :class:`~repro.util.errors.EngineError` mentioning "closed". The
  in-memory backends hold no OS resources, but the network client does
  hold a socket, and uniform semantics keep every call site honest.

The protocol is ``runtime_checkable`` so tests can assert conformance
with ``isinstance``; structural typing means none of the implementations
need to inherit from it.

Prepared statements are an *optional extension* of the contract,
expressed as the separate :class:`PreparedConnection` protocol —
``prepare(sql)`` hoists a statement's per-shape work into a reusable
handle and ``execute_prepared(handle, args, named)`` runs it without
re-parsing (see ``docs/prepared.md``). It is deliberately not folded
into :class:`Connection`: ``runtime_checkable`` protocols check by
attribute presence, and existing third-party connection shims must keep
passing ``isinstance(conn, Connection)`` without growing new methods.
The local implementations (``Database``, ``EnforcementProxy`` sessions,
and the wire client) all satisfy both protocols; the handle
type differs per implementation (a
:class:`~repro.sqlir.prepared.PreparedPlan` in-process, a wire handle
over the network), which is why the extension protocol types it as an
opaque object.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Protocol, runtime_checkable

from repro.engine.executor import Result
from repro.sqlir import ast


@runtime_checkable
class Connection(Protocol):
    """What application code may assume about its database handle."""

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """Parse, bind, and execute one statement."""
        ...  # pragma: no cover - protocol signature

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        """Like :meth:`sql` but asserts a SELECT and returns its Result."""
        ...  # pragma: no cover - protocol signature

    def close(self) -> None:
        """Release per-connection state; further use is undefined."""
        ...  # pragma: no cover - protocol signature


@runtime_checkable
class PreparedConnection(Connection, Protocol):
    """Optional prepared-statement extension of :class:`Connection`.

    ``prepare`` returns an implementation-specific handle (opaque to the
    caller); ``execute_prepared`` accepts that handle plus per-request
    bindings. Implementations guarantee the prepared path is
    decision-equivalent to ``sql()`` — same allow/block outcome, same
    rows — it only skips re-doing per-shape work.
    """

    def prepare(self, sql: str | ast.Statement) -> object:
        """Hoist per-shape work for one statement into a reusable handle."""
        ...  # pragma: no cover - protocol signature

    def execute_prepared(
        self,
        plan: object,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """Bind and run a prepared handle without re-parsing."""
        ...  # pragma: no cover - protocol signature
