"""The abstract storage-engine interface every backend implements.

An :class:`EngineBackend` is the *storage* half of a database: it owns
rows and executes **fully bound** statements (parameters already
substituted — parsing and binding are backend-independent and stay in
:class:`~repro.engine.database.Database`, which fronts exactly one
backend). The enforcement stack — proxy, gateway, wire tier — never
talks to a backend directly; it sees the ``Connection`` protocol, and
the compliance checker needs only the schema and trace facts, so
enforcement semantics are identical across backends by construction
(E15 verifies this empirically: zero allow/block disagreements between
the in-memory and SQLite backends on replayed workloads).

The contract, pinned by ``tests/engine/test_backend_contract.py`` for
every registered backend:

* ``execute(stmt)`` — run one bound DQL/DML statement; SELECT returns a
  :class:`~repro.engine.executor.Result`, DML an affected-row count.
  Integrity violations (primary key, foreign key, NOT NULL, value
  typing) raise :class:`~repro.util.errors.IntegrityError`; anything
  else engine-shaped raises :class:`~repro.util.errors.EngineError`.
* ``create_table(table_schema)`` — materialize storage for a table that
  was just added to the shared :class:`~repro.engine.schema.Schema`.
* ``insert_rows(table, rows)`` — bulk load (schema column order)
  bypassing SQL parsing; same integrity guarantees as ``execute``.
* ``snapshot()`` / ``restore(snapshot)`` — capture all contents as an
  *opaque* token and roll back to it later (the active-learning
  extraction loop mutates and restores repeatedly). Tokens are
  backend-specific; never introspect them.
* ``row_count`` / ``total_rows`` / ``relation_contents`` — row
  introspection; ``relation_contents`` returns rows per relation as
  sets, the shape the evaluators consume.
* ``close()`` — idempotent; any use after close raises ``EngineError``
  mentioning "closed".
* ``changes`` — a :class:`~repro.engine.changes.ChangeLog`. Whatever
  makes a row stop existing as it was — a DELETE, an UPDATE to different
  values, ``restore`` — logs it there before any reader can see the
  mutation (``ChangeLog.writing`` around it, or ``ChangeLog.record``
  inside a lock readers take); an INSERT and a write that changes no
  value log nothing. Sessions retire the trace facts those rows
  certified, so a backend that mutates without logging leaves stale
  facts behind.

Row *order* of a SELECT without ORDER BY is backend-defined; callers
that need determinism must say ORDER BY (the in-memory backend happens
to yield insertion order, SQLite yields rowid order).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import TYPE_CHECKING, ClassVar

from repro.engine.changes import ChangeLog
from repro.engine.schema import Schema, TableSchema
from repro.util.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Result
    from repro.engine.table import Table
    from repro.sqlir import ast


class EngineBackend(abc.ABC):
    """One storage engine behind a :class:`~repro.engine.database.Database`.

    Subclasses set ``name`` (the registry key, also surfaced over the
    wire in WELCOME/STATS) and implement the storage primitives; the
    shared close bookkeeping lives here so every backend refuses work
    after ``close()`` the same way.
    """

    #: Registry key; subclasses override (e.g. ``"memory"``, ``"sqlite"``).
    name: ClassVar[str] = "abstract"

    def __init__(self, schema: Schema):
        self.schema = schema
        self._closed = False
        self.changes = ChangeLog()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release storage resources. Idempotent."""
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineError(f"{self.name} backend is closed")

    # -- identity ----------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Wire-safe identity of this backend (WELCOME/STATS surface)."""
        return {"name": self.name}

    def table(self, name: str) -> "Table":
        """Direct row-storage access; only backends with in-process
        :class:`~repro.engine.table.Table` objects (memory) support it."""
        raise EngineError(
            f"backend {self.name!r} does not expose Table objects; go through sql()"
        )

    # -- storage primitives (the contract) ----------------------------------------

    @abc.abstractmethod
    def execute(self, stmt: "ast.Statement") -> "Result | int":
        """Execute one fully bound statement (never CREATE TABLE)."""

    @abc.abstractmethod
    def create_table(self, table_schema: TableSchema) -> None:
        """Materialize storage for a newly added table."""

    @abc.abstractmethod
    def insert_rows(self, table: str, rows: Sequence[Sequence[object]]) -> int:
        """Bulk insert rows (schema column order) bypassing SQL parsing."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Capture all table contents as an opaque token for :meth:`restore`."""

    @abc.abstractmethod
    def restore(self, snapshot: object) -> None:
        """Roll contents back to a token from :meth:`snapshot`."""

    @abc.abstractmethod
    def row_count(self, table: str) -> int:
        """Number of rows currently in ``table``."""

    @abc.abstractmethod
    def relation_contents(self) -> dict[str, set[tuple]]:
        """All rows per relation, as sets — the shape the evaluators use."""

    def total_rows(self) -> int:
        return sum(self.row_count(name) for name in self.schema.tables)
