"""The Database object: parse/bind front end over a pluggable backend.

``Database`` owns everything backend-*independent* — SQL parsing and
per-shape analysis (one bounded table of prepared plans, keyed by SQL
text), parameter binding, CREATE TABLE schema evolution — and delegates
storage and execution to an
:class:`~repro.engine.backend.EngineBackend`. The enforcement stack
layers over ``sql()`` regardless of which backend is underneath; see
``docs/backends.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence

from repro.engine.backend.base import EngineBackend
from repro.engine.executor import Result
from repro.engine.schema import Schema, TableSchema
from repro.engine.table import Table
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_sql
from repro.sqlir.prepared import PreparedPlan, prepare_plan
from repro.sqlir.printer import to_sql
from repro.util.errors import EngineError

#: Plans the text-keyed table holds before it evicts the least recently
#: used: an application that inlines literals into its SQL sends a new
#: text per request, and must cost a parse each time, not memory forever.
PLAN_TABLE_CAP = 4096


class Database:
    """A database instance: one schema, one storage backend.

    ``sql()`` is the application-facing entry point: it resolves the
    text's plan (parsed once, kept in the plan table), binds parameters,
    and executes on the backend. The enforcement proxy exposes the same
    signature, so application code is written once and runs with or
    without access control.

    ``backend`` may be an :class:`~repro.engine.backend.EngineBackend`
    instance (adopted as-is; its schema wins if ``schema`` is None), a
    registry name like ``"sqlite"`` (constructed via
    :func:`~repro.engine.backend.create_backend`, with ``path`` passed
    through), or None for the in-memory default. Prefer
    :func:`~repro.engine.backend.open_database` at call sites — it also
    honors the ``REPRO_BACKEND`` environment override; the bare
    constructor deliberately does not, so engine tests pin the backend
    they mean.
    """

    def __init__(
        self,
        schema: Schema | None = None,
        backend: EngineBackend | str | None = None,
        *,
        path: str | None = None,
    ):
        if isinstance(backend, EngineBackend):
            if schema is not None and backend.schema is not schema:
                raise EngineError(
                    "backend was built for a different schema; pass schema=None"
                )
            self.schema = backend.schema
            self._backend = backend
        else:
            self.schema = schema or Schema()
            if backend is None:
                from repro.engine.backend.memory import MemoryBackend

                if path is not None:
                    raise EngineError(
                        "path= requires a path-capable backend (e.g. 'sqlite')"
                    )
                self._backend = MemoryBackend(self.schema)
            else:
                from repro.engine.backend.registry import create_backend

                self._backend = create_backend(backend, self.schema, path=path)
        #: SQL text -> its plan, least recently used first. The one
        #: text-keyed table: ``parse``, ``sql``, ``prepare`` and every
        #: front end layered over them resolve a text here.
        self._plans: OrderedDict[str, PreparedPlan] = OrderedDict()
        self._plans_lock = threading.Lock()
        self._closed = False

    # -- backend identity --------------------------------------------------------

    @property
    def backend(self) -> EngineBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # -- schema management -----------------------------------------------------

    def create_table(self, table_schema: TableSchema) -> None:
        self.schema.add(table_schema)
        self._backend.create_table(table_schema)

    def table(self, name: str) -> Table:
        """Direct row-storage access (memory backend only)."""
        return self._backend.table(name)

    # -- data access -------------------------------------------------------------

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """Parse, bind, and execute one statement."""
        return self._execute(self.parse(sql), args, named)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        """Like :meth:`sql` but refuses anything except a SELECT — before
        executing it, so a rejected write leaves the data untouched."""
        stmt = self.parse(sql)
        if not isinstance(stmt, ast.Select):
            raise EngineError("query() requires a SELECT statement")
        result = self._execute(stmt, args, named)
        assert isinstance(result, Result)
        return result

    # -- prepared statements -----------------------------------------------------

    def prepare(self, sql: str | ast.Statement) -> PreparedPlan:
        """The statement's plan: parsed once, shape analysis hoisted.

        Every caller of one SQL text gets the same plan while the table
        holds it (``PLAN_TABLE_CAP``, least recently used out first); a
        caller that keeps a plan — a wire PREPARE handle — can execute it
        whether or not the table still does. A statement object has no
        text to key on and gets a plan of its own.

        The raw database has no checker, so the plan's skeleton is
        unused here — but :meth:`prepare`/:meth:`execute_prepared` keep
        the same surface as the enforcement proxy and the wire client,
        letting application code prepare against any Connection-shaped
        handle (see ``docs/prepared.md``).
        """
        if not isinstance(sql, str):
            return prepare_plan(sql, to_sql(sql))
        plans = self._plans
        with self._plans_lock:
            plan = plans.get(sql)
            if plan is not None:
                plans.move_to_end(sql)
                return plan
        plan = prepare_plan(parse_sql(sql), sql)  # pure work, outside the lock
        with self._plans_lock:
            plans[sql] = plan
            while len(plans) > PLAN_TABLE_CAP:
                plans.popitem(last=False)
        return plan

    def execute_prepared(
        self,
        plan: PreparedPlan,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        """Bind and execute a prepared plan, skipping the parse."""
        return self._execute(plan.statement, args, named)

    def execute_bound(self, bound: ast.Statement) -> Result | int:
        """Execute a statement that is already bound (``plan.bind(...)``):
        for a front end that needed the bound statement itself, to vet
        it, and must not pay for binding it again."""
        if self._closed:
            raise EngineError("connection is closed")
        return self._backend.execute(bound)

    def _execute(
        self,
        stmt: ast.Statement,
        args: Sequence[object],
        named: Mapping[str, object] | None,
    ) -> Result | int:
        """The one bind path: ground ``stmt`` and run it on the backend."""
        if self._closed:
            raise EngineError("connection is closed")
        if isinstance(stmt, ast.CreateTable):
            self.create_table(Schema.from_create_statements([stmt]).table(stmt.name))
            return 0
        return self._backend.execute(bind_parameters(stmt, args, named))

    def parse(self, sql: str | ast.Statement) -> ast.Statement:
        """The parsed statement of one SQL text (a statement object passes
        through): the ``statement`` of its plan in the plan table.

        Public because every front end layered over the database — the
        RLS baseline, tooling, the benchmark's staged replay — needs the
        parsed statement *before* deciding what to do with it, and all of
        them should share the one table.
        """
        if isinstance(sql, ast.Statement):
            return sql
        return self.prepare(sql).statement

    def close(self) -> None:
        """Connection-protocol close: refuse further statements and release
        backend resources. Idempotent.

        The ``Connection`` contract (one all implementations share,
        tested in ``tests/engine/test_connection_contract.py``) is that
        a closed connection refuses further statements rather than
        limping on.
        """
        self._closed = True
        self._backend.close()

    def insert_rows(self, table: str, rows: Sequence[Sequence[object]]) -> int:
        """Bulk insert rows (schema column order) bypassing SQL parsing."""
        return self._backend.insert_rows(table, rows)

    # -- snapshots (used by active-learning extraction) ---------------------------

    def snapshot(self) -> object:
        """Capture all table contents as an opaque token for :meth:`restore`."""
        return self._backend.snapshot()

    def restore(self, snapshot: object) -> None:
        self._backend.restore(snapshot)

    # -- introspection --------------------------------------------------------------

    def row_count(self, table: str) -> int:
        return self._backend.row_count(table)

    def total_rows(self) -> int:
        return self._backend.total_rows()

    def relation_contents(self) -> dict[str, set[tuple]]:
        """All rows per relation, as sets — the shape the evaluators use."""
        return self._backend.relation_contents()
