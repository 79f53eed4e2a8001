"""The in-memory backend: the original toy engine, re-homed.

Storage is the :class:`~repro.engine.table.Table` dict that used to live
inside ``Database``; execution is the AST-walking executor in
:mod:`repro.engine.executor`, which receives this backend as its ``db``
context (it needs only ``schema``, ``table()`` and ``changes``, where
UPDATE and DELETE log the rows they change). Snapshots are cheap
structural copies, which is what makes the active-learning extraction
loop fast.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.backend.base import EngineBackend
from repro.engine.schema import Schema, TableSchema
from repro.engine.table import Table
from repro.sqlir import ast
from repro.util.errors import EngineError


class MemoryBackend(EngineBackend):
    """Tables as Python dicts with per-column hash indexes."""

    name = "memory"

    def __init__(self, schema: Schema):
        super().__init__(schema)
        self._tables: dict[str, Table] = {
            name: Table(table_schema)
            for name, table_schema in schema.tables.items()
        }

    # -- storage primitives --------------------------------------------------------

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise EngineError(f"unknown table {name!r}")
        return self._tables[name]

    def create_table(self, table_schema: TableSchema) -> None:
        self._ensure_open()
        self._tables[table_schema.name] = Table(table_schema)

    def execute(self, stmt: ast.Statement) -> object:
        self._ensure_open()
        from repro.engine.executor import execute

        return execute(self, stmt)

    def insert_rows(self, table: str, rows: Sequence[Sequence[object]]) -> int:
        self._ensure_open()
        target = self.table(table)
        from repro.engine.executor import _check_foreign_keys

        for row in rows:
            _check_foreign_keys(self, target.schema, list(row))
            target.insert(list(row))
        return len(rows)

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        self._ensure_open()
        return {name: table.snapshot() for name, table in self._tables.items()}

    def restore(self, snapshot: object) -> None:
        self._ensure_open()
        assert isinstance(snapshot, dict)
        with self.changes.writing(None):
            for name, table_snapshot in snapshot.items():
                self._tables[name].restore(table_snapshot)

    # -- introspection -------------------------------------------------------------

    def row_count(self, table: str) -> int:
        return len(self.table(table))

    def relation_contents(self) -> dict[str, set[tuple]]:
        return {name: set(table.rows()) for name, table in self._tables.items()}
