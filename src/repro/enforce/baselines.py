"""Baselines the benchmarks compare the proxy against.

* :class:`DirectConnection` — no access control; the lower bound on
  latency and the upper bound on disclosure.
* :class:`RowLevelSecurityProxy` — the classic query-modification
  approach (Stonebraker & Wong '74; Oracle VPD; Postgres RLS): every
  table reference gets the table's row predicate conjoined to the WHERE
  clause. This is the "Truman model" the paper contrasts with Blockaid's
  execute-as-is-or-block design (§2.2): queries silently return filtered
  answers rather than being vetted.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.engine.database import Database
from repro.engine.executor import Result
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_expression
from repro.util.errors import EngineError, PolicyError


class DirectConnection:
    """The same interface as the proxies, with no enforcement at all."""

    def __init__(self, db: Database):
        self.db = db
        self._closed = False

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        if self._closed:
            raise EngineError("connection is closed")
        return self.db.sql(sql, args, named)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        if self._closed:
            raise EngineError("connection is closed")
        return self.db.query(sql, args, named)

    def close(self) -> None:
        """Refuse further statements on this handle (idempotent);
        the underlying database stays open for other connections."""
        self._closed = True


class RowLevelSecurityProxy:
    """Query modification over per-table row predicates.

    ``predicates`` maps a table name to a predicate template over that
    table's columns, written with ``{T}`` standing for the table's alias,
    e.g. ``"{T}.UId = ?MyUId"``. Named parameters are bound from the
    session bindings at query time.
    """

    def __init__(
        self,
        db: Database,
        predicates: Mapping[str, str],
        bindings: Mapping[str, object],
    ):
        self.db = db
        self.bindings = dict(bindings)
        self._predicates: dict[str, str] = dict(predicates)
        self._closed = False
        for table in self._predicates:
            if table not in db.schema.tables:
                raise PolicyError(f"RLS predicate for unknown table {table!r}")

    def sql(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result | int:
        if self._closed:
            raise EngineError("connection is closed")
        stmt = self.db.parse(sql)
        if not isinstance(stmt, ast.Select):
            return self.db.sql(stmt, args, named)
        bound = bind_parameters(stmt, args, named)
        assert isinstance(bound, ast.Select)
        rewritten = self._rewrite(bound)
        return self.db.sql(rewritten)

    def query(
        self,
        sql: str | ast.Statement,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Result:
        stmt = self.db.parse(sql)
        if not isinstance(stmt, ast.Select):
            raise EngineError("query() requires a SELECT statement")
        result = self.sql(stmt, args, named)
        assert isinstance(result, Result)
        return result

    def close(self) -> None:
        """Refuse further statements on this handle (idempotent);
        the underlying database stays open for other connections."""
        self._closed = True

    def _rewrite(self, stmt: ast.Select) -> ast.Select:
        """Conjoin each referenced table's predicate to the WHERE clause."""
        extra: list[ast.Expr] = []
        for ref in stmt.tables():
            template = self._predicates.get(ref.name)
            if template is None:
                continue
            predicate = parse_expression(template.replace("{T}", ref.alias))
            predicate_stmt = ast.Select(
                items=(ast.SelectItem(ast.Literal(1)),),
                sources=(ast.TableRef.of("_rls"),),
                where=predicate,
            )
            bound = bind_parameters(predicate_stmt, named=self.bindings)
            assert isinstance(bound, ast.Select)
            assert bound.where is not None
            extra.append(bound.where)
        if not extra:
            return stmt
        conjuncts = list(extra)
        if stmt.where is not None:
            conjuncts.append(stmt.where)
        where = conjuncts[0] if len(conjuncts) == 1 else ast.BoolOp("AND", tuple(conjuncts))
        return ast.Select(
            items=stmt.items,
            sources=stmt.sources,
            joins=stmt.joins,
            where=where,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )
