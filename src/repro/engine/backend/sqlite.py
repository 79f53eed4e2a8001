"""The stdlib-``sqlite3`` backend: a real database behind the proxy.

This is what lets the enforcement stack front millions of durable rows
(the Blockaid deployment shape) instead of the toy in-memory engine:
statements in our SQL IR are compiled to SQLite SQL with **positional
parameter binding** (every literal becomes a ``?``; nothing is spliced
into SQL text), integrity is delegated to SQLite itself
(``PRAGMA foreign_keys = ON``, declared PRIMARY KEY / NOT NULL), and
snapshot/restore run as single transactions.

Dialect fidelity notes (the contract suite and the E15 agreement run
hold the line where it matters):

* **Types** — SQLite is dynamically typed, so INSERTed values are
  checked against the declared column types with the same
  :func:`~repro.engine.types.check_value` the in-memory engine uses;
  BOOL columns are declared ``BOOLEAN`` and round-tripped back to
  Python bools via a declared-type converter.
* **Division** — our engine's ``/`` is real division; SQLite's integer
  ``/`` truncates, so the compiler emits ``CAST(x AS REAL) / y``.
  Division by zero yields NULL here but raises in the in-memory engine.
* **Row order** — SELECT without ORDER BY returns rowid order, which
  matches the in-memory engine's insertion order except for tables
  whose single INTEGER primary key aliases the rowid (then it is PK
  order). Order-sensitive callers must say ORDER BY.
* **Threading** — one connection guarded by an RLock; the serving
  gateway's concurrent readers serialize here (SQLite serializes
  writers anyway). Fine for benchmarking enforcement overhead, which
  dwarfs queue time at our scales.
* **Changed rows** — inside the lock, an UPDATE reads the matching rows
  before it runs and compares them, by ``rowid``, with the rows its
  ``RETURNING`` clause gives back; a DELETE's ``RETURNING`` rows are the
  removed rows. The old image of every row whose values changed is
  logged (``EngineBackend.changes``) before the lock is released, so no
  reader sees the change before the log does. A commit by *another*
  connection to a shared file is seen after each SELECT as a change of
  ``PRAGMA data_version``; which rows it touched is unknown here, so it
  is logged as "anything may have changed".
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Sequence

from repro.engine.backend.base import EngineBackend
from repro.engine.changes import changed
from repro.engine.executor import Result
from repro.engine.schema import Schema, TableSchema
from repro.engine.types import ColumnType, check_value
from repro.sqlir import ast
from repro.util.errors import EngineError, IntegrityError
from repro.util.text import comma_join

#: Declared-type names, chosen so BOOL survives the round trip via the
#: converter below (sqlite3's PARSE_DECLTYPES applies it to any result
#: column whose *declared* type is BOOLEAN; computed expressions keep
#: SQLite's native 0/1).
_TYPE_NAMES = {
    ColumnType.INT: "INTEGER",
    ColumnType.TEXT: "TEXT",
    ColumnType.REAL: "REAL",
    ColumnType.BOOL: "BOOLEAN",
}

sqlite3.register_converter("BOOLEAN", lambda raw: raw not in (b"0", b""))


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SqliteBackend(EngineBackend):
    """Durable (or ``:memory:``) storage via the stdlib ``sqlite3``."""

    name = "sqlite"

    def __init__(self, schema: Schema, path: str | None = None):
        super().__init__(schema)
        self.path = path or ":memory:"
        self._lock = threading.RLock()
        self._image_texts: dict[str, tuple[str, str]] = {}
        self._conn = sqlite3.connect(
            self.path,
            check_same_thread=False,
            detect_types=sqlite3.PARSE_DECLTYPES,
        )
        self._conn.execute("PRAGMA foreign_keys = ON")
        if path is not None:
            # File-backed databases may be shared by a whole shard fleet
            # (cluster --backend sqlite --db-path): WAL lets N readers proceed
            # under the single writer, and the busy timeout absorbs
            # seed-time write contention instead of surfacing
            # "database is locked" immediately.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA busy_timeout = 10000")
        for table_schema in schema.tables.values():
            self._create(table_schema)
        self._conn.commit()
        #: Another connection's commits move it; None for ``:memory:``,
        #: which nothing else can open.
        self._data_version = None if path is None else self._read_data_version()

    # -- identity ------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "path": self.path}

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._conn.close()

    # -- DDL -----------------------------------------------------------------------

    def create_table(self, table_schema: TableSchema) -> None:
        self._ensure_open()
        with self._lock, self._conn:
            self._create(table_schema)

    def _create(self, table_schema: TableSchema) -> None:
        """``CREATE TABLE IF NOT EXISTS`` — reopening a durable file keeps
        its data; the caller is responsible for schema compatibility."""
        defs = []
        for column in table_schema.columns:
            pieces = [_quote_ident(column.name), _TYPE_NAMES[column.type]]
            if not column.nullable:
                pieces.append("NOT NULL")
            defs.append(" ".join(pieces))
        if table_schema.primary_key:
            keys = comma_join(_quote_ident(c) for c in table_schema.primary_key)
            defs.append(f"PRIMARY KEY ({keys})")
        for fk in table_schema.foreign_keys:
            defs.append(
                f"FOREIGN KEY ({_quote_ident(fk.column)}) REFERENCES"
                f" {_quote_ident(fk.ref_table)} ({_quote_ident(fk.ref_column)})"
            )
        ddl = (
            f"CREATE TABLE IF NOT EXISTS {_quote_ident(table_schema.name)}"
            f" ({comma_join(defs)})"
        )
        self._conn.execute(ddl)

    # -- execution -----------------------------------------------------------------

    def execute(self, stmt: ast.Statement) -> Result | int:
        self._ensure_open()
        if isinstance(stmt, ast.Select):
            sql_text, params = compile_statement(stmt)
            with self._lock:
                cursor = self._run(sql_text, params)
                rows = [tuple(row) for row in cursor.fetchall()]
                columns = (
                    [d[0] for d in cursor.description] if cursor.description else []
                )
                if self._data_version is not None:
                    self._notice_other_commits()
            return Result(columns=self._output_names(stmt, columns), rows=rows)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Update) or isinstance(stmt, ast.Delete):
            sql_text, params = compile_statement(stmt)
            select, returning = self._image_sql(stmt.table)
            with self._lock, self._conn:
                before = (
                    self._matching_rows(select, stmt.where)
                    if isinstance(stmt, ast.Update)
                    else {}
                )
                written = self._run_all(sql_text + returning, params)
                if isinstance(stmt, ast.Update):
                    after = {row[0]: tuple(row[1:]) for row in written}
                    old_rows = [
                        row
                        for rowid, row in before.items()
                        if rowid not in after or changed(row, after[rowid])
                    ]
                else:
                    old_rows = [tuple(row[1:]) for row in written]
                self.changes.record(stmt.table, old_rows)
            return len(written)
        raise EngineError(f"cannot execute {type(stmt).__name__}")

    def _matching_rows(self, select: str, where: ast.Expr | None) -> dict[int, tuple]:
        """rowid -> row of the rows ``select`` (a table's image query)
        reads where ``where`` holds."""
        compiler = _Compiler()
        text = select
        if where is not None:
            text += f" WHERE {compiler.expr(where)}"
        return {row[0]: tuple(row[1:]) for row in self._run(text, compiler.params)}

    def _read_data_version(self) -> int:
        return self._conn.execute("PRAGMA data_version").fetchone()[0]

    def _notice_other_commits(self) -> None:
        """Log "anything may have changed" when another connection has
        committed to the file since the last look (this connection's own
        commits leave ``data_version`` alone). Called after a read, so a
        commit landing before or during it is noticed by the session
        that read."""
        version = self._read_data_version()
        if version != self._data_version:
            self._data_version = version
            self.changes.record(None)

    def _run(self, sql_text: str, params: Sequence[object]) -> sqlite3.Cursor:
        try:
            return self._conn.execute(sql_text, tuple(params))
        except sqlite3.IntegrityError as exc:
            raise IntegrityError(f"sqlite integrity violation: {exc}") from exc
        except sqlite3.Error as exc:
            raise EngineError(f"sqlite error: {exc}") from exc

    def _run_all(self, sql_text: str, params: Sequence[object]) -> list:
        """``_run`` and fetch every row: a statement with ``RETURNING`` may
        fail on a later row than the first."""
        try:
            return self._run(sql_text, params).fetchall()
        except sqlite3.IntegrityError as exc:
            raise IntegrityError(f"sqlite integrity violation: {exc}") from exc
        except sqlite3.Error as exc:
            raise EngineError(f"sqlite error: {exc}") from exc

    def _output_names(self, stmt: ast.Select, cursor_names: list[str]) -> list[str]:
        """Result column names matching the in-memory engine's conventions
        (bare column names, ``colN`` for unnamed expressions)."""
        names: list[str] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                aliases = (
                    [item.expr.table]
                    if item.expr.table is not None
                    else [ref.alias for ref in stmt.tables()]
                )
                alias_to_name = {ref.alias: ref.name for ref in stmt.tables()}
                for alias in aliases:
                    names.extend(self.schema.table(alias_to_name[alias]).column_names)
                continue
            name = item.alias or (
                item.expr.name
                if isinstance(item.expr, ast.Column)
                else f"col{len(names)}"
            )
            names.append(name)
        if len(names) != len(cursor_names):  # defensive: fall back to sqlite's
            return cursor_names
        return names

    def _execute_insert(self, stmt: ast.Insert) -> int:
        """INSERT with the same width/typing/unknown-column checks the
        in-memory executor applies, then one parameterized statement."""
        table_schema = self.schema.table(stmt.table)
        checked_rows: list[tuple] = []
        for row_exprs in stmt.rows:
            if stmt.columns is not None:
                if len(row_exprs) != len(stmt.columns):
                    raise EngineError("INSERT row width does not match column list")
                provided = dict(
                    zip(stmt.columns, (_literal_value(e) for e in row_exprs))
                )
                unknown = set(provided) - set(table_schema.column_names)
                if unknown:
                    raise IntegrityError(f"unknown INSERT columns {sorted(unknown)}")
                values = [provided.get(c.name) for c in table_schema.columns]
            else:
                if len(row_exprs) != len(table_schema.columns):
                    raise EngineError("INSERT row width does not match table")
                values = [_literal_value(e) for e in row_exprs]
            checked_rows.append(self._check_row(table_schema, values))
        with self._lock, self._conn:
            cursor = self._conn.cursor()
            sql_text = self._insert_sql(table_schema)
            try:
                cursor.executemany(sql_text, checked_rows)
            except sqlite3.IntegrityError as exc:
                raise IntegrityError(f"sqlite integrity violation: {exc}") from exc
            except sqlite3.Error as exc:
                raise EngineError(f"sqlite error: {exc}") from exc
        return len(checked_rows)

    def _insert_sql(self, table_schema: TableSchema) -> str:
        columns = comma_join(_quote_ident(c) for c in table_schema.column_names)
        slots = comma_join("?" for _ in table_schema.columns)
        return (
            f"INSERT INTO {_quote_ident(table_schema.name)} ({columns})"
            f" VALUES ({slots})"
        )

    def _check_row(self, table_schema: TableSchema, values: Sequence[object]) -> tuple:
        if len(values) != len(table_schema.columns):
            raise IntegrityError(
                f"table {table_schema.name!r} expects {len(table_schema.columns)}"
                f" values, got {len(values)}"
            )
        checked = []
        for value, column in zip(values, table_schema.columns):
            coerced = check_value(value, column.type, column.name)
            if coerced is None and not column.nullable:
                raise IntegrityError(
                    f"column {column.name!r} of {table_schema.name!r} is NOT NULL"
                )
            checked.append(coerced)
        return tuple(checked)

    # -- bulk load -----------------------------------------------------------------

    def insert_rows(self, table: str, rows: Sequence[Sequence[object]]) -> int:
        self._ensure_open()
        table_schema = self.schema.table(table)
        checked = [self._check_row(table_schema, row) for row in rows]
        with self._lock, self._conn:
            cursor = self._conn.cursor()
            try:
                cursor.executemany(self._insert_sql(table_schema), checked)
            except sqlite3.IntegrityError as exc:
                raise IntegrityError(f"sqlite integrity violation: {exc}") from exc
            except sqlite3.Error as exc:
                raise EngineError(f"sqlite error: {exc}") from exc
        return len(checked)

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self) -> dict[str, list[tuple]]:
        self._ensure_open()
        with self._lock:
            return {
                name: [tuple(row) for row in self._select_all(name)]
                for name in self.schema.tables
            }

    def restore(self, snapshot: object) -> None:
        """Replace all contents in one transaction (FK checks deferred to
        commit, so restore order does not matter)."""
        self._ensure_open()
        assert isinstance(snapshot, dict)
        with self._lock, self._conn:
            self._conn.execute("PRAGMA defer_foreign_keys = ON")
            for name, rows in snapshot.items():
                table_schema = self.schema.table(name)
                self._conn.execute(f"DELETE FROM {_quote_ident(name)}")
                self._conn.executemany(
                    self._insert_sql(table_schema), [tuple(row) for row in rows]
                )
            self.changes.record(None)

    # -- introspection -------------------------------------------------------------

    def row_count(self, table: str) -> int:
        self._ensure_open()
        self.schema.table(table)  # raises on unknown table, like memory
        with self._lock:
            cursor = self._run(
                f"SELECT COUNT(*) FROM {_quote_ident(table)}", ()
            )
            return int(cursor.fetchone()[0])

    def relation_contents(self) -> dict[str, set[tuple]]:
        self._ensure_open()
        with self._lock:
            return {
                name: {tuple(row) for row in self._select_all(name)}
                for name in self.schema.tables
            }

    def _select_all(self, table: str) -> list:
        return self._run(
            f"SELECT {self._column_list(table)} FROM {_quote_ident(table)}"
            " ORDER BY rowid",
            (),
        ).fetchall()

    def _column_list(self, table: str) -> str:
        return comma_join(
            _quote_ident(c) for c in self.schema.table(table).column_names
        )

    def _image_sql(self, table: str) -> tuple[str, str]:
        """``SELECT rowid, <columns> FROM <table>`` and ``RETURNING rowid,
        <columns>``: how a write reads its rows' images, built once."""
        texts = self._image_texts.get(table)
        if texts is None:
            columns = f"rowid, {self._column_list(table)}"
            texts = self._image_texts[table] = (
                f"SELECT {columns} FROM {_quote_ident(table)}",
                f" RETURNING {columns}",
            )
        return texts


# --------------------------------------------------------------------------
# IR -> SQLite compilation
# --------------------------------------------------------------------------


def compile_statement(stmt: ast.Statement) -> tuple[str, list[object]]:
    """Compile a bound IR statement to (SQLite SQL, positional params).

    Every literal becomes a ``?`` placeholder (LIMIT excepted — it is an
    int in the AST, not an expression), so values never appear in SQL
    text and SQLite's binding layer handles quoting and types.
    """
    compiler = _Compiler()
    if isinstance(stmt, ast.Select):
        text = compiler.select(stmt)
    elif isinstance(stmt, ast.Update):
        text = compiler.update(stmt)
    elif isinstance(stmt, ast.Delete):
        text = compiler.delete(stmt)
    else:
        raise EngineError(f"cannot compile {type(stmt).__name__} for sqlite")
    return text, compiler.params


class _Compiler:
    """Mirrors the canonical printer, but parameterizes literals and
    papers over the dialect gaps (integer division, identifier quoting)."""

    def __init__(self) -> None:
        self.params: list[object] = []

    # -- statements ---------------------------------------------------------------

    def select(self, stmt: ast.Select) -> str:
        parts = ["SELECT"]
        if stmt.distinct:
            parts.append("DISTINCT")
        parts.append(comma_join(self._select_item(item) for item in stmt.items))
        parts.append("FROM")
        parts.append(comma_join(self._table_ref(src) for src in stmt.sources))
        for join in stmt.joins:
            keyword = "JOIN" if join.kind == "INNER" else "LEFT JOIN"
            parts.append(
                f"{keyword} {self._table_ref(join.table)} ON {self.expr(join.on)}"
            )
        if stmt.where is not None:
            parts.append(f"WHERE {self.expr(stmt.where)}")
        if stmt.group_by:
            parts.append("GROUP BY " + comma_join(self.expr(k) for k in stmt.group_by))
        if stmt.having is not None:
            parts.append(f"HAVING {self.expr(stmt.having)}")
        if stmt.order_by:
            keys = comma_join(
                self.expr(o.expr) + (" DESC" if o.descending else "")
                for o in stmt.order_by
            )
            parts.append(f"ORDER BY {keys}")
        if stmt.limit is not None:
            parts.append(f"LIMIT {int(stmt.limit)}")
        return " ".join(parts)

    def update(self, stmt: ast.Update) -> str:
        sets = comma_join(
            f"{_quote_ident(col)} = {self.expr(e)}" for col, e in stmt.assignments
        )
        text = f"UPDATE {_quote_ident(stmt.table)} SET {sets}"
        if stmt.where is not None:
            text += f" WHERE {self.expr(stmt.where)}"
        return text

    def delete(self, stmt: ast.Delete) -> str:
        text = f"DELETE FROM {_quote_ident(stmt.table)}"
        if stmt.where is not None:
            text += f" WHERE {self.expr(stmt.where)}"
        return text

    # -- clauses ------------------------------------------------------------------

    def _select_item(self, item: ast.SelectItem) -> str:
        text = self.expr(item.expr)
        if item.alias is not None:
            return f"{text} AS {_quote_ident(item.alias)}"
        return text

    def _table_ref(self, ref: ast.TableRef) -> str:
        if ref.alias != ref.name:
            return f"{_quote_ident(ref.name)} AS {_quote_ident(ref.alias)}"
        return _quote_ident(ref.name)

    # -- expressions --------------------------------------------------------------

    def expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                # Bound as a parameter NULL never matches `= ?`; rendered
                # NULL keeps SQLite's 3VL identical to the evaluator's.
                return "NULL"
            self.params.append(
                int(expr.value) if isinstance(expr.value, bool) else expr.value
            )
            return "?"
        if isinstance(expr, ast.Column):
            if expr.table is not None:
                return f"{_quote_ident(expr.table)}.{_quote_ident(expr.name)}"
            return _quote_ident(expr.name)
        if isinstance(expr, ast.Param):
            raise EngineError(
                f"unbound parameter {expr.label()!r} reached the sqlite backend"
            )
        if isinstance(expr, ast.Star):
            return f"{_quote_ident(expr.table)}.*" if expr.table is not None else "*"
        if isinstance(expr, ast.Comparison):
            return f"{self._operand(expr.left)} {expr.op} {self._operand(expr.right)}"
        if isinstance(expr, ast.Arith):
            if expr.op == "/":
                # SQLite's integer / truncates; ours is real division.
                return (
                    f"CAST({self._operand(expr.left)} AS REAL)"
                    f" / {self._operand(expr.right)}"
                )
            return f"{self._operand(expr.left)} {expr.op} {self._operand(expr.right)}"
        if isinstance(expr, ast.BoolOp):
            joiner = f" {expr.op} "
            return joiner.join(self._bool_operand(op, expr.op) for op in expr.operands)
        if isinstance(expr, ast.Not):
            return f"NOT {self._bool_operand(expr.operand, 'NOT')}"
        if isinstance(expr, ast.InList):
            keyword = "NOT IN" if expr.negated else "IN"
            items = comma_join(self.expr(item) for item in expr.items)
            return f"{self._operand(expr.expr)} {keyword} ({items})"
        if isinstance(expr, ast.IsNull):
            keyword = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"{self._operand(expr.expr)} {keyword}"
        if isinstance(expr, ast.FuncCall):
            distinct = "DISTINCT " if expr.distinct else ""
            args = comma_join(self.expr(a) for a in expr.args)
            return f"{expr.name}({distinct}{args})"
        if isinstance(expr, ast.Exists):
            return f"EXISTS ({self.select(expr.query)})"
        raise EngineError(f"cannot compile expression {type(expr).__name__}")

    def _operand(self, expr: ast.Expr) -> str:
        text = self.expr(expr)
        if isinstance(expr, ast.Arith | ast.BoolOp | ast.Not):
            return f"({text})"
        return text

    def _bool_operand(self, expr: ast.Expr, context_op: str) -> str:
        text = self.expr(expr)
        if isinstance(expr, ast.BoolOp) and expr.op != context_op:
            return f"({text})"
        if context_op == "NOT" and isinstance(expr, ast.BoolOp | ast.Not):
            return f"({text})"
        return text


def _literal_value(expr: ast.Expr) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    raise EngineError("INSERT values must be literals (bind parameters first)")
