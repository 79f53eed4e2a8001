"""SQL execution against a :class:`~repro.engine.database.Database`.

The executor runs the full dialect — including LEFT JOIN and COUNT, which
the reasoning layer rejects — so workload applications are not limited by
the CQ fragment. Join processing is index-driven: when a join/where
conjunct equates a column of the table being added with an already-bound
value, the secondary hash index supplies matching rows; otherwise the
executor falls back to a filtered scan.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.engine.changes import changed
from repro.engine.evaluator import DB_CONTEXT, evaluate, predicate_holds
from repro.engine.schema import Schema
from repro.sqlir import ast
from repro.util.errors import EngineError, IntegrityError


@dataclass
class Result:
    """A query result: column names plus rows (tuples, in order)."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def scalar(self) -> object:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise EngineError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def as_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def execute(db, stmt: ast.Statement) -> Result | int:
    """Execute a bound statement; SELECT returns a Result, DML a row count."""
    if isinstance(stmt, ast.Select):
        return execute_select(db, stmt)
    if isinstance(stmt, ast.Insert):
        return _execute_insert(db, stmt)
    if isinstance(stmt, ast.Update):
        return _execute_update(db, stmt)
    if isinstance(stmt, ast.Delete):
        return _execute_delete(db, stmt)
    raise EngineError(f"cannot execute {type(stmt).__name__}")


# --------------------------------------------------------------------------
# SELECT
# --------------------------------------------------------------------------


def execute_select(db, stmt: ast.Select) -> Result:
    schema: Schema = db.schema
    aliases: dict[str, str] = {}
    for ref in stmt.tables():
        if ref.alias in aliases:
            raise EngineError(f"duplicate table alias {ref.alias!r}")
        aliases[ref.alias] = ref.name

    resolver = _ColumnResolver(schema, aliases)
    stmt = resolver.resolve_statement(stmt)

    # Collect conjuncts: WHERE split on top-level AND; join ON conditions
    # stay attached to their join step (required for LEFT JOIN semantics).
    where_conjuncts = _split_and(stmt.where)

    envs: list[dict[tuple[str, str], object]] = [{DB_CONTEXT: db}]
    bound: set[str] = set()
    # Seed with the comma-separated sources (inner semantics).
    pending = list(where_conjuncts)
    for ref in stmt.sources:
        envs = _join_inner(db, envs, ref, [], pending, bound)
        bound.add(ref.alias)
    for join in stmt.joins:
        on_conjuncts = _split_and(join.on)
        if join.kind == "INNER":
            envs = _join_inner(db, envs, join.table, on_conjuncts, pending, bound)
        else:
            envs = _join_left(db, envs, join.table, on_conjuncts, schema)
        bound.add(join.table.alias)
    # Residual WHERE conjuncts (those not consumed as join conditions).
    for conjunct in pending:
        envs = [env for env in envs if predicate_holds(conjunct, env)]

    return _project(db, stmt, envs, aliases)


def _split_and(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BoolOp) and expr.op == "AND":
        return list(expr.operands)
    return [expr]


class _ColumnResolver:
    """Qualifies unqualified column references with their table alias."""

    def __init__(self, schema: Schema, aliases: dict[str, str]):
        self.schema = schema
        self.aliases = aliases

    def resolve_statement(self, stmt: ast.Select) -> ast.Select:
        resolved = ast.map_statement(stmt, self._resolve_expr)
        assert isinstance(resolved, ast.Select)
        return resolved

    def _resolve_expr(self, expr: ast.Expr) -> ast.Expr:
        if not isinstance(expr, ast.Column):
            return expr
        if expr.table is not None:
            if expr.table not in self.aliases:
                raise EngineError(f"unknown table alias {expr.table!r}")
            table = self.schema.table(self.aliases[expr.table])
            table.index_of(expr.name)  # raises if missing
            return expr
        owners = [
            alias
            for alias, table_name in self.aliases.items()
            if expr.name in self.schema.table(table_name).column_names
        ]
        if not owners:
            raise EngineError(f"unknown column {expr.name!r}")
        if len(owners) > 1:
            raise EngineError(f"ambiguous column {expr.name!r}")
        return ast.Column(table=owners[0], name=expr.name)


def _env_ready(expr: ast.Expr, bound_aliases: set[str]) -> bool:
    """Can ``expr`` be evaluated once the given aliases are bound?"""
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Column) and node.table not in bound_aliases:
            return False
    return True


def _equality_probe(
    conjunct: ast.Expr, alias: str, bound: set[str]
) -> tuple[str, ast.Expr] | None:
    """If ``conjunct`` equates a column of ``alias`` with an expression over
    already-bound aliases (or constants), return (column, value-expr)."""
    if not isinstance(conjunct, ast.Comparison) or conjunct.op != "=":
        return None
    for column_side, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(column_side, ast.Column)
            and column_side.table == alias
            and _env_ready(other, bound)
        ):
            return column_side.name, other
    return None


def _join_inner(db, envs, ref: ast.TableRef, on_conjuncts, pending, bound: set[str]) -> list[dict]:
    """Add ``ref`` to every env, consuming usable conjuncts from pending."""
    table = db.table(ref.name)
    bound_after = bound | {ref.alias}

    # Conditions usable during this join step: the join's own ON conjuncts
    # plus any pending WHERE conjunct evaluable once ref is bound.
    local = list(on_conjuncts)
    remaining_pending = []
    for conjunct in pending:
        if _env_ready(conjunct, bound_after) and not _env_ready(conjunct, bound):
            local.append(conjunct)
        else:
            remaining_pending.append(conjunct)
    pending[:] = remaining_pending

    probe = None
    for conjunct in local:
        probe = _equality_probe(conjunct, ref.alias, bound)
        if probe is not None:
            break

    columns = table.schema.column_names
    out = []
    for env in envs:
        if probe is not None:
            column, value_expr = probe
            value = evaluate(value_expr, env)
            candidates = (
                row for _, row in table.lookup(column, value)
            ) if value is not None else iter(())
        else:
            candidates = table.rows()
        for row in candidates:
            new_env = dict(env)
            for column_name, value in zip(columns, row):
                new_env[(ref.alias, column_name)] = value
            if all(predicate_holds(c, new_env) for c in local):
                out.append(new_env)
    return out


def _join_left(db, envs, ref: ast.TableRef, on_conjuncts, schema: Schema) -> list[dict]:
    table = db.table(ref.name)
    columns = table.schema.column_names
    out = []
    for env in envs:
        matched = False
        for row in table.rows():
            new_env = dict(env)
            for column_name, value in zip(columns, row):
                new_env[(ref.alias, column_name)] = value
            if all(predicate_holds(c, new_env) for c in on_conjuncts):
                matched = True
                out.append(new_env)
        if not matched:
            new_env = dict(env)
            for column_name in columns:
                new_env[(ref.alias, column_name)] = None
            out.append(new_env)
    return out


def _project(db, stmt: ast.Select, envs, aliases: dict[str, str]) -> Result:
    schema: Schema = db.schema
    # Expand the select list into (name, expr-or-star-column) pairs.
    output: list[tuple[str, ast.Expr]] = []
    has_aggregate = False
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            star_aliases = (
                [item.expr.table] if item.expr.table is not None else list(aliases)
            )
            for alias in star_aliases:
                if alias not in aliases:
                    raise EngineError(f"unknown table alias {alias!r}")
                for column_name in schema.table(aliases[alias]).column_names:
                    output.append(
                        (column_name, ast.Column(table=alias, name=column_name))
                    )
            continue
        if isinstance(item.expr, ast.FuncCall):
            has_aggregate = True
        name = item.alias or (
            item.expr.name if isinstance(item.expr, ast.Column) else f"col{len(output)}"
        )
        output.append((name, item.expr))

    columns = [name for name, _ in output]

    if has_aggregate or stmt.group_by:
        return _aggregate(stmt, output, columns, envs)

    rows = [
        tuple(evaluate(expr, env) for _, expr in output) for env in envs
    ]
    if stmt.distinct:
        seen = set()
        deduped = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    if stmt.order_by:
        key_exprs = [(o.expr, o.descending) for o in stmt.order_by]
        # Multi-key sort with per-key direction: stable sorts applied
        # right-to-left give the combined ordering.
        if stmt.distinct:
            # After DISTINCT the row/env pairing is lost; only projected
            # columns may be ordered on.
            for expr, descending in reversed(key_exprs):
                if not isinstance(expr, ast.Column) or expr.name not in columns:
                    raise EngineError("ORDER BY after DISTINCT must use output columns")
                index = columns.index(expr.name)
                rows.sort(key=lambda r, i=index: _order_key(r[i]), reverse=descending)
        else:
            paired = list(zip(rows, envs))
            for expr, descending in reversed(key_exprs):
                paired.sort(
                    key=lambda pair, e=expr: _order_key(evaluate(e, pair[1])),
                    reverse=descending,
                )
            rows = [row for row, _ in paired]
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    return Result(columns=columns, rows=rows)


_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def _aggregate(stmt: ast.Select, output, columns, envs) -> Result:
    """GROUP BY / aggregate evaluation over the joined row set.

    Groups follow first-appearance order. Non-aggregate output
    expressions must appear in the GROUP BY list (the strict SQL rule —
    no silent "any value from the group").
    """
    group_exprs = list(stmt.group_by)
    for name, expr in output:
        if isinstance(expr, ast.FuncCall):
            if expr.name.upper() not in _AGGREGATES:
                raise EngineError(f"unsupported aggregate {expr.name!r}")
            continue
        if expr not in group_exprs:
            raise EngineError(
                f"output column {name!r} must appear in GROUP BY"
            )

    groups: dict[tuple, list] = {}
    for env in envs:
        key = tuple(evaluate(k, env) for k in group_exprs)
        groups.setdefault(key, []).append(env)
    if not group_exprs and not groups:
        groups[()] = []  # aggregates over an empty set still yield one row

    rows = []
    for key, members in groups.items():
        if stmt.having is not None and not _having_holds(
            stmt.having, members, group_exprs, key
        ):
            continue
        row = []
        for _, expr in output:
            if isinstance(expr, ast.FuncCall):
                row.append(_apply_aggregate(expr, members))
            else:
                row.append(key[group_exprs.index(expr)])
        rows.append(tuple(row))

    if stmt.order_by:
        for order in reversed(stmt.order_by):
            expr = order.expr
            if not isinstance(expr, ast.Column) or expr.name not in columns:
                raise EngineError("ORDER BY with GROUP BY must use output columns")
            index = columns.index(expr.name)
            rows.sort(key=lambda r, i=index: _order_key(r[i]), reverse=order.descending)
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    return Result(columns=columns, rows=rows)


def _having_holds(having: ast.Expr, members, group_exprs, key) -> bool:
    """Evaluate HAVING for one group.

    Aggregate calls and group-key expressions are folded into literals,
    then the ordinary (3VL) predicate evaluation runs on the residue.
    """

    def fold(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.FuncCall):
            return ast.Literal(_apply_aggregate(node, members))  # type: ignore[arg-type]
        if node in group_exprs:
            return ast.Literal(key[group_exprs.index(node)])  # type: ignore[arg-type]
        return node

    folded = ast.map_expr(having, fold)
    return predicate_holds(folded, {})


def _apply_aggregate(func: ast.FuncCall, members) -> object:
    name = func.name.upper()
    if name == "COUNT" and isinstance(func.args[0], ast.Star):
        return len(members)
    values = [evaluate(func.args[0], env) for env in members]
    values = [v for v in values if v is not None]
    if func.distinct:
        values = list(dict.fromkeys(values))
    if name == "COUNT":
        return len(values)
    if not values:
        return None  # SQL: SUM/MIN/MAX/AVG over no non-null values is NULL
    if name == "SUM":
        return sum(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    if name == "AVG":
        return sum(values) / len(values)
    raise AssertionError(name)


def _order_key(value: object) -> tuple:
    """Total order over heterogeneous values: NULL first, then by type."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, int | float):
        return (2, "", value)
    return (3, str(value), 0)


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


def _literal_value(expr: ast.Expr) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    raise EngineError("INSERT values must be literals (bind parameters first)")


def _execute_insert(db, stmt: ast.Insert) -> int:
    table = db.table(stmt.table)
    schema = table.schema
    count = 0
    for row_exprs in stmt.rows:
        if stmt.columns is not None:
            if len(row_exprs) != len(stmt.columns):
                raise EngineError("INSERT row width does not match column list")
            provided = dict(zip(stmt.columns, (_literal_value(e) for e in row_exprs)))
            values = [provided.get(c.name) for c in schema.columns]
            unknown = set(provided) - set(schema.column_names)
            if unknown:
                raise IntegrityError(f"unknown INSERT columns {sorted(unknown)}")
        else:
            if len(row_exprs) != len(schema.columns):
                raise EngineError("INSERT row width does not match table")
            values = [_literal_value(e) for e in row_exprs]
        _check_foreign_keys(db, schema, values)
        table.insert(values)
        count += 1
    return count


def _check_foreign_keys(db, schema, values) -> None:
    for fk in schema.foreign_keys:
        value = values[schema.index_of(fk.column)]
        if value is None:
            continue
        referenced = db.table(fk.ref_table)
        if not referenced.contains_value(fk.ref_column, value):
            raise IntegrityError(
                f"foreign key violation: {schema.name}.{fk.column}={value!r}"
                f" has no match in {fk.ref_table}.{fk.ref_column}"
            )


def _matching_rows(db, table, where: ast.Expr | None, alias: str) -> list[tuple[int, tuple]]:
    """The rows ``where`` holds on, with their ids, in id order: through
    the column hash index when a top-level conjunct is ``column =
    constant``, else by a scan."""
    candidates = None
    if where is not None:
        resolver = _ColumnResolver(db.schema, {alias: table.schema.name})
        where = ast.map_expr(where, resolver._resolve_expr)
        for conjunct in _split_and(where):
            probe = _equality_probe(conjunct, alias, set())
            if probe is not None:
                column, value_expr = probe
                value = evaluate(value_expr, {DB_CONTEXT: db})
                candidates = table.lookup(column, value) if value is not None else ()
                break
    if candidates is None:
        candidates = table.row_items()
    matches = []
    columns = table.schema.column_names
    for row_id, row in candidates:
        env = {(alias, c): v for c, v in zip(columns, row)}
        env[DB_CONTEXT] = db
        if predicate_holds(where, env):
            matches.append((row_id, row))
    return matches


def _execute_update(db, stmt: ast.Update) -> int:
    """UPDATE; logs the old image of every row it gives different values
    before replacing any row."""
    table = db.table(stmt.table)
    schema = table.schema
    alias = stmt.table
    resolver = _ColumnResolver(db.schema, {alias: stmt.table})
    columns = schema.column_names
    assignments = []
    for column, expr in stmt.assignments:
        if column not in columns:
            raise IntegrityError(f"unknown column {column!r} in UPDATE")
        assignments.append(
            (schema.index_of(column), ast.map_expr(expr, resolver._resolve_expr))
        )
    matches = _matching_rows(db, table, stmt.where, alias)
    replacements = []
    for row_id, row in matches:
        env = {(alias, c): v for c, v in zip(columns, row)}
        values = list(row)
        for position, expr in assignments:
            values[position] = evaluate(expr, env)
        _check_foreign_keys(db, schema, values)
        new = table.checked(values)
        if changed(row, new):
            replacements.append((row_id, row, new))
    with db.changes.writing(schema.name, [row for _, row, _ in replacements]):
        for row_id, _, new in replacements:
            table.update_id(row_id, new)
    return len(matches)


def _execute_delete(db, stmt: ast.Delete) -> int:
    """DELETE; logs the old image of every row it removes before removing
    any."""
    table = db.table(stmt.table)
    matches = _matching_rows(db, table, stmt.where, stmt.table)
    with db.changes.writing(table.schema.name, [row for _, row in matches]):
        return table.delete_ids(row_id for row_id, _ in matches)
