"""Typed AST for the dbac SQL dialect.

All nodes are frozen dataclasses so they can be hashed, compared, and used
as dictionary keys (the decision cache relies on this). Expression trees
use tuples, never lists, for the same reason.

The AST is deliberately small: it covers the SELECT-project-join fragment
with AND/OR/NOT predicates that the paper's reasoning machinery operates
on, plus the DML statements the workload applications need. Features the
engine can run but the reasoning layer cannot represent (aggregates, LEFT
JOIN) are still parsed; the translation layer rejects them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Column(Expr):
    """A column reference, optionally qualified: ``e.EId`` or ``EId``."""

    table: str | None
    name: str


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool, or None (SQL NULL)."""

    value: int | float | str | bool | None


@dataclass(frozen=True)
class Param(Expr):
    """A query parameter.

    ``name`` is set for named parameters (``?MyUId``); ``index`` is set for
    positional ones (``?``), assigned left-to-right by the parser.
    """

    index: int | None = None
    name: str | None = None

    def label(self) -> str:
        return self.name if self.name is not None else f"${self.index}"


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison; ``op`` is one of ``= <> < <= > >=``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    """An AND/OR over two or more operands (flattened by the parser)."""

    op: str  # "AND" | "OR"
    operands: tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (item, ...)`` with literal/parameter items."""

    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic ``+ - * /`` — executable, but outside the CQ fragment."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; only ``COUNT`` is recognized by the executor."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list (or inside COUNT)."""

    table: str | None = None


@dataclass(frozen=True)
class Exists(Expr):
    """``EXISTS (SELECT ...)`` — a correlated subquery predicate.

    Executable by the engine (the RLS baseline's predicates need it) but
    outside the CQ reasoning fragment: the translator rejects it, so the
    enforcement proxy conservatively blocks application queries using it.
    """

    query: "Select"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Statement:
    """Marker base class for statement nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause with its effective alias.

    ``alias`` is always populated — it defaults to the table name — so the
    rest of the pipeline never needs the "no alias" case.
    """

    name: str
    alias: str

    @staticmethod
    def of(name: str, alias: str | None = None) -> "TableRef":
        return TableRef(name=name, alias=alias or name)


@dataclass(frozen=True)
class JoinClause:
    """An explicit JOIN: the joined table, the ON condition, and the kind."""

    table: TableRef
    on: Expr
    kind: str = "INNER"  # "INNER" | "LEFT"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement.

    ``sources`` holds the comma-separated FROM tables; ``joins`` holds the
    explicit JOIN clauses applied left-to-right after the sources.
    """

    items: tuple[SelectItem, ...]
    sources: tuple[TableRef, ...]
    joins: tuple[JoinClause, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def tables(self) -> tuple[TableRef, ...]:
        """All table references, FROM sources first then JOINed tables."""
        return self.sources + tuple(join.table for join in self.joins)

    def __hash__(self) -> int:
        # Taken once, like CQ's: the template store keys on a statement's
        # skeleton, which a prepared plan holds once for every execution.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (self.items, self.sources, self.joins, self.where, self.group_by,
                 self.having, self.order_by, self.limit, self.distinct)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # A str hash differs between processes: never carry the cached one.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table [(cols)] VALUES (row), (row), ...``."""

    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class ColumnDef:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False
    references: tuple[str, str] | None = None  # (table, column)


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE name (coldefs...)``."""

    name: str
    columns: tuple[ColumnDef, ...] = field(default_factory=tuple)


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, Comparison | Arith):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, BoolOp):
        for operand in expr.operands:
            yield from walk_expr(operand)
    elif isinstance(expr, Not):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, InList):
        yield from walk_expr(expr.expr)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, IsNull):
        yield from walk_expr(expr.expr)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, Exists):
        for sub in statement_expressions(expr.query):
            yield from walk_expr(sub)


def statement_expressions(stmt: Statement):
    """Yield every top-level expression appearing in ``stmt``."""
    if isinstance(stmt, Select):
        for item in stmt.items:
            yield item.expr
        for join in stmt.joins:
            yield join.on
        if stmt.where is not None:
            yield stmt.where
        for key in stmt.group_by:
            yield key
        if stmt.having is not None:
            yield stmt.having
        for order in stmt.order_by:
            yield order.expr
    elif isinstance(stmt, Insert):
        for row in stmt.rows:
            yield from row
    elif isinstance(stmt, Update):
        for _, expr in stmt.assignments:
            yield expr
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, Delete):
        if stmt.where is not None:
            yield stmt.where


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been mapped and
    returns its replacement (often the node itself).
    """
    if isinstance(expr, Comparison):
        rebuilt: Expr = Comparison(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, Arith):
        rebuilt = Arith(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, BoolOp):
        rebuilt = BoolOp(expr.op, tuple(map_expr(op, fn) for op in expr.operands))
    elif isinstance(expr, Not):
        rebuilt = Not(map_expr(expr.operand, fn))
    elif isinstance(expr, InList):
        rebuilt = InList(
            map_expr(expr.expr, fn),
            tuple(map_expr(item, fn) for item in expr.items),
            expr.negated,
        )
    elif isinstance(expr, IsNull):
        rebuilt = IsNull(map_expr(expr.expr, fn), expr.negated)
    elif isinstance(expr, FuncCall):
        rebuilt = FuncCall(expr.name, tuple(map_expr(a, fn) for a in expr.args), expr.distinct)
    else:
        # Exists is deliberately a leaf: its subquery has its own alias
        # scope, so generic rewrites must not descend. Parameter binding,
        # which must reach inside, recurses explicitly in params.py.
        rebuilt = expr
    return fn(rebuilt)


def map_statement(stmt: Statement, fn) -> Statement:
    """Rebuild ``stmt`` with ``fn`` applied to every expression node."""
    if isinstance(stmt, Select):
        return Select(
            items=tuple(SelectItem(map_expr(i.expr, fn), i.alias) for i in stmt.items),
            sources=stmt.sources,
            joins=tuple(
                JoinClause(j.table, map_expr(j.on, fn), j.kind) for j in stmt.joins
            ),
            where=map_expr(stmt.where, fn) if stmt.where is not None else None,
            group_by=tuple(map_expr(k, fn) for k in stmt.group_by),
            having=map_expr(stmt.having, fn) if stmt.having is not None else None,
            order_by=tuple(
                OrderItem(map_expr(o.expr, fn), o.descending) for o in stmt.order_by
            ),
            limit=stmt.limit,
            distinct=stmt.distinct,
        )
    if isinstance(stmt, Insert):
        return Insert(
            table=stmt.table,
            columns=stmt.columns,
            rows=tuple(tuple(map_expr(e, fn) for e in row) for row in stmt.rows),
        )
    if isinstance(stmt, Update):
        return Update(
            table=stmt.table,
            assignments=tuple((col, map_expr(e, fn)) for col, e in stmt.assignments),
            where=map_expr(stmt.where, fn) if stmt.where is not None else None,
        )
    if isinstance(stmt, Delete):
        return Delete(
            table=stmt.table,
            where=map_expr(stmt.where, fn) if stmt.where is not None else None,
        )
    return stmt
