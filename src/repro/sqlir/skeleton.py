"""Query skeletons: a statement with its constants hollowed out.

A *skeleton* is the statement with every literal replaced by a numbered
slot (represented as a positional :class:`~repro.sqlir.ast.Param`), plus
the list of extracted values. Two queries with the same skeleton differ
only in constants — the equivalence the decision cache (Blockaid-style
decision templates) and the trace miner both key on.

``generalizable`` marks the slots whose literal occurs only in equality
position (``=``, ``<>``, ``IN``): those may be abstracted over; a literal
under an order comparison pins the decision to its exact value.

What the template store abstracts over is the checker's own view of
constants. Two values are "the same" under one rule,
:func:`repro.relalg.constraints.constant_key`: ``2`` and ``2.0`` are one
value, as they are to the checker, and so are an inline ``TRUE``
(``inline``) and a session's ``MyUId = 1``. And once a statement or a
policy view compares by order (``ordered``), a proof can rest on where a
value falls among the others (``32 >= 30``), so a template then also
records the order pattern of its values
(:func:`repro.relalg.constraints.order_pattern`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sqlir import ast


@dataclass(frozen=True)
class Skeleton:
    """A hollowed-out statement plus the constants that filled it."""

    statement: ast.Statement
    values: tuple[object, ...]
    generalizable: tuple[bool, ...]
    #: Whether the statement has an order comparison (``<``, ``<=``,
    #: ``>``, ``>=``) anywhere, between literals or columns.
    ordered: bool = False
    #: The literals left inline (booleans and NULL), in statement order:
    #: constants a proof can use, like the slot values.
    inline: tuple[object, ...] = ()

    @property
    def slot_count(self) -> int:
        return len(self.values)


def skeletonize(stmt: ast.Statement) -> Skeleton:
    """Extract the skeleton of a bound statement.

    Literal booleans and NULL are left in place (they are structural, not
    data); ints, floats, and strings become slots.
    """
    values: list[object] = []
    generalizable: list[bool] = []
    inline: list[object] = []
    ordered = False

    def hollow(expr: ast.Expr, equality_position: bool) -> ast.Expr:
        nonlocal ordered
        if isinstance(expr, ast.Literal):
            if expr.value is None or isinstance(expr.value, bool):
                inline.append(expr.value)
                return expr
            values.append(expr.value)
            generalizable.append(equality_position)
            return ast.Param(index=len(values) - 1)
        if isinstance(expr, ast.Comparison):
            equality = expr.op in ("=", "<>")
            ordered = ordered or not equality
            return ast.Comparison(
                expr.op, hollow(expr.left, equality), hollow(expr.right, equality)
            )
        if isinstance(expr, ast.BoolOp):
            return ast.BoolOp(expr.op, tuple(hollow(o, False) for o in expr.operands))
        if isinstance(expr, ast.Not):
            return ast.Not(hollow(expr.operand, False))
        if isinstance(expr, ast.InList):
            return ast.InList(
                hollow(expr.expr, False),
                tuple(hollow(item, True) for item in expr.items),
                expr.negated,
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(hollow(expr.expr, False), expr.negated)
        if isinstance(expr, ast.Arith):
            return ast.Arith(expr.op, hollow(expr.left, False), hollow(expr.right, False))
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(
                expr.name, tuple(hollow(a, False) for a in expr.args), expr.distinct
            )
        return expr

    def hollow_statement(statement: ast.Statement) -> ast.Statement:
        if isinstance(statement, ast.Select):
            return ast.Select(
                items=tuple(
                    ast.SelectItem(hollow(i.expr, False), i.alias)
                    for i in statement.items
                ),
                sources=statement.sources,
                joins=tuple(
                    ast.JoinClause(j.table, hollow(j.on, False), j.kind)
                    for j in statement.joins
                ),
                where=(
                    hollow(statement.where, False)
                    if statement.where is not None
                    else None
                ),
                # Part of the key, not dropped: a statement and its grouped
                # twin are decided differently (docs/fragment.md).
                group_by=statement.group_by,
                having=(
                    hollow(statement.having, False)
                    if statement.having is not None
                    else None
                ),
                order_by=tuple(
                    ast.OrderItem(hollow(o.expr, False), o.descending)
                    for o in statement.order_by
                ),
                limit=statement.limit,
                distinct=statement.distinct,
            )
        if isinstance(statement, ast.Insert):
            return ast.Insert(
                table=statement.table,
                columns=statement.columns,
                rows=tuple(
                    tuple(hollow(e, True) for e in row) for row in statement.rows
                ),
            )
        if isinstance(statement, ast.Update):
            return ast.Update(
                table=statement.table,
                assignments=tuple(
                    (c, hollow(e, True)) for c, e in statement.assignments
                ),
                where=(
                    hollow(statement.where, False)
                    if statement.where is not None
                    else None
                ),
            )
        if isinstance(statement, ast.Delete):
            return ast.Delete(
                table=statement.table,
                where=(
                    hollow(statement.where, False)
                    if statement.where is not None
                    else None
                ),
            )
        return statement

    hollowed = hollow_statement(stmt)
    return Skeleton(
        statement=hollowed,
        values=tuple(values),
        generalizable=tuple(generalizable),
        ordered=ordered,
        inline=tuple(inline),
    )


def fill(skeleton: Skeleton, values: tuple[object, ...]) -> ast.Statement:
    """Re-instantiate a skeleton with new slot values."""
    from repro.sqlir.params import bind_parameters

    return bind_parameters(skeleton.statement, list(values))
