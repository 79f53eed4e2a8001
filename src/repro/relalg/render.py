"""Render conjunctive queries back to SQL SELECT statements.

The inverse of :mod:`repro.relalg.translate`, used wherever the system
produces a *new* query rather than vetting an existing one: extracted
policy views (§3.2), query-narrowing patches and access-check conditions
(§5.2.2).

Each body atom becomes a FROM entry with a generated alias; repeated
variables become join equalities; constants and params in atom arguments
become WHERE equalities; comparison constraints render directly.
"""

from __future__ import annotations

from repro.relalg.cq import CQ, Const, Param, Term, Var
from repro.sqlir import ast
from repro.relalg.translate import SchemaInfo
from repro.util.errors import DbacError


def cq_to_select(query: CQ, schema: SchemaInfo) -> ast.Select:
    """Build a SELECT AST equivalent to ``query``.

    Raises :class:`DbacError` if a head variable does not occur in the
    body (such a query has no SQL form in this dialect).
    """
    aliases: list[tuple[str, str]] = []  # (alias, table)
    var_location: dict[Var, ast.Column] = {}
    where: list[ast.Expr] = []

    for index, atom in enumerate(query.body):
        alias = f"t{index}"
        aliases.append((alias, atom.rel))
        try:
            columns = schema.columns_of(atom.rel)
        except KeyError:
            raise DbacError(f"unknown relation {atom.rel!r}") from None
        if len(columns) != len(atom.args):
            raise DbacError(
                f"atom {atom!r} arity does not match table {atom.rel!r}"
            )
        for column, arg in zip(columns, atom.args):
            reference = ast.Column(table=alias, name=column)
            if isinstance(arg, Var):
                if arg in var_location:
                    where.append(ast.Comparison("=", var_location[arg], reference))
                else:
                    var_location[arg] = reference
            elif isinstance(arg, Const):
                if arg.value is None:
                    where.append(ast.IsNull(reference))
                else:
                    where.append(ast.Comparison("=", reference, ast.Literal(arg.value)))
            elif isinstance(arg, Param):
                where.append(
                    ast.Comparison("=", reference, ast.Param(name=arg.name))
                )

    def render_term(term: Term) -> ast.Expr:
        if isinstance(term, Var):
            if term not in var_location:
                raise DbacError(f"variable {term!r} does not occur in the body")
            return var_location[term]
        if isinstance(term, Const):
            return ast.Literal(term.value)
        if isinstance(term, Param):
            return ast.Param(name=term.name)
        raise AssertionError(term)

    for comp in query.comps:
        op = "<>" if comp.op == "!=" else comp.op
        left = render_term(comp.left)
        right = render_term(comp.right)
        if comp.op == "=" and isinstance(right, ast.Literal) and right.value is None:
            where.append(ast.IsNull(left))
        elif comp.op == "!=" and isinstance(right, ast.Literal) and right.value is None:
            where.append(ast.IsNull(left, negated=True))
        else:
            where.append(ast.Comparison(op, left, right))

    items = []
    for position, term in enumerate(query.head):
        name = (
            query.head_names[position]
            if position < len(query.head_names)
            else None
        )
        expr = render_term(term)
        alias_name = None
        if name and not (isinstance(expr, ast.Column) and expr.name == name):
            alias_name = name
        items.append(ast.SelectItem(expr, alias_name))

    where_expr: ast.Expr | None = None
    if where:
        where_expr = where[0] if len(where) == 1 else ast.BoolOp("AND", tuple(where))
    return ast.Select(
        items=tuple(items),
        sources=tuple(ast.TableRef.of(table, alias) for alias, table in aliases),
        where=where_expr,
    )


def cq_to_sql(query: CQ, schema: SchemaInfo) -> str:
    """Render a CQ as SQL text."""
    from repro.sqlir.printer import to_sql

    return to_sql(cq_to_select(query, schema))
