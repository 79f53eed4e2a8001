"""Translate SQL SELECT statements into the CQ/UCQ IR.

The translation needs a schema to expand ``*`` and to resolve unqualified
column names; :class:`SchemaInfo` is the minimal protocol (the engine's
``Schema`` satisfies it, and tests can pass a plain dict wrapper).

Translation rules:

* Each table reference gets one body atom whose arguments are fresh
  variables named ``<alias>.<column>``.
* The WHERE clause and JOIN conditions are combined, converted to negation
  normal form, then distributed into DNF; each disjunct becomes one CQ of
  the resulting UCQ. ``IN`` lists expand to equality disjunctions,
  ``IS NULL`` to equality with the NULL constant.
* ``ORDER BY`` and ``LIMIT`` are dropped: for access-control reasoning the
  unlimited, unordered query reveals at least as much information, so this
  is a sound over-approximation. ``DISTINCT`` is a no-op under the set
  semantics of the IR.
* Aggregates, arithmetic in predicates, and LEFT JOIN raise
  :class:`TranslationError` — the engine can run them, the reasoner cannot
  represent them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from repro.sqlir import ast
from repro.relalg.cq import CQ, UCQ, Atom, Comp, Const, Param, Term, Var
from repro.util.errors import TranslationError

_MAX_DNF_DISJUNCTS = 64


class SchemaInfo(Protocol):
    """The minimal schema interface the translator needs."""

    def columns_of(self, table: str) -> Sequence[str]:
        """Ordered column names of ``table``; raise KeyError if unknown."""
        ...


class DictSchema:
    """A :class:`SchemaInfo` over a plain ``{table: [columns]}`` dict."""

    def __init__(self, tables: dict[str, Sequence[str]]):
        self._tables = dict(tables)

    def columns_of(self, table: str) -> Sequence[str]:
        return self._tables[table]


def translate_select(stmt: ast.Select, schema: SchemaInfo, name: str | None = None) -> UCQ:
    """Translate a SELECT into a UCQ. See module docstring for the rules."""
    scope = _Scope(stmt, schema)
    head, head_names = _translate_head(stmt, scope)
    condition = _combined_condition(stmt)
    if condition is None:
        return UCQ(
            (CQ(head=head, body=scope.atoms, comps=(), head_names=head_names, name=name),),
            name,
        )
    nnf = _to_nnf(condition, negated=False)
    disjuncts = _to_dnf(nnf)
    cqs = []
    for conjuncts in disjuncts:
        comps = tuple(_conjunct_to_comp(c, scope) for c in conjuncts)
        cqs.append(
            CQ(head=head, body=scope.atoms, comps=comps, head_names=head_names, name=name)
        )
    return UCQ(tuple(cqs), name)


# --------------------------------------------------------------------------
# Scope: table aliases and column resolution
# --------------------------------------------------------------------------


class _Scope:
    def __init__(self, stmt: ast.Select, schema: SchemaInfo):
        self.schema = schema
        self.tables: list[ast.TableRef] = list(stmt.tables())
        seen_aliases: set[str] = set()
        for ref in self.tables:
            if ref.alias in seen_aliases:
                raise TranslationError(f"duplicate table alias {ref.alias!r}")
            seen_aliases.add(ref.alias)
        for join in stmt.joins:
            if join.kind != "INNER":
                raise TranslationError("LEFT JOIN has no CQ translation")
        if stmt.group_by:
            raise TranslationError("GROUP BY has no CQ translation")
        self.columns: dict[str, Sequence[str]] = {}
        atoms = []
        for ref in self.tables:
            try:
                columns = schema.columns_of(ref.name)
            except KeyError:
                raise TranslationError(f"unknown table {ref.name!r}") from None
            self.columns[ref.alias] = columns
            args: tuple[Term, ...] = tuple(
                Var(f"{ref.alias}.{col}") for col in columns
            )
            atoms.append(Atom(ref.name, args))
        self.atoms: tuple[Atom, ...] = tuple(atoms)

    def resolve(self, column: ast.Column) -> Var:
        """Resolve a column reference to its variable."""
        if column.table is not None:
            if column.table not in self.columns:
                raise TranslationError(f"unknown table alias {column.table!r}")
            if column.name not in self.columns[column.table]:
                raise TranslationError(
                    f"table {column.table!r} has no column {column.name!r}"
                )
            return Var(f"{column.table}.{column.name}")
        owners = [
            alias for alias, cols in self.columns.items() if column.name in cols
        ]
        if not owners:
            raise TranslationError(f"unknown column {column.name!r}")
        if len(owners) > 1:
            raise TranslationError(
                f"ambiguous column {column.name!r} (in {', '.join(sorted(owners))})"
            )
        return Var(f"{owners[0]}.{column.name}")

    def term_of(self, expr: ast.Expr) -> Term:
        """Translate an atomic expression to a term."""
        if isinstance(expr, ast.Column):
            return self.resolve(expr)
        if isinstance(expr, ast.Literal):
            return Const(expr.value)
        if isinstance(expr, ast.Param):
            return Param(expr.label())
        raise TranslationError(
            f"expression {type(expr).__name__} is outside the CQ fragment"
        )


def _translate_head(stmt: ast.Select, scope: _Scope) -> tuple[tuple[Term, ...], tuple[str, ...]]:
    head: list[Term] = []
    names: list[str] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            aliases = (
                [item.expr.table]
                if item.expr.table is not None
                else [ref.alias for ref in scope.tables]
            )
            for alias in aliases:
                if alias not in scope.columns:
                    raise TranslationError(f"unknown table alias {alias!r}")
                for col in scope.columns[alias]:
                    head.append(Var(f"{alias}.{col}"))
                    names.append(col)
            continue
        term = scope.term_of(item.expr)
        head.append(term)
        if item.alias is not None:
            names.append(item.alias)
        elif isinstance(item.expr, ast.Column):
            names.append(item.expr.name)
        else:
            names.append(f"col{len(names)}")
    return tuple(head), tuple(names)


def _combined_condition(stmt: ast.Select) -> ast.Expr | None:
    parts: list[ast.Expr] = [join.on for join in stmt.joins]
    if stmt.where is not None:
        parts.append(stmt.where)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return ast.BoolOp("AND", tuple(parts))


# --------------------------------------------------------------------------
# NNF / DNF
# --------------------------------------------------------------------------

_NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _to_nnf(expr: ast.Expr, negated: bool) -> ast.Expr:
    """Push negation to the leaves, rewriting negated predicates."""
    if isinstance(expr, ast.Not):
        return _to_nnf(expr.operand, not negated)
    if isinstance(expr, ast.BoolOp):
        op = expr.op
        if negated:
            op = "OR" if op == "AND" else "AND"
        return ast.BoolOp(op, tuple(_to_nnf(o, negated) for o in expr.operands))
    if isinstance(expr, ast.Comparison):
        if negated:
            return ast.Comparison(_NEGATED_OP[expr.op], expr.left, expr.right)
        return expr
    if isinstance(expr, ast.InList):
        effective_negated = expr.negated != negated
        if effective_negated:
            conjuncts = tuple(
                ast.Comparison("<>", expr.expr, item) for item in expr.items
            )
            return conjuncts[0] if len(conjuncts) == 1 else ast.BoolOp("AND", conjuncts)
        disjuncts = tuple(ast.Comparison("=", expr.expr, item) for item in expr.items)
        return disjuncts[0] if len(disjuncts) == 1 else ast.BoolOp("OR", disjuncts)
    if isinstance(expr, ast.IsNull):
        effective_negated = expr.negated != negated
        op = "<>" if effective_negated else "="
        return ast.Comparison(op, expr.expr, ast.Literal(None))
    if isinstance(expr, ast.Literal):
        value = bool(expr.value) != negated
        return ast.Literal(value)
    raise TranslationError(
        f"predicate {type(expr).__name__} is outside the CQ fragment"
    )


def _to_dnf(expr: ast.Expr) -> list[list[ast.Expr]]:
    """Distribute an NNF expression into a list of conjunct lists."""
    if isinstance(expr, ast.BoolOp) and expr.op == "OR":
        result: list[list[ast.Expr]] = []
        for operand in expr.operands:
            result.extend(_to_dnf(operand))
            if len(result) > _MAX_DNF_DISJUNCTS:
                raise TranslationError("WHERE clause expands to too many disjuncts")
        return result
    if isinstance(expr, ast.BoolOp) and expr.op == "AND":
        result = [[]]
        for operand in expr.operands:
            operand_dnf = _to_dnf(operand)
            result = [
                existing + branch for existing in result for branch in operand_dnf
            ]
            if len(result) > _MAX_DNF_DISJUNCTS:
                raise TranslationError("WHERE clause expands to too many disjuncts")
        return result
    if isinstance(expr, ast.Literal):
        if expr.value:
            return [[]]
        # FALSE: no disjuncts would mean an empty UCQ; represent the
        # unsatisfiable query with a contradictory comparison instead.
        false_comp = ast.Comparison("<>", ast.Literal(0), ast.Literal(0))
        return [[false_comp]]
    return [[expr]]


def _conjunct_to_comp(expr: ast.Expr, scope: _Scope) -> Comp:
    if isinstance(expr, ast.Comparison):
        left = scope.term_of(expr.left)
        right = scope.term_of(expr.right)
        return Comp.normalized(expr.op, left, right)
    raise TranslationError(
        f"predicate {type(expr).__name__} is outside the CQ fragment"
    )
