"""The handler DSL: application request handlers as analyzable ASTs.

The paper's language-based extraction proposal (§3.2.1) symbolically
executes application code. Re-implementing a Ruby/PHP interpreter is out
of scope for a reproduction, so — following the spirit of Near & Jackson's
"co-opt the interpreter" approach [30] — workload applications are written
in a small structured DSL that has *two* interpreters:

* the **concrete** interpreter (:func:`run_handler`) executes a handler
  against a live connection (direct or proxied), which the black-box
  miner and the benchmarks drive; and
* the **symbolic** executor (:mod:`repro.extract.symbolic`) walks all
  paths, which the language-based extractor drives.

A handler is a tree of statements; the only control flow is ``If`` over
result-emptiness / parameter comparisons, and ``ForEach`` over a prior
result — the "simple loop structure" the paper notes web handlers have.

Listing 1 of the paper, in this DSL::

    Handler(
        name="show_event",
        params=("event_id",),
        body=(
            Assign("check", Query(
                "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
                (SessionRef("user_id"), ParamRef("event_id")))),
            If(IsEmpty("check"),
               then=(Abort("event not found"),),
               orelse=()),
            Return(Query(
                "SELECT * FROM Events WHERE EId = ?",
                (ParamRef("event_id"),))),
        ),
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import Result
from repro.util.errors import DbacError

# --------------------------------------------------------------------------
# Argument expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamRef:
    """A handler parameter (request input)."""

    name: str


@dataclass(frozen=True)
class SessionRef:
    """A session attribute, e.g. ``user_id``."""

    name: str


@dataclass(frozen=True)
class ConstArg:
    """A constant baked into the handler."""

    value: object


@dataclass(frozen=True)
class FieldRef:
    """A column of the current row of a previously fetched result.

    ``var`` names the result (from ``Assign`` or the ``ForEach`` row
    variable); ``column`` is the output column name.
    """

    var: str
    column: str


ArgExpr = ParamRef | SessionRef | ConstArg | FieldRef


# --------------------------------------------------------------------------
# Conditions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IsEmpty:
    """True when the named result has no rows."""

    var: str


@dataclass(frozen=True)
class Compare:
    """A comparison between two argument expressions."""

    op: str
    left: ArgExpr
    right: ArgExpr


@dataclass(frozen=True)
class Not:
    operand: "Cond"


@dataclass(frozen=True)
class And:
    operands: tuple["Cond", ...]


Cond = IsEmpty | Compare | Not | And


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A parameterized SQL query with argument expressions."""

    sql: str
    args: tuple[ArgExpr, ...] = ()


@dataclass(frozen=True)
class Assign:
    """Run a query and bind its result to a handler variable."""

    var: str
    query: Query


@dataclass(frozen=True)
class If:
    cond: Cond
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class ForEach:
    """Iterate over the rows of a prior result.

    Inside the body, ``FieldRef(row_var, column)`` reads the current row.
    """

    row_var: str
    over: str
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Return:
    """Finish the handler, emitting a final query's result (or nothing)."""

    query: Query | None = None


@dataclass(frozen=True)
class Abort:
    """Finish the handler with an application-level error (e.g. HTTP 404)."""

    message: str


Stmt = Assign | If | ForEach | Return | Abort


@dataclass(frozen=True)
class Handler:
    """A named request handler."""

    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]


# --------------------------------------------------------------------------
# Concrete interpreter
# --------------------------------------------------------------------------


@dataclass
class HandlerOutcome:
    """What a concrete handler run produced."""

    returned: Result | None
    aborted: bool
    abort_message: str = ""
    queries_issued: list[tuple[str, tuple]] = field(default_factory=list)


def run_handler(
    handler: Handler,
    connection,
    params: dict[str, object],
    session: dict[str, object],
) -> HandlerOutcome:
    """Execute ``handler`` concretely against ``connection``.

    ``connection`` is anything exposing ``query(sql, args)`` — a
    :class:`~repro.engine.database.Database`, an
    :class:`~repro.enforce.proxy.EnforcementProxy` session, or a baseline.
    Missing handler parameters raise immediately; an ``Abort`` statement
    finishes the run with ``aborted=True`` (it is an application-level
    outcome, not an error of the harness).
    """
    for name in handler.params:
        if name not in params:
            raise DbacError(f"handler {handler.name!r} missing parameter {name!r}")
    outcome = HandlerOutcome(returned=None, aborted=False)
    env: dict[str, Result] = {}
    rows: dict[str, dict[str, object]] = {}

    def arg_value(arg: ArgExpr) -> object:
        if isinstance(arg, ParamRef):
            return params[arg.name]
        if isinstance(arg, SessionRef):
            if arg.name not in session:
                raise DbacError(f"session has no attribute {arg.name!r}")
            return session[arg.name]
        if isinstance(arg, ConstArg):
            return arg.value
        if isinstance(arg, FieldRef):
            if arg.var in rows:
                row = rows[arg.var]
            elif arg.var in env:
                # Outside ForEach, a FieldRef reads the first row — the
                # idiomatic "fetch one, then use a column" pattern of
                # Listing 1-style handlers.
                result = env[arg.var]
                if result.is_empty():
                    raise DbacError(
                        f"result {arg.var!r} is empty; guard it with IsEmpty"
                    )
                row = dict(zip(result.columns, result.rows[0]))
            else:
                raise DbacError(f"no current row for {arg.var!r}")
            if arg.column not in row:
                raise DbacError(f"row {arg.var!r} has no column {arg.column!r}")
            return row[arg.column]
        raise AssertionError(arg)

    def run_query(query: Query) -> Result:
        values = tuple(arg_value(a) for a in query.args)
        outcome.queries_issued.append((query.sql, values))
        return connection.query(query.sql, list(values))

    def cond_value(cond: Cond) -> bool:
        if isinstance(cond, IsEmpty):
            if cond.var not in env:
                raise DbacError(f"no result bound to {cond.var!r}")
            return env[cond.var].is_empty()
        if isinstance(cond, Compare):
            left = arg_value(cond.left)
            right = arg_value(cond.right)
            return _compare(cond.op, left, right)
        if isinstance(cond, Not):
            return not cond_value(cond.operand)
        if isinstance(cond, And):
            return all(cond_value(op) for op in cond.operands)
        raise AssertionError(cond)

    def run_block(stmts: tuple[Stmt, ...]) -> bool:
        """Returns True when the handler has finished."""
        for stmt in stmts:
            if isinstance(stmt, Assign):
                env[stmt.var] = run_query(stmt.query)
            elif isinstance(stmt, If):
                branch = stmt.then if cond_value(stmt.cond) else stmt.orelse
                if run_block(branch):
                    return True
            elif isinstance(stmt, ForEach):
                if stmt.over not in env:
                    raise DbacError(f"no result bound to {stmt.over!r}")
                result = env[stmt.over]
                for row in result.as_dicts():
                    rows[stmt.row_var] = row
                    if run_block(stmt.body):
                        rows.pop(stmt.row_var, None)
                        return True
                rows.pop(stmt.row_var, None)
            elif isinstance(stmt, Return):
                if stmt.query is not None:
                    outcome.returned = run_query(stmt.query)
                return True
            elif isinstance(stmt, Abort):
                outcome.aborted = True
                outcome.abort_message = stmt.message
                return True
            else:
                raise AssertionError(stmt)
        return False

    run_block(handler.body)
    return outcome


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op in ("!=", "<>"):
        return left != right
    if left is None or right is None:
        return False
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise DbacError(f"unknown comparison {op!r}")
