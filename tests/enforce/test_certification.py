"""Certification plans: exact, or absent.

Every recorded SELECT is certified by an extraction plan. The reference
it must match — same facts, same constant types, same labeled-null
names, same order — is the per-row constraint closure below
(:func:`closure_facts`), run over the rows a real engine returned. And a
prepared SELECT's plan, built once per slot-equality partition
(``repro.enforce.trace.certification_plan``) and run with each
execution's slot values, must certify exactly what translating the
bound statement and planning its extraction per request certifies;
every shape or execution it cannot express that way must be declined,
so the per-request path takes it.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import (
    MAX_CERTIFICATIONS_PER_PLAN,
    ExtractionPlan,
    Trace,
    certification_plan,
    extraction_plan,
    is_labeled_null,
    single_cq,
)
from repro.engine.executor import Result
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Atom, Comp, Const, Term, Var
from repro.sqlir.parser import parse_sql
from repro.sqlir.prepared import prepare_plan
from repro.util.errors import EngineError
from repro.workloads import calendar_app, social

APPS = {"calendar": calendar_app, "social": social}
SCHEMAS = {name: app.make_schema() for name, app in APPS.items()}
CHECKERS = {
    name: ComplianceChecker(SCHEMAS[name], app.ground_truth_policy())
    for name, app in APPS.items()
}
#: (alias, table, columns) a generated statement may range over, and the
#: column pairs it may join them on.
TABLES = {
    "calendar": [
        ("u", "Users", ("UId", "Name")),
        ("e", "Events", ("EId", "Title", "Time", "Loc")),
        ("a", "Attendance", ("UId", "EId")),
    ],
    "social": [
        ("u", "Users", ("UId", "Name")),
        ("f", "Friendships", ("UId1", "UId2")),
        ("p", "Posts", ("PId", "Author", "Content", "Visibility")),
        ("c", "Comments", ("CId", "PId", "Author", "Body")),
    ],
}
#: Values chosen to collide: ``1 == True == 1.0`` and ``0 == False`` hash
#: alike, NULL and strings collide with nothing.
VALUES = [0, 1, 2, True, 1.0, "a", None]
LITERALS = ["0", "1", "2", "TRUE", "1.0", "'a'", "NULL"]  # parallel to VALUES


def sql_literal(value) -> str:
    # Not a dict: 1, True and 1.0 would be one key.
    return next(
        text
        for known, text in zip(VALUES, LITERALS)
        if known == value and type(known) is type(value)
    )


def typed(facts) -> tuple:
    """Facts with what ``Atom.__eq__`` ignores made visible: constant
    types (``Const(1) == Const(True)``) next to values and null names."""
    return tuple(
        (
            fact.rel,
            tuple(
                (type(arg).__name__, type(getattr(arg, "value", None)).__name__, repr(arg))
                for arg in fact.args
            ),
        )
        for fact in facts
    )


def reference_query(app: str, bound):
    """What the proxy's per-request path certifies under: the bound
    statement's CQ when it has exactly one."""
    query = CHECKERS[app].translate(bound)
    if query is None or len(query.disjuncts) != 1:
        return None
    return query.disjuncts[0]


def resolved(plan: ExtractionPlan, values=()) -> tuple:
    """An extraction plan with its slots filled in and what equality
    ignores made visible: a symbolic plan resolved with an execution's
    slot values must *be* the plan of that execution's bound query."""
    null_keys: dict[object, int] = {}

    def operand(kind, ref):
        if kind == "slot":
            kind, ref = "const", Const(values[ref])
        if kind == "const":
            return kind, type(ref.value).__name__, ref.value
        if kind == "null":  # which variable keys a class is immaterial
            return kind, null_keys.setdefault(ref, len(null_keys))
        return kind, ref

    return (
        plan.consistent,
        tuple((op, operand(*left), operand(*right)) for op, left, right in plan.checks),
        tuple((rel, tuple(operand(*o) for o in ops)) for rel, ops in plan.atoms),
    )


def closure_facts(query: CQ, rows, trace: Trace) -> list[Atom]:
    """The reference certification: one constraint closure per row.

    Close the query's comparisons together with ``head column = row
    value``; a row whose closure is inconsistent certifies nothing.
    Otherwise each atom argument becomes its class constant or, failing
    one, a labeled null (named by ``trace``) shared by its class, so
    joined variables share one null.
    """
    facts: list[Atom] = []
    head_vars = [
        (index, term) for index, term in enumerate(query.head) if isinstance(term, Var)
    ]
    for row in rows:
        row_comps = list(query.comps)
        for index, var in head_vars:
            row_comps.append(Comp("=", var, Const(row[index])))
        closure = ConstraintSet(row_comps)
        if not closure.consistent():
            continue
        nulls: dict[Term, Var] = {}
        for atom in query.body:
            resolved_args: list[Term] = []
            for arg in atom.args:
                if isinstance(arg, Const):
                    resolved_args.append(arg)
                    continue
                canon = closure.canon(arg) if isinstance(arg, Var) else None
                if isinstance(canon, Const):
                    resolved_args.append(canon)
                    continue
                if canon is None:  # a residual param: undetermined
                    resolved_args.append(trace._fresh_null())
                    continue
                key = canon if isinstance(canon, Var) else arg
                if key not in nulls:
                    nulls[key] = trace._fresh_null()
                resolved_args.append(nulls[key])
            facts.append(Atom(atom.rel, tuple(resolved_args)))
    return facts


@st.composite
def statements(draw, palette, plain):
    """A SELECT over one or two tables of an app: ``(app, sql, named)``
    where ``named`` lists the named parameters it uses (positional ``?``
    are counted from the text). Predicates stay on two columns and the
    ``palette``'s literals, so that slots meet each other, inline
    constants and contradictions often; a ``plain`` statement is a
    conjunction of equalities, the shape certification plans exist for."""
    app = draw(st.sampled_from(sorted(TABLES)))
    tables = draw(
        st.lists(st.sampled_from(TABLES[app]), min_size=1, max_size=2, unique=True)
    )
    columns = [f"{alias}.{column}" for alias, _, cols in tables for column in cols]
    column = st.sampled_from(draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2)))
    named = ["p", "q"]
    literal = st.sampled_from(palette).map(sql_literal)
    operand = st.one_of(
        st.just("?"), st.just("?"), st.sampled_from(["?p", "?p", "?q"]), literal
    )
    _, other_table, other_columns = draw(st.sampled_from(TABLES[app]))
    exists = (
        f"EXISTS (SELECT 1 FROM {other_table} x"
        f" WHERE x.{other_columns[0]} = {draw(operand)})"
    )

    def comparison(ops=("=",) * 10 + ("<", "<>")):
        if plain:
            ops = ("=",)
        left = draw(st.one_of(column, column, column, operand))
        right = draw(st.one_of(operand, operand, operand, column))
        return f"{left} {draw(st.sampled_from(ops))} {right}"

    def predicate():
        kind = draw(
            st.sampled_from(
                ["cmp"] * 12
                + (["in1", "null"] if plain else [])
                + ["in", "in1", "null", "null", "exists", "bare", "bare", "not"]
            )
        )
        if kind == "cmp":
            return comparison()
        if kind == "in":
            return f"{draw(column)} IN ({draw(operand)}, {draw(operand)})"
        if kind == "in1":
            return f"{draw(column)} IN ({draw(operand)})"
        if kind == "null":
            return f"{draw(column)} IS {draw(st.sampled_from(['', '', 'NOT ']))}NULL"
        if kind == "exists":
            return exists
        if kind == "bare":
            return draw(st.one_of(st.just("?"), literal))
        return f"NOT ({comparison()})"

    source = f"{tables[0][1]} {tables[0][0]}"
    if len(tables) == 2:
        (left, _, left_cols), (right, right_table, right_cols) = tables
        on = (
            f"{left}.{draw(st.sampled_from(left_cols))}"
            f" = {right}.{draw(st.sampled_from(right_cols))}"
        )
        if draw(st.booleans()):
            on += f" AND {right}.{draw(st.sampled_from(right_cols))} = {draw(operand)}"
        source += f" JOIN {right_table} {right} ON {on}"
    items = draw(
        st.one_of(
            st.just("*"),
            st.just(f"{tables[0][0]}.*"),
            st.lists(st.one_of(column, column, operand), min_size=1, max_size=3).map(
                ", ".join
            ),
        )
    )
    predicates = [predicate() for _ in range(draw(st.integers(0, 4)))]
    where = ""
    if predicates:
        joiner = " AND " if plain else draw(st.sampled_from([" AND "] * 4 + [" OR "]))
        where = " WHERE " + joiner.join(predicates)
    sql = f"SELECT {items} FROM {source}{where}"
    return app, sql, [name for name in named if f"?{name}" in sql]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_planned_certification_equals_translate_and_record(data):
    plain = data.draw(st.sampled_from([True, True, False]), label="plain")
    palette = data.draw(
        st.one_of(
            st.sampled_from([[1, True], [1, 1.0], [0, 1, True], [1, 2, None]]),
            st.lists(st.sampled_from(VALUES), min_size=1, max_size=3),
        ),
        label="palette",
    )
    values = st.sampled_from(palette)
    app, sql, named = data.draw(statements(palette, plain), label="statement")
    schema = SCHEMAS[app]
    plan = prepare_plan(parse_sql(sql), sql)
    positional = sql.replace("?p", "").replace("?q", "").count("?")
    planned, reference = Trace(max_facts=12), Trace(max_facts=12)
    # Several executions of the one plan: a partition's plan is built by
    # the first execution that needs it and reused by the later ones.
    for _ in range(data.draw(st.integers(1, 4))):
        args = [data.draw(values) for _ in range(positional)]
        bindings = {name: data.draw(values) for name in named}
        bound = plan.bind(args, bindings)
        query = reference_query(app, bound)
        width = len(query.head) if query is not None else 1
        rows = data.draw(st.lists(st.tuples(*[values] * width), min_size=1, max_size=3))
        result = Result(columns=[f"c{i}" for i in range(width)], rows=rows)
        skeleton = plan.skeleton_for(args, bindings)
        if skeleton is not None:
            symbolic = certification_plan(plan, skeleton.values, schema)
            if symbolic is not None:
                assert query is not None
                assert resolved(symbolic, skeleton.values) == resolved(
                    extraction_plan(query)
                )
        planned.record_execution(bound, result, schema, plan, skeleton)
        reference.record(sql, query, result)
        assert typed(planned.facts) == typed(reference.facts)
        assert len(planned) == len(reference)
    assert len(plan.certifications) <= MAX_CERTIFICATIONS_PER_PLAN


def up_to_null_renaming(facts) -> tuple:
    """:func:`typed`, with each labeled null named by its first
    occurrence: equal iff the facts are, up to renaming the nulls."""
    names: dict[str, int] = {}

    def arg(term):
        if is_labeled_null(term):
            return ("null", names.setdefault(term.name, len(names)))
        return (type(term.value).__name__, repr(term))

    return tuple((fact.rel, tuple(arg(term) for term in fact.args)) for fact in facts)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_the_plans_extractor_certifies_what_record_certifies(data):
    """One call of a plan's compiled extractor builds, in order, the facts
    ``Trace.record(sql, single_cq(bound), result)`` certifies for the
    same execution — whatever the trace's labeled nulls are named — and
    the per-row constraint closure does."""
    plain = data.draw(st.sampled_from([True, True, False]), label="plain")
    palette = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    values = st.sampled_from(palette)
    app, sql, named = data.draw(statements(palette, plain), label="statement")
    schema = SCHEMAS[app]
    plan = prepare_plan(parse_sql(sql), sql)
    positional = sql.replace("?p", "").replace("?q", "").count("?")
    args = [data.draw(values) for _ in range(positional)]
    bindings = {name: data.draw(values) for name in named}
    skeleton = plan.skeleton_for(args, bindings)
    assume(skeleton is not None)
    extraction = certification_plan(plan, skeleton.values, schema)
    assume(extraction is not None)
    bound = plan.bind(args, bindings)
    query = single_cq(bound, schema)
    assert query is not None
    rows = data.draw(st.lists(st.tuples(*[values] * len(query.head)), max_size=3))
    result = Result(columns=[f"c{i}" for i in range(len(query.head))], rows=rows)
    extracting = Trace()
    extracting._null_counter = data.draw(st.integers(0, 5), label="nulls already named")
    extracted = extraction.extract(skeleton.values, rows, extracting._fresh_null)
    recorded = Trace().record(sql, query, result)
    assert up_to_null_renaming(extracted) == up_to_null_renaming(recorded)
    # Both run a compiled plan; the per-row closure runs none.
    reference = closure_facts(query, rows, Trace())
    assert up_to_null_renaming(extracted) == up_to_null_renaming(reference)


def certification(app: str, sql: str, args=(), named=None):
    plan = prepare_plan(parse_sql(sql), sql)
    skeleton = plan.skeleton_for(args, named)
    if skeleton is None:
        return None
    return certification_plan(plan, skeleton.values, SCHEMAS[app])


class TestWhatThePlanTakesAndWhatItDeclines:
    """The fallback list of ISSUE 20, one case each — so the property
    above cannot pass by declining everything."""

    def test_hot_path_shapes_are_planned(self):
        for app, sql, args in [
            ("calendar", "SELECT EId FROM Attendance WHERE UId = ?", [1]),
            ("calendar", "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 2]),
            ("calendar", "SELECT * FROM Events WHERE EId = ?", [3]),
            (
                "calendar",
                "SELECT e.EId, e.Title FROM Events e JOIN Attendance a"
                " ON e.EId = a.EId WHERE a.UId = ?",
                [1],
            ),
            ("social", "SELECT PId, Content FROM Posts WHERE Author = ? AND Visibility = 'public'", [4]),
            ("social", "SELECT Name FROM Users WHERE UId = 7 AND Name IS NULL", []),
            # Comparisons other than "=": a slot in one is a per-row check.
            ("calendar", "SELECT EId FROM Attendance WHERE UId = ? AND EId < ?", [1, 5]),
            ("calendar", "SELECT EId FROM Attendance WHERE UId <> ?", [1]),
        ]:
            assert certification(app, sql, args) is not None, sql

    def test_declined_shapes(self):
        declined = [
            # A parameter inside EXISTS: the plan is not static.
            (
                "SELECT UId FROM Attendance a WHERE EXISTS"
                " (SELECT 1 FROM Events e WHERE e.EId = ?)",
                [1],
            ),
            # Untranslatable (an aggregate), and a union (two disjuncts).
            ("SELECT COUNT(*) FROM Attendance WHERE UId = ?", [1]),
            ("SELECT EId FROM Attendance WHERE UId IN (?, ?)", [1, 2]),
            # A slot in predicate position: translation reads its truth value.
            ("SELECT EId FROM Attendance WHERE 1 AND UId = ?", [1]),
            ("SELECT EId FROM Attendance WHERE ? AND UId = ?", [0, 1]),
        ]
        for sql, args in declined:
            assert certification("calendar", sql, args) is None, sql

    def test_declined_executions_of_a_planned_shape(self):
        sql = "SELECT EId FROM Attendance WHERE UId = ? AND UId = ?"
        assert certification("calendar", sql, [1, 1]) is not None
        assert certification("calendar", sql, [1, 2]) is not None
        # bool / NULL arguments change the skeleton itself.
        assert certification("calendar", sql, [True, 1]) is None
        assert certification("calendar", sql, [None, 1]) is None
        # Equal values of different types: which one would a fact carry?
        assert certification("calendar", sql, [1, 1.0]) is None
        # A slot value equal to an inline constant of the query.
        inline = "SELECT EId FROM Attendance WHERE UId = TRUE AND UId = ?"
        assert certification("calendar", inline, [2]) is not None
        assert certification("calendar", inline, [1]) is None

    def test_partitions_past_the_cap_are_declined_not_stored(self):
        sql = (
            "SELECT 1 FROM Attendance WHERE UId = ? AND UId = ? AND UId = ?"
            " AND EId = ? AND EId = ?"
        )
        plan = prepare_plan(parse_sql(sql), sql)
        schema = SCHEMAS["calendar"]
        planned, reference = Trace(), Trace()
        result = Result(columns=["c"], rows=[(1,)])
        taken = 0
        for code in range(3**5):  # every way to fill five slots from {0, 1, 2}
            args = [code // 3**i % 3 for i in range(5)]
            skeleton = plan.skeleton_for(args)
            taken += certification_plan(plan, skeleton.values, schema) is not None
            bound = plan.bind(args)
            planned.record_execution(bound, result, schema, plan, skeleton)
            reference.record(sql, reference_query("calendar", bound), result)
        assert typed(planned.facts) == typed(reference.facts) and planned.facts
        assert len(plan.certifications) == MAX_CERTIFICATIONS_PER_PLAN
        assert 0 < taken < 3**5


@functools.cache
def engine_database(app: str, backend: str):
    """A small read-only database of ``app`` on ``backend``."""
    return APPS[app].make_database(5, backend=backend)


def engine_facts(app: str, sql: str, args, backend: str):
    """Run ``sql`` on ``backend``; ``(rows, what the per-request path
    certifies, what the prepared path certifies, the reference)`` — or
    None when the engine refuses the statement (the in-memory engine
    does not compare values of different types)."""
    plan = prepare_plan(parse_sql(sql), sql)
    bound = plan.bind(args)
    try:
        result = engine_database(app, backend).execute_bound(bound)
    except EngineError:
        return None
    schema = SCHEMAS[app]
    query = single_cq(bound, schema)
    recorded = Trace().record(sql, query, result)
    executed = Trace().record_execution(
        bound, result, schema, plan, plan.skeleton_for(args)
    )
    reference = closure_facts(query, result.rows, Trace()) if query is not None else []
    return result.rows, recorded, executed, reference


ORDER_OPS = ("=", "=", "<", "<=", ">", ">=", "<>")


@st.composite
def ordered_statements(draw):
    """A conjunctive SELECT over one or two tables of an app whose
    comparisons are mostly orders and ``<>``, between columns, slots and
    the ``VALUES`` literals: ``(app, sql, args)``."""
    app = draw(st.sampled_from(sorted(TABLES)))
    tables = draw(
        st.lists(st.sampled_from(TABLES[app]), min_size=1, max_size=2, unique=True)
    )
    columns = [f"{alias}.{column}" for alias, _, cols in tables for column in cols]
    args: list = []

    def operand():
        kind = draw(st.sampled_from(["column", "column", "slot", "literal"]))
        if kind == "column":
            return draw(st.sampled_from(columns))
        # Ints weighted up: a NULL operand matches no row.
        value = draw(st.sampled_from(VALUES + [0, 1, 2]))
        if kind == "literal":
            return sql_literal(value)
        args.append(value)
        return "?"

    def comparison():
        return f"{operand()} {draw(st.sampled_from(ORDER_OPS))} {operand()}"

    source = f"{tables[0][1]} {tables[0][0]}"
    if len(tables) == 2:
        (left, _, left_cols), (right, right_table, right_cols) = tables
        on = (
            f"{left}.{draw(st.sampled_from(left_cols))}"
            f" {draw(st.sampled_from(ORDER_OPS))}"
            f" {right}.{draw(st.sampled_from(right_cols))}"
        )
        source += f" JOIN {right_table} {right} ON {on}"
    items = draw(
        st.one_of(
            st.just("*"),
            st.lists(st.sampled_from(columns), min_size=1, max_size=3).map(", ".join),
        )
    )
    predicates = [comparison() for _ in range(draw(st.integers(1, 3)))]
    sql = f"SELECT {items} FROM {source} WHERE {' AND '.join(predicates)}"
    return app, sql, args


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(statement=ordered_statements(), backend=st.sampled_from(["memory", "sqlite"]))
def test_plans_certify_as_the_per_row_closure_does_on_engine_rows(statement, backend):
    """Rows a real engine returned, so a comparison with an existential
    endpoint has a witness: the plan's checks — the ground comparisons —
    are then exactly what the per-row closure rejects a row for. The
    sqlite leg matters: it compares values of different types (a TEXT
    column against ``0``) where the in-memory engine refuses to."""
    app, sql, args = statement
    outcome = engine_facts(app, sql, args, backend)
    assume(outcome is not None)
    _, recorded, executed, reference = outcome
    assert typed(recorded) == typed(reference)
    assert typed(executed) == typed(reference)


def test_a_ground_comparison_across_types_certifies_nothing():
    """sqlite compares a TEXT column with ``0`` as text and returns every
    post; the closure's comparator cannot order a string against a
    number, so the per-row closure — and the plan's ground check —
    certify none of them."""
    sql = "SELECT p.Content FROM Posts p WHERE p.Content > ?"
    rows, recorded, executed, reference = engine_facts("social", sql, [0], "sqlite")
    assert rows
    assert recorded == executed == tuple(reference) == ()
