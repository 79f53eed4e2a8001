"""The pruning lemma: a fact :func:`helpful_facts` drops cannot help.

For a query ``Q`` and certified facts ``F``: whenever ``Q ∧ F`` has an
equivalent rewriting over the views (the checker's compliance test, facts
conjoined and offered as coverage), ``Q ∧ kept(F)`` has one too, and a
minimal set of facts that still admits a rewriting lies inside
``kept(F)`` — so a check that only ever conjoins kept facts decides as if
it had them all. Statements come from the certification property's
generator and from pinned single-table lookups (the guarded fetch that
history exists for); facts are instances of the query's own subgoals and
of its guard patterns (values or labeled nulls where they leave a
variable), or any atom, at most four so the unpruned search finishes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce.checker import CHECK_STEP_BUDGET, helpful_facts
from repro.enforce.trace import Trace, fact_from_wire
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Atom, Const, Var
from repro.relalg.rewrite import (
    GuardPattern,
    SearchBudget,
    SearchBudgetExhausted,
    find_equivalent_rewriting,
    guard_patterns,
)
from repro.sqlir.parser import parse_sql
from repro.sqlir.prepared import prepare_plan
from repro.util.errors import DbacError
from tests.enforce.test_certification import APPS, CHECKERS, SCHEMAS, TABLES, statements

#: The views of session ``MyUId = 1``.
VIEWS = {name: app.ground_truth_policy().view_defs({"MyUId": 1}) for name, app in APPS.items()}
#: Fact values: they meet the views' constants, the session's id and each other.
VALUES = [0, 1, 2, 3, "public", "friends", None]
#: Statement literals and slot values, mostly the session's id and its
#: neighbours; the lookups also pin the views' constants.
SLOTS = [1, 2, 3]
PINS = ["1", "2", "3", "'friends'", "'public'"]


def rewrites(query: CQ, views, facts: list[Atom]) -> bool | None:
    """Does ``query ∧ facts`` have an equivalent rewriting (None: the
    search ran out of budget, which says nothing)?"""
    augmented = CQ(
        head=query.head,
        body=query.body + tuple(facts),
        comps=query.comps,
        head_names=query.head_names,
    )
    try:
        found = find_equivalent_rewriting(
            augmented, views, facts=facts, budget=SearchBudget(CHECK_STEP_BUDGET)
        )
    except SearchBudgetExhausted:
        return None
    return found is not None


@st.composite
def lookups(draw):
    """``SELECT ... FROM T WHERE T.c = v AND ...`` over one app table."""
    app = draw(st.sampled_from(sorted(TABLES)))
    _, table, columns = draw(st.sampled_from(TABLES[app]))
    pinned = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    items = draw(
        st.one_of(
            st.just("*"),
            st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True).map(
                ", ".join
            ),
        )
    )
    where = " AND ".join(f"{column} = {draw(st.sampled_from(PINS))}" for column in pinned)
    return app, f"SELECT {items} FROM {table} WHERE {where}", []


@st.composite
def fact_for(draw, query: CQ, patterns: list[GuardPattern], app: str):
    """A ground fact: an instance of a guard-pattern atom or of a query
    subgoal — the constants the query's closure pins kept, a value or a
    labeled null wherever it leaves a variable — or any atom over the
    app's relations."""
    value = st.one_of(
        st.sampled_from(VALUES).map(lambda v: ["const", v]),
        st.sampled_from(["n1", "n2"]).map(lambda n: ["null", n]),
    )
    wanted = [atom for pattern in patterns for atom in pattern.atoms]
    source = draw(st.sampled_from(["pattern", "pattern", "subgoal", "any"]))
    if source == "any":
        relation = draw(st.sampled_from(sorted(SCHEMAS[app].table_names())))
        width = len(SCHEMAS[app].columns_of(relation))
        return fact_from_wire([relation, [draw(value) for _ in range(width)]])
    atom = draw(st.sampled_from(wanted if source == "pattern" and wanted else query.body))
    closure = ConstraintSet(query.comps)
    pins = [arg if isinstance(arg, Const) else closure.pinned(arg) for arg in atom.args]
    return fact_from_wire(
        [atom.rel, [draw(value) if pin is None else ["const", pin.value] for pin in pins]]
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_pruned_facts_never_complete_a_rewriting(data):
    plain = data.draw(st.booleans(), label="plain")
    app, sql, named = data.draw(
        st.one_of(statements(SLOTS[:2], plain), lookups(), lookups()), label="statement"
    )
    positional = sql.replace("?p", "").replace("?q", "").count("?")
    args = [data.draw(st.sampled_from(SLOTS)) for _ in range(positional)]
    bindings = {name: data.draw(st.sampled_from(SLOTS)) for name in named}
    try:
        bound = prepare_plan(parse_sql(sql), sql).bind(args, bindings)
    except DbacError:
        return
    query = CHECKERS[app].translate(bound)
    if query is None:
        return
    views = VIEWS[app]
    for disjunct in query.disjuncts[:2]:
        patterns = guard_patterns(disjunct, views)
        facts = data.draw(
            st.lists(fact_for(disjunct, patterns, app), min_size=1, max_size=4, unique=True),
            label="facts",
        )
        trace = Trace.from_facts(facts)
        kept, _ = helpful_facts(disjunct, patterns, trace)
        assert set(kept) <= set(trace.facts)
        if not rewrites(disjunct, views, list(trace.facts)):
            continue
        assert rewrites(disjunct, views, kept) is not False, (sql, trace.facts, kept)
        support = list(trace.facts)
        for fact in list(support):
            fewer = [other for other in support if other != fact]
            if rewrites(disjunct, views, fewer):
                support = fewer
        assert set(support) <= set(kept), (sql, trace.facts, kept, support)


def test_unpinned_query_variables_and_labeled_nulls_match_nothing_but_wildcards():
    """``SELECT * FROM Events``: V2 lacks ``Attendance(1, EId)`` for an
    ``EId`` the query leaves open, which no fact — ground or with a
    labeled null — completes; the same pattern for ``EId = 2`` takes
    ``Attendance(1, 2)`` and nothing else."""
    views, checker = VIEWS["calendar"], CHECKERS["calendar"]

    def disjunct(sql: str) -> CQ:
        return checker.translate(prepare_plan(parse_sql(sql), sql).bind([], {})).disjuncts[0]

    ground = Atom("Attendance", (Const(1), Const(2)))  # (UId, EId)
    null = fact_from_wire(["Attendance", [["const", 1], ["null", "7"]]])
    trace = Trace.from_facts([null, ground])
    everything = disjunct("SELECT * FROM Events")
    kept, missing = helpful_facts(everything, guard_patterns(everything, views), trace)
    assert kept == []
    assert any(
        atom.rel == "Attendance" and isinstance(atom.args[1], Var) for atom in missing
    )
    one = disjunct("SELECT * FROM Events WHERE EId = 2")
    kept, _ = helpful_facts(one, guard_patterns(one, views), trace)
    assert kept == [ground]


def test_each_rule_keeps_the_facts_that_answer():
    """One statement per way a fact helps, allowed with it and not without.

    A ground pattern atom: Example 2.1's ``Attendance(1, 2)``. A pattern
    atom with wildcards: Vowncomments lacks ``Posts(1, 1, _, _)``. Two the
    property found in drafts that let no unpinned query variable match:
    ``Posts(1, 2, 1, 0)`` is an instance of the one subgoal of ``SELECT
    PId ... Content = 1`` — its ``Visibility`` is existential — and answers
    it with Vmeta; ``Events(0, 0, 1, 0)`` is an instance of ``SELECT Time
    FROM Events WHERE Time = 1``'s subgoal, so V2 may land on facts alone,
    its pattern ``Attendance(1, EId)`` met by ``Attendance(1, 0)``.
    """
    cases = [
        (
            "calendar",
            "SELECT * FROM Events WHERE EId = 2",
            [Atom("Attendance", (Const(1), Const(2)))],
        ),
        (
            "social",
            "SELECT * FROM Comments WHERE PId = 1",
            [Atom("Posts", (Const(1), Const(1), Const("x"), Const("friends")))],
        ),
        (
            "social",
            "SELECT PId FROM Posts WHERE PId = 1 AND Author = 2 AND Content = 1",
            [Atom("Posts", (Const(1), Const(2), Const(1), Const(0)))],
        ),
        (
            "calendar",
            "SELECT Time FROM Events WHERE Time = 1",
            [
                Atom("Attendance", (Const(1), Const(0))),
                Atom("Events", (Const(0), Const(0), Const(1), Const(0))),
            ],
        ),
    ]
    for app, sql, facts in cases:
        query = CHECKERS[app].translate(prepare_plan(parse_sql(sql), sql).bind([], {}))
        (disjunct,) = query.disjuncts
        views = VIEWS[app]
        assert not rewrites(disjunct, views, []) and rewrites(disjunct, views, facts), sql
        kept, _ = helpful_facts(disjunct, guard_patterns(disjunct, views), Trace.from_facts(facts))
        assert set(kept) == set(facts), sql
