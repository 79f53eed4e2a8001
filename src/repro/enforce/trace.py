"""Query traces and the ground facts they certify.

When the proxy allows a query and the database returns rows, every
returned row certifies the existence of matching rows in the base tables.
Example 2.1 hinges on this: ``Q1`` returning a row certifies the fact
``Attendance(1, 2)``, which later makes ``Q2`` compliant.

Fact extraction walks the query's CQ body: for each returned row, an atom
argument whose value is determined (a constant, a head variable bound by
the row, or a variable the comparisons pin to a constant) becomes that
constant; undetermined arguments become *labeled nulls* — fresh variables
meaning "some value exists here". Labeled nulls are shared within a row,
so joins are preserved.

How much of that is per request. For an equality-only query the
*structure* of the extraction is row-independent (:class:`ExtractionPlan`)
and, when the query is an execution of a prepared statement, independent
of the argument values too, up to which slots are equal:
:func:`certification_plan` builds it once per statement shape and slot
partition, and :meth:`Trace.record_planned` only substitutes slot and row
values. :meth:`Trace.record` — translate the bound statement, plan, run —
stays as the path for every shape the symbolic plan cannot express
exactly, and as the reference the planned path is tested against
(``tests/enforce/test_certification.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.engine.executor import Result
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Atom, Comp, Const, Term, Var
from repro.relalg.translate import SchemaInfo, translate_select
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.prepared import PreparedPlan
from repro.sqlir.skeleton import Skeleton
from repro.util.errors import TranslationError

_NULL_PREFIX = "\x00ln"

#: Certification plans kept per prepared plan (one per slot-equality
#: partition seen); an execution beyond the cap certifies per request.
MAX_CERTIFICATIONS_PER_PLAN = 16

#: Stands in for one partition class's value while a skeleton is
#: translated symbolically; like the prepared-plan probe values, it holds
#: a NUL byte, which no SQL literal can.
_SLOT_SENTINEL = "\x00repro-slot\x00"

# One atom argument of an extraction plan: ("const", Const) | ("slot",
# index into the execution's slot values) | ("col", result column) |
# ("null", class key: one labeled null per key and row) | ("fresh", None).
_Op = tuple[str, object]


def is_labeled_null(term: Term) -> bool:
    return isinstance(term, Var) and term.name.startswith(_NULL_PREFIX)


def fact_to_wire(fact: Atom) -> list:
    """``Atom`` → ``[rel, [["const", v] | ["null", n], ...]]``, the JSON
    form of a certified fact (audit logs, replay tooling).

    A labeled null is written as its per-trace name suffix, so two
    occurrences of the *same* null stay identical after a round trip.
    """
    args: list[list] = []
    for arg in fact.args:
        if is_labeled_null(arg):
            args.append(["null", arg.name[len(_NULL_PREFIX) :]])
        elif isinstance(arg, Const):
            args.append(["const", arg.value])
        else:  # pragma: no cover - trace facts only hold consts and nulls
            raise ValueError(f"cannot serialize fact argument {arg!r}")
    return [fact.rel, args]


def fact_from_wire(payload: list) -> Atom:
    """Inverse of :func:`fact_to_wire`; ``ValueError`` on an unknown kind."""
    rel, args = payload
    terms: list[Term] = []
    for kind, value in args:
        if kind == "null":
            terms.append(Var(f"{_NULL_PREFIX}{value}"))
        elif kind == "const":
            terms.append(Const(value))
        else:
            raise ValueError(f"unknown fact argument kind {kind!r}")
    return Atom(rel, tuple(terms))


def single_cq(stmt: ast.Select, schema: SchemaInfo) -> CQ | None:
    """The one CQ a bound SELECT translates to — the query whose answer
    certifies facts — or None (outside the fragment, or a union)."""
    try:
        query = translate_select(stmt, schema)
    except TranslationError:
        return None
    return query.disjuncts[0] if len(query.disjuncts) == 1 else None


@dataclass(frozen=True)
class ExtractionPlan:
    """The row-independent part of certifying an equality-only CQ's answer.

    Which atom argument is a fixed constant, which follows a result
    column, which classes share a labeled null — and the two checks a row
    can fail (a column against its class constant, columns of one class
    against each other). A constant is an op, so it may name a *slot* of
    the statement's skeleton: such a plan is built once per statement
    shape and run with each execution's slot values.
    """

    #: False when the query's own comparisons are contradictory: every
    #: per-row closure would be too, and no row certifies anything.
    consistent: bool = True
    const_checks: tuple[tuple[tuple[int, ...], _Op], ...] = ()
    equal_checks: tuple[tuple[int, ...], ...] = ()
    atoms: tuple[tuple[str, tuple[_Op, ...]], ...] = ()
    #: Of a symbolic plan: the constants its query compares that are not
    #: slots. A slot value equal to one (``1 == True``) would have merged
    #: with it in a per-request closure; the stand-ins kept them apart.
    inline: frozenset = frozenset()


def extraction_plan(
    query: CQ, slot_of: Mapping[object, int] | None = None
) -> ExtractionPlan | None:
    """Plan the certification of ``query``'s answers, or None when its
    comparisons go beyond equality (see ``Trace._extract_facts_general``).

    ``slot_of`` maps the stand-in constants of a symbolically translated
    skeleton to the slots they stand for.
    """
    if any(comp.op != "=" for comp in query.comps):
        return None
    slot_of = slot_of or {}

    def const_op(const: Const) -> _Op:
        slot = slot_of.get(const.value)
        return ("const", const) if slot is None else ("slot", slot)

    inline: frozenset = frozenset()
    if slot_of:
        inline = frozenset(
            term.value
            for comp in query.comps
            for term in (comp.left, comp.right)
            if isinstance(term, Const) and term.value not in slot_of
        )
    closure = ConstraintSet(query.comps)
    if not closure.consistent():
        return ExtractionPlan(consistent=False, inline=inline)
    # Equivalence classes of head columns, and a resolution op per atom
    # argument.
    head_cols: dict[Term, list[int]] = {}
    for index, term in enumerate(query.head):
        if isinstance(term, Var):
            head_cols.setdefault(closure.canon(term), []).append(index)
    const_checks = tuple(
        (tuple(columns), const_op(rep))
        for rep, columns in head_cols.items()
        if isinstance(rep, Const)
    )
    equal_checks = tuple(
        tuple(columns)
        for rep, columns in head_cols.items()
        if len(columns) > 1 and not isinstance(rep, Const)
    )
    atoms: list[tuple[str, tuple[_Op, ...]]] = []
    for atom in query.body:
        ops: list[_Op] = []
        for arg in atom.args:
            if isinstance(arg, Const):
                ops.append(const_op(arg))
            elif isinstance(arg, Var):
                rep = closure.canon(arg)
                if isinstance(rep, Const):
                    ops.append(const_op(rep))
                elif rep in head_cols:
                    ops.append(("col", head_cols[rep][0]))
                else:
                    # Same null-key rule as the general path: the class
                    # representative when it is a Var, the argument
                    # itself otherwise.
                    ops.append(("null", rep if isinstance(rep, Var) else arg))
            else:
                # A residual param in a bound query should not happen;
                # treat it as undetermined (fresh per occurrence).
                ops.append(("fresh", None))
        atoms.append((atom.rel, tuple(ops)))
    return ExtractionPlan(
        const_checks=const_checks,
        equal_checks=equal_checks,
        atoms=tuple(atoms),
        inline=inline,
    )


def certification_plan(
    plan: PreparedPlan, values: tuple[object, ...], schema: SchemaInfo
) -> ExtractionPlan | None:
    """The extraction plan for one execution of a prepared SELECT, or None
    when this shape or these values must certify per request.

    ``values`` are the execution's skeleton slot values
    (``plan.skeleton_for(...).values``). The plan is built once per
    partition of the slots into equal-valued classes: the skeleton is
    bound with one stand-in per class, translated, and planned like any
    bound query — so equal slots merge and distinct ones contradict
    exactly as their values would. It is exact or absent. None for: an
    untranslatable or multi-disjunct statement; a comparison other than
    ``=``; a slot in predicate position (translation reads its truth
    value); equal-valued slots of different types (``1`` and ``1.0``:
    which one a fact would carry depends on closure order); a slot value
    equal to an inline constant of the query (``1 == True``); and a
    partition past ``MAX_CERTIFICATIONS_PER_PLAN``.
    """
    leaders: dict[object, int] = {}
    classes: list[int] = []
    for index, value in enumerate(values):
        leader = leaders.setdefault(value, index)
        if type(values[leader]) is not type(value):
            return None
        classes.append(leader)
    # Keyed by schema too: translation expands ``*`` and resolves columns
    # against it. The entry keeps the schema alive, so its id stays its own.
    key = (id(schema), tuple(classes))
    memo = plan.certifications
    entry = memo.get(key)
    if entry is None:
        if len(memo) >= MAX_CERTIFICATIONS_PER_PLAN:
            return None
        entry = memo[key] = (schema, _certification(plan, classes, schema))
    extraction = entry[1]
    if extraction is None:
        return None
    if extraction.inline and any(value in extraction.inline for value in values):
        return None
    return extraction


def _certification(
    plan: PreparedPlan, classes: Sequence[int], schema: SchemaInfo
) -> ExtractionPlan | None:
    skeleton = plan.skeleton_statement
    assert isinstance(skeleton, ast.Select)
    conditions = [join.on for join in skeleton.joins]
    if skeleton.where is not None:
        conditions.append(skeleton.where)
    if any(_has_predicate_slot(condition) for condition in conditions):
        return None
    stand_ins = [f"{_SLOT_SENTINEL}{leader}" for leader in classes]
    probe = bind_parameters(skeleton, stand_ins)
    assert isinstance(probe, ast.Select)
    query = single_cq(probe, schema)
    if query is None:
        return None
    return extraction_plan(query, dict(zip(stand_ins, classes)))


def _has_predicate_slot(expr: ast.Expr) -> bool:
    """Is some slot a predicate on its own (``WHERE ? AND ...``)?"""
    if isinstance(expr, ast.Param):
        return True
    if isinstance(expr, ast.BoolOp):
        return any(_has_predicate_slot(operand) for operand in expr.operands)
    if isinstance(expr, ast.Not):
        return _has_predicate_slot(expr.operand)
    return False


def _describes(fact: Atom, row: tuple) -> bool:
    """Could ``row`` be a row ``fact`` certified? (Labeled nulls match
    any value; trace facts hold nothing but constants and them.)"""
    return len(fact.args) == len(row) and all(
        not isinstance(arg, Const) or arg.value == value
        for arg, value in zip(fact.args, row)
    )


def _values_equal(a: object, b: object) -> bool:
    # Mirrors ConstraintSet._union's constant-merge test exactly.
    return not (a != b or (a is None) != (b is None))


class Trace:
    """The facts a session's allowed queries have certified, in recency order.

    Bounded by construction: at most ``max_facts`` atoms plus two
    counters, however long the session runs. The ordered fact tuple
    (:attr:`facts`) is the whole decision-time history a compliance check
    reads, so it is also the one format a history is handed around in:
    :meth:`from_facts` rebuilds an equivalent trace from a snapshot of it.

    The facts live in an insertion-ordered dict (a re-certified fact is
    deleted and re-inserted, so dict order *is* recency order) and, the
    same way, in one dict per relation: :meth:`certified` answers "is
    this ground fact certified" with one probe, and :meth:`facts_of`
    yields one relation's facts in the order a scan of :attr:`facts`
    would meet them.

    Every fact must hold on the current database: the session's proxy
    hands each changed row's old image to :meth:`retire` before its next
    decision (and calls :meth:`clear` when it cannot tell which rows
    changed).
    """

    def __init__(self, max_facts: int = 256):
        self._facts: dict[Atom, Atom] = {}
        self._by_relation: dict[str, dict[Atom, Atom]] = {}
        #: ``facts`` as last built; None after a mutation.
        self._snapshot: tuple[Atom, ...] | None = ()
        self._null_counter = 0
        self._recorded = 0
        self.max_facts = max_facts

    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Trace":
        """A trace holding exactly ``facts``, in that order.

        For replaying a check against a decision-time snapshot
        (``trace.facts`` taken when the decision was made). Not meant to
        be recorded into: the snapshot's labeled nulls keep their names,
        and this trace's null counter starts from zero.
        """
        trace = cls()
        distinct = dict.fromkeys(facts)
        trace.max_facts = max(trace.max_facts, len(distinct))
        trace._certify(distinct)
        return trace

    def __len__(self) -> int:
        """Queries recorded so far (not facts: see ``len(trace.facts)``)."""
        return self._recorded

    @property
    def facts(self) -> tuple[Atom, ...]:
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = tuple(self._facts)
        return snapshot

    def certified(self, fact: Atom) -> Atom | None:
        """The certified fact equal to ``fact`` (the stored atom, whose
        constants may differ from ``fact``'s in type: ``1 == True``)."""
        return self._facts.get(fact)

    def facts_of(self, relation: str) -> Iterable[Atom]:
        """The facts over one relation, in recency order."""
        return self._by_relation.get(relation, ())

    def record(self, sql: str, query: CQ | None, result: Result) -> tuple[Atom, ...]:
        """Record an executed query; returns the facts its answer certifies
        (none for a query without a CQ translation). ``sql`` is taken for
        the callers that have it; nothing of it is kept."""
        facts: tuple[Atom, ...] = ()
        if query is not None and result.rows:
            facts = tuple(self._extract_facts(query, result))
        self._recorded += 1
        self._certify(facts)
        return facts

    def record_planned(
        self, plan: ExtractionPlan, values: Sequence[object], result: Result
    ) -> tuple[Atom, ...]:
        """:meth:`record` for a query whose extraction plan was built
        ahead (:func:`certification_plan`): ``values`` fill its slots."""
        facts = tuple(self._run(plan, values, result.rows)) if result.rows else ()
        self._recorded += 1
        self._certify(facts)
        return facts

    def record_execution(
        self,
        bound: ast.Select,
        result: Result,
        schema: SchemaInfo,
        plan: PreparedPlan | None = None,
        skeleton: Skeleton | None = None,
    ) -> tuple[Atom, ...]:
        """Record an executed SELECT the way its shape allows.

        With the statement's ``plan`` and this execution's ``skeleton``
        (``plan.skeleton_for(...)``), through the shape's certification
        plan when there is an exact one; otherwise — and for whatever
        :func:`certification_plan` declines — by translating ``bound``
        and planning its extraction per request. Same facts either way.
        """
        if plan is not None and skeleton is not None:
            extraction = certification_plan(plan, skeleton.values, schema)
            if extraction is not None:
                return self.record_planned(extraction, skeleton.values, result)
        # An empty answer certifies nothing, whatever the query.
        return self.record("", single_cq(bound, schema) if result.rows else None, result)

    def _certify(self, facts: Iterable[Atom]) -> None:
        known, by_relation = self._facts, self._by_relation
        for fact in facts:
            if known.pop(fact, None) is not None:
                # Re-certified: refresh recency so the checker's
                # most-recent-facts selection sees it again.
                relation = by_relation[fact.rel]
                del relation[fact]
            elif len(known) < self.max_facts:
                relation = by_relation.setdefault(fact.rel, {})
            else:
                continue
            known[fact] = relation[fact] = fact
            self._snapshot = None

    def retire(self, images: Iterable[tuple[str, tuple]]) -> int:
        """Drop every fact a changed row's old image matches; returns how
        many (:mod:`repro.engine.changes`: only such a row's change can
        make a certified fact false).

        A fact matches an image of its relation when each constant equals
        the row's value at its position (``==``, so ``1`` matches
        ``True``) and each labeled null matches anything: both retire
        more, never less.
        """
        retired = 0
        for relation, row in images:
            facts = self._by_relation.get(relation)
            if not facts:
                continue
            for fact in [fact for fact in facts if _describes(fact, row)]:
                del facts[fact], self._facts[fact]
                retired += 1
        if retired:
            self._snapshot = None
        return retired

    def clear(self) -> int:
        """Drop every fact (which changed rows is unknown); returns how many."""
        dropped = len(self._facts)
        self._facts, self._by_relation, self._snapshot = {}, {}, ()
        return dropped

    def relevant_facts(self, relations: set[str]) -> list[Atom]:
        """Facts over the given relations (what a compliance check conjoins)."""
        return [fact for fact in self._facts if fact.rel in relations]

    def _fresh_null(self) -> Var:
        self._null_counter += 1
        return Var(f"{_NULL_PREFIX}{self._null_counter}")

    def _extract_facts(self, query: CQ, result: Result) -> list[Atom]:
        """Facts certified by ``result`` under ``query``.

        Semantics are defined by :meth:`_extract_facts_general`: close the
        query's comparisons together with ``head_var = row value`` per
        row, then resolve each atom argument to its canonical form. For
        equality-only queries — every hot-path shape — that per-row
        closure is wasteful: the *structure* of the resolution is
        row-independent (:class:`ExtractionPlan`), so each row only
        substitutes values and runs the two cheap consistency checks a
        row can actually fail.
        """
        plan = extraction_plan(query)
        if plan is None:
            return self._extract_facts_general(query, result)
        return self._run(plan, (), result.rows)

    def _run(
        self, plan: ExtractionPlan, values: Sequence[object], rows: Iterable[tuple]
    ) -> list[Atom]:
        """Substitute each row (and the slot ``values``) into ``plan``."""
        facts: list[Atom] = []
        if not plan.consistent:
            return facts
        const_checks = [
            (columns, values[ref] if kind == "slot" else ref.value)  # type: ignore
            for columns, (kind, ref) in plan.const_checks
        ]
        equal_checks = plan.equal_checks
        slots = [Const(value) for value in values]
        for row in rows:
            if any(
                not _values_equal(row[column], value)
                for columns, value in const_checks
                for column in columns
            ):
                continue
            if any(
                not _values_equal(row[columns[0]], row[column])
                for columns in equal_checks
                for column in columns[1:]
            ):
                continue
            nulls: dict[object, Var] = {}
            for rel, ops in plan.atoms:
                resolved: list[Term] = []
                for kind, payload in ops:
                    if kind == "const":
                        resolved.append(payload)  # type: ignore[arg-type]
                    elif kind == "col":
                        resolved.append(Const(row[payload]))  # type: ignore[index]
                    elif kind == "slot":
                        resolved.append(slots[payload])  # type: ignore[index]
                    elif kind == "null":
                        null = nulls.get(payload)
                        if null is None:
                            null = self._fresh_null()
                            nulls[payload] = null
                        resolved.append(null)
                    else:
                        resolved.append(self._fresh_null())
                facts.append(Atom(rel, tuple(resolved)))
        return facts

    def _extract_facts_general(self, query: CQ, result: Result) -> list[Atom]:
        """The reference extraction: one constraint closure per row.

        Kept for queries whose comparisons go beyond equality (order or
        non-equality constraints can make a row's closure inconsistent in
        ways the precomputed plan does not model).
        """
        facts: list[Atom] = []
        head_vars = [
            (index, term)
            for index, term in enumerate(query.head)
            if isinstance(term, Var)
        ]
        for row in result.rows:
            row_comps = list(query.comps)
            for index, var in head_vars:
                row_comps.append(Comp("=", var, Const(row[index])))
            closure = ConstraintSet(row_comps)
            if not closure.consistent():
                continue  # result row contradicts the query; defensive skip
            nulls: dict[Var, Var] = {}
            for atom in query.body:
                resolved: list[Term] = []
                for arg in atom.args:
                    if isinstance(arg, Const):
                        resolved.append(arg)
                        continue
                    if isinstance(arg, Var):
                        canon = closure.canon(arg)
                        if isinstance(canon, Const):
                            resolved.append(canon)
                        else:
                            # Key nulls by equivalence class so joined
                            # variables share one labeled null.
                            key = canon if isinstance(canon, Var) else arg
                            null = nulls.get(key)
                            if null is None:
                                null = self._fresh_null()
                                nulls[key] = null
                            resolved.append(null)
                        continue
                    # A residual param in a bound query should not happen;
                    # treat it as undetermined.
                    resolved.append(self._fresh_null())
                facts.append(Atom(atom.rel, tuple(resolved)))
        return facts
