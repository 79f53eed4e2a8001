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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.engine.executor import Result
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Atom, Comp, Const, Term, Var

_NULL_PREFIX = "\x00ln"


def is_labeled_null(term: Term) -> bool:
    return isinstance(term, Var) and term.name.startswith(_NULL_PREFIX)


@dataclass
class TraceEntry:
    """One allowed-and-executed query with its result."""

    sql: str
    query: CQ | None  # None when the query had no CQ translation
    result_columns: tuple[str, ...]
    result_rows: tuple[tuple, ...]
    facts: tuple[Atom, ...] = ()

    @property
    def returned_rows(self) -> int:
        return len(self.result_rows)


class Trace:
    """The facts a session's allowed queries have certified, in recency order.

    Bounded by construction: at most ``max_facts`` atoms plus two
    counters, however long the session runs. The ordered fact tuple
    (:attr:`facts`) is the whole decision-time history a compliance check
    reads, so it is also the one format a history is handed around in:
    :meth:`from_facts` rebuilds an equivalent trace from a snapshot of it.
    """

    def __init__(self, max_facts: int = 256):
        self._facts: list[Atom] = []
        self._fact_set: set[Atom] = set()
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
        trace._facts = list(dict.fromkeys(facts))
        trace._fact_set = set(trace._facts)
        trace.max_facts = max(trace.max_facts, len(trace._facts))
        return trace

    def __len__(self) -> int:
        """Queries recorded so far (not facts: see ``len(trace.facts)``)."""
        return self._recorded

    @property
    def facts(self) -> tuple[Atom, ...]:
        return tuple(self._facts)

    def record(self, sql: str, query: CQ | None, result: Result) -> TraceEntry:
        """Record an executed query; extract and accumulate its facts."""
        facts: tuple[Atom, ...] = ()
        if query is not None and result.rows:
            facts = tuple(self._extract_facts(query, result))
        entry = TraceEntry(
            sql=sql,
            query=query,
            result_columns=tuple(result.columns),
            result_rows=tuple(result.rows),
            facts=facts,
        )
        self._recorded += 1
        for fact in facts:
            if fact in self._fact_set:
                # Re-certified: refresh recency so the checker's
                # most-recent-facts selection sees it again.
                self._facts.remove(fact)
                self._facts.append(fact)
            elif len(self._facts) < self.max_facts:
                self._fact_set.add(fact)
                self._facts.append(fact)
        return entry

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
        closure is wasteful: the *structure* of the resolution (which
        argument is a fixed constant, which follows a head column, which
        classes share a labeled null) is row-independent, so it is
        computed once here and each row only substitutes values and runs
        the two cheap consistency checks a row can actually fail
        (row value vs. class constant, and equal head columns).
        """
        if any(comp.op != "=" for comp in query.comps):
            return self._extract_facts_general(query, result)
        closure = ConstraintSet(query.comps)
        if not closure.consistent():
            return []  # every per-row closure would be inconsistent too
        # Row-independent structure: equivalence classes of head columns,
        # and a resolution op per atom argument.
        head_cols: dict[Term, list[int]] = {}
        for index, term in enumerate(query.head):
            if isinstance(term, Var):
                head_cols.setdefault(closure.canon(term), []).append(index)
        const_checks = [
            (columns, rep.value)
            for rep, columns in head_cols.items()
            if isinstance(rep, Const)
        ]
        equal_checks = [
            columns for rep, columns in head_cols.items()
            if len(columns) > 1 and not isinstance(rep, Const)
        ]
        plan: list[tuple[str, list[tuple[str, object]]]] = []
        for atom in query.body:
            ops: list[tuple[str, object]] = []
            for arg in atom.args:
                if isinstance(arg, Const):
                    ops.append(("const", arg))
                elif isinstance(arg, Var):
                    rep = closure.canon(arg)
                    if isinstance(rep, Const):
                        ops.append(("const", rep))
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
            plan.append((atom.rel, ops))

        def values_equal(a: object, b: object) -> bool:
            # Mirrors ConstraintSet._union's constant-merge test exactly.
            return not (a != b or (a is None) != (b is None))

        facts: list[Atom] = []
        for row in result.rows:
            if any(
                not values_equal(row[column], value)
                for columns, value in const_checks
                for column in columns
            ):
                continue
            if any(
                not values_equal(row[columns[0]], row[column])
                for columns in equal_checks
                for column in columns[1:]
            ):
                continue
            nulls: dict[object, Var] = {}
            for rel, ops in plan:
                resolved: list[Term] = []
                for kind, payload in ops:
                    if kind == "const":
                        resolved.append(payload)  # type: ignore[arg-type]
                    elif kind == "col":
                        resolved.append(Const(row[payload]))  # type: ignore[index]
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
