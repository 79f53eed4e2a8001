"""Prepared statements: pay the per-shape analysis once, not per request.

The enforcement hot path repeats three pieces of pure shape work on
every request: parsing the SQL text, :func:`~repro.sqlir.skeleton.skeletonize`
over the bound statement, and laying out the equality partition the
decision cache keys on. For an application that issues the same
statement shapes forever (the Blockaid setting), all three are a
per-*shape* cost being paid per *request*.

:func:`prepare_plan` hoists them: it probes the parsed statement once
with sentinel parameter values, skeletonizes the probe, and records for
every skeleton slot where its value comes from at execution time —
a statement constant, a positional argument, or a named argument. From
then on :meth:`PreparedPlan.skeleton_for` rebuilds the exact
:class:`~repro.sqlir.skeleton.Skeleton` the classic path would compute,
with a handful of list appends instead of an AST traversal.

Plans are per SQL text, not per caller: ``Database.prepare`` keeps them
in one bounded table that ``sql()``, ``query()`` and a wire PREPARE all
resolve through, so "prepared" is how every repeated statement runs, not
an opt-in. A plan also carries a memo of the remaining per-shape work on
the hit path, the fact-extraction plans of
:func:`repro.enforce.trace.certification_plan`.

Why sentinel probing is sound: the probe values are strings containing a
NUL byte under a reserved prefix, which no SQL literal can contain (the
lexer rejects raw NUL) and no application binding plausibly equals — so
a sentinel found in a slot identifies the parameter that produced it,
and a sentinel surviving *inline* in the probe skeleton proves a
parameter landed somewhere ``skeletonize`` does not hollow (e.g. inside
an ``EXISTS`` subquery, which skeletonization deliberately leaves
intact). Such plans are marked non-static and always fall back to the
classic skeletonize-per-request path; the decisions stay identical, only
the shortcut is disabled.

Two per-execution escape hatches keep the fast path exact:

* a ``bool``/``None`` argument value would *change the skeleton shape*
  (skeletonize leaves those inline as structural literals), so
  :meth:`PreparedPlan.skeleton_for` returns ``None`` and the caller
  falls back to classic skeletonization for that execution;
* missing bindings return ``None`` too — :func:`bind_parameters` then
  raises the usual descriptive error on the classic path.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.sqlir import ast
from repro.sqlir.params import bind_parameters, collect_parameters
from repro.sqlir.skeleton import Skeleton, skeletonize

#: Reserved probe-value prefix; the NUL byte never survives the SQL
#: lexer, so no statement constant can collide with a sentinel.
_SENTINEL = "\x00repro-prepared\x00"

# A slot source: ("const", value) | ("arg", index) | ("named", name).
_SlotSource = tuple[str, object]


def _arg_sentinel(index: int) -> str:
    return f"{_SENTINEL}a{index}"


def _named_sentinel(name: str) -> str:
    return f"{_SENTINEL}n{name}"


@dataclass(frozen=True)
class PreparedPlan:
    """One statement's hoisted shape work (parse + skeleton + layout).

    Session-free: a plan may be shared by any number of sessions and
    threads (``Database.prepare`` hands every caller of one SQL text the
    same plan; a wire PREPARE handle holds on to it). The plan never
    caches *decisions* — those stay in the epoch-scoped decision caches,
    so policy reloads invalidate decisions without touching plans. Its
    one mutable part, ``certifications``, is a memo of further pure shape
    work, filled by whoever executes the plan.
    """

    statement: ast.Statement  #: the parsed, unbound statement
    sql: str  #: the original SQL text (for re-prepare and diagnostics)
    is_select: bool
    #: True when the skeleton *shape* is independent of the argument
    #: values — every parameter lands in a hollowed slot. Non-static
    #: plans (a parameter inside EXISTS) always use the classic path.
    static: bool
    skeleton_statement: ast.Statement | None
    generalizable: tuple[bool, ...]
    slot_sources: tuple[_SlotSource, ...]
    positional: tuple[int, ...]  #: positional parameter indexes present
    named_params: tuple[str, ...]  #: named parameter names present
    #: Per-shape fact-extraction plans, memoized by
    #: :func:`repro.enforce.trace.certification_plan` (which bounds it).
    certifications: dict = field(default_factory=dict, compare=False, repr=False)

    def bind(
        self,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> ast.Statement:
        """Ground the statement for execution (the engine needs the AST)."""
        return bind_parameters(self.statement, args, named)

    def skeleton_for(
        self,
        args: Sequence[object] = (),
        named: Mapping[str, object] | None = None,
    ) -> Skeleton | None:
        """The skeleton this execution's bound statement would produce.

        Returns ``None`` when the fast path cannot serve this execution
        (non-static plan, a bool/None argument, or a missing binding);
        the caller must then skeletonize the bound statement classically.
        Otherwise the result is byte-identical to
        ``skeletonize(self.bind(args, named))``.
        """
        if not self.static or self.skeleton_statement is None:
            return None
        values: list[object] = []
        for kind, ref in self.slot_sources:
            if kind == "const":
                values.append(ref)
                continue
            if kind == "arg":
                index = ref
                if not isinstance(index, int) or index >= len(args):
                    return None
                value = args[index]
            else:  # "named"
                if named is None or ref not in named:
                    return None
                value = named[ref]  # type: ignore[index]
            if value is None or isinstance(value, bool):
                # Structural literal: skeletonize would leave it inline,
                # changing the skeleton shape — classic path required.
                return None
            values.append(value)
        return Skeleton(
            statement=self.skeleton_statement,
            values=tuple(values),
            generalizable=self.generalizable,
        )


def prepare_plan(stmt: ast.Statement, sql: str) -> PreparedPlan:
    """Build a :class:`PreparedPlan` for an already-parsed statement.

    Non-SELECT statements get a parse-skip-only plan (writes are not
    decided, so they need no skeleton).
    """
    positional, named_params = collect_parameters(stmt)
    if not isinstance(stmt, ast.Select):
        return PreparedPlan(
            statement=stmt,
            sql=sql,
            is_select=False,
            static=False,
            skeleton_statement=None,
            generalizable=(),
            slot_sources=(),
            positional=tuple(positional),
            named_params=tuple(named_params),
        )
    probe_args = [_arg_sentinel(i) for i in range(max(positional, default=-1) + 1)]
    probe_named = {name: _named_sentinel(name) for name in named_params}
    probe = bind_parameters(stmt, probe_args, probe_named)
    skeleton = skeletonize(probe)
    by_sentinel: dict[str, _SlotSource] = {
        sentinel: ("arg", index) for index, sentinel in enumerate(probe_args)
    }
    for name in named_params:
        by_sentinel[_named_sentinel(name)] = ("named", name)
    sources: list[_SlotSource] = []
    for value in skeleton.values:
        if isinstance(value, str) and value.startswith(_SENTINEL):
            sources.append(by_sentinel[value])
        else:
            sources.append(("const", value))
    return PreparedPlan(
        statement=stmt,
        sql=sql,
        is_select=True,
        static=not _contains_sentinel(skeleton.statement),
        skeleton_statement=skeleton.statement,
        generalizable=skeleton.generalizable,
        slot_sources=tuple(sources),
        positional=tuple(positional),
        named_params=tuple(named_params),
    )


def _contains_sentinel(stmt: ast.Statement) -> bool:
    """A probe sentinel left *inline* in the skeleton means a parameter
    landed where skeletonize does not hollow; the shape then depends on
    the argument values and the plan must not claim a static skeleton."""
    for expr in ast.statement_expressions(stmt):
        for node in ast.walk_expr(expr):
            if (
                isinstance(node, ast.Literal)
                and isinstance(node.value, str)
                and node.value.startswith(_SENTINEL)
            ):
                return True
    return False
