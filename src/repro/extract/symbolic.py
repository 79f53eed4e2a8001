"""Language-based policy extraction via symbolic execution (§3.2.1).

The executor walks every path of a DSL handler (branching on result
emptiness, the only data-dependent control flow in the DSL), collecting
each issued query together with its *path condition*: which prior queries
were assumed non-empty, and which parameter comparisons held.

Compilation of a guarded query into a view follows Example 3.1:

* the query's CQ is instantiated with symbolic terms — handler parameters
  become shared variables, session attributes become policy params
  (``user_id`` → ``?MyUId``);
* the bodies of the non-empty-assumed guard queries are conjoined (they
  share parameter variables, which is what turns "Q2 guarded by Q1" into
  the join view V2);
* handler-parameter variables are *promoted to the view head*: the
  application may invoke the handler with any parameter value, so the
  information revealed ranges over them (this is what turns
  ``SELECT 1 ... WHERE EId = ?`` into the V1 view exposing EId);
* emptiness assumptions (negative conditions) cannot be expressed in a
  conjunctive view and are dropped — the extracted policy then allows
  slightly more than the exact behavior; the report flags each view
  affected.

The extracted views are minimized, deduplicated, and pruned: a view whose
content is computable from another extracted view (equivalent rewriting)
is redundant in an allow-list policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extract.handlers import (
    Abort,
    And,
    ArgExpr,
    Assign,
    Compare,
    Cond,
    ConstArg,
    FieldRef,
    ForEach,
    Handler,
    If,
    IsEmpty,
    Not,
    ParamRef,
    Query,
    Return,
    SessionRef,
    Stmt,
)
from repro.policy.policy import Policy
from repro.policy.view import View
from repro.relalg.cq import CQ, Atom, Comp, Const, Param, Term, Var
from repro.relalg.containment import satisfiable
from repro.relalg.minimize import minimize_cq
from repro.relalg.render import cq_to_select
from repro.relalg.rewrite import ViewDef, find_equivalent_rewriting
from repro.relalg.translate import SchemaInfo, translate_select
from repro.sqlir.parser import parse_select
from repro.util.errors import DbacError, TranslationError


@dataclass
class GuardedQuery:
    """A query plus the positive path condition under which it is issued."""

    handler: str
    cq: CQ
    guards: tuple[CQ, ...]
    path_comps: tuple[Comp, ...]
    dropped_negative_guards: int


@dataclass
class ExtractionReport:
    """What the extractor did, for the E4 experiment table."""

    paths_explored: dict[str, int] = field(default_factory=dict)
    queries_collected: int = 0
    views_before_dedup: int = 0
    views_emitted: int = 0
    views_with_dropped_negative_guards: int = 0


class SymbolicExtractor:
    """Extracts a draft policy from DSL handlers."""

    def __init__(
        self,
        schema: SchemaInfo,
        session_params: dict[str, str] | None = None,
        max_paths: int = 256,
    ):
        self.schema = schema
        # Map session attribute -> policy parameter name.
        self.session_params = session_params or {"user_id": "MyUId"}
        self.max_paths = max_paths

    # -- public API ---------------------------------------------------------

    def extract(self, handlers: list[Handler]) -> tuple[Policy, ExtractionReport]:
        report = ExtractionReport()
        guarded: list[GuardedQuery] = []
        for handler in handlers:
            collected, paths = self._execute(handler)
            guarded.extend(collected)
            report.paths_explored[handler.name] = paths
        report.queries_collected = len(guarded)
        views = [self._compile(g) for g in guarded]
        views = [v for v in views if v is not None]
        report.views_before_dedup = len(views)
        report.views_with_dropped_negative_guards = sum(
            1 for g in guarded if g.dropped_negative_guards
        )
        policy = self._assemble(views)
        report.views_emitted = len(policy)
        return policy, report

    # -- symbolic execution ---------------------------------------------------

    def _execute(self, handler: Handler) -> tuple[list[GuardedQuery], int]:
        collected: list[GuardedQuery] = []
        paths_finished = 0
        param_vars = {
            name: Var(f"${handler.name}.{name}") for name in handler.params
        }

        def arg_term(arg: ArgExpr, results: dict[str, CQ]) -> Term:
            if isinstance(arg, ParamRef):
                if arg.name not in param_vars:
                    raise DbacError(
                        f"handler {handler.name!r} has no parameter {arg.name!r}"
                    )
                return param_vars[arg.name]
            if isinstance(arg, SessionRef):
                mapped = self.session_params.get(arg.name)
                if mapped is not None:
                    return Param(mapped)
                return Var(f"$session.{arg.name}")
            if isinstance(arg, ConstArg):
                return Const(arg.value)  # type: ignore[arg-type]
            if isinstance(arg, FieldRef):
                if arg.var not in results:
                    raise DbacError(f"no symbolic row bound to {arg.var!r}")
                source = results[arg.var]
                for position, name in enumerate(source.head_names):
                    if name == arg.column:
                        term = source.head[position]
                        return term
                raise DbacError(
                    f"result {arg.var!r} has no column {arg.column!r}"
                )
            raise AssertionError(arg)

        def instantiate_query(query: Query, results: dict[str, CQ]) -> list[CQ]:
            stmt = parse_select(query.sql)
            try:
                ucq = translate_select(stmt, self.schema)
            except TranslationError as exc:
                raise DbacError(
                    f"handler {handler.name!r} issues an untranslatable query:"
                    f" {exc}"
                ) from exc
            terms = {
                f"${position}": arg_term(arg, results)
                for position, arg in enumerate(query.args)
            }
            out = []
            taken = {v.name for v in param_vars.values()}
            for source in results.values():
                taken |= {v.name for v in source.variables()}
            for disjunct in ucq.disjuncts:
                renamed = disjunct.rename_apart(set(taken))
                out.append(_substitute_params(renamed, terms))
            return out

        def walk(
            stmts: tuple[Stmt, ...],
            position: int,
            results: dict[str, CQ],
            guards: tuple[CQ, ...],
            comps: tuple[Comp, ...],
            negatives: int,
            continuation: list[tuple[tuple[Stmt, ...], int]],
        ) -> None:
            nonlocal paths_finished
            if paths_finished >= self.max_paths:
                return
            if position == len(stmts):
                if continuation:
                    rest, rest_pos = continuation[-1]
                    walk(
                        rest,
                        rest_pos,
                        results,
                        guards,
                        comps,
                        negatives,
                        continuation[:-1],
                    )
                else:
                    paths_finished += 1
                return
            stmt = stmts[position]
            if isinstance(stmt, Assign):
                for cq in instantiate_query(stmt.query, results):
                    if not satisfiable(CQ((), cq.body, comps + cq.comps)):
                        continue
                    collected.append(
                        GuardedQuery(handler.name, cq, guards, comps, negatives)
                    )
                    new_results = dict(results)
                    new_results[stmt.var] = cq
                    walk(
                        stmts,
                        position + 1,
                        new_results,
                        guards,
                        comps,
                        negatives,
                        continuation,
                    )
                return
            if isinstance(stmt, If):
                def resolve(arg: ArgExpr) -> Term:
                    return arg_term(arg, results)

                for branch_cond, branch in (
                    (stmt.cond, stmt.then),
                    (Not(stmt.cond), stmt.orelse),
                ):
                    new_guards, new_comps, new_negatives = guards, comps, negatives
                    feasible = True
                    for outcome in _condition_outcomes(branch_cond, resolve):
                        if isinstance(outcome, _AssumeNonEmpty):
                            source = results.get(outcome.var)
                            if source is None:
                                feasible = False
                                break
                            new_guards = new_guards + (source,)
                        elif isinstance(outcome, _AssumeEmpty):
                            new_negatives += 1
                        elif isinstance(outcome, Comp):
                            new_comps = new_comps + (outcome,)
                        elif outcome is _INFEASIBLE:
                            feasible = False
                            break
                    if not feasible:
                        continue
                    walk(
                        branch,
                        0,
                        results,
                        new_guards,
                        new_comps,
                        new_negatives,
                        continuation + [(stmts, position + 1)],
                    )
                return
            if isinstance(stmt, ForEach):
                source = results.get(stmt.over)
                if source is None:
                    raise DbacError(f"no result bound to {stmt.over!r}")
                # A generic iteration: the source is non-empty and the row
                # variable exposes its head columns.
                new_results = dict(results)
                new_results[stmt.row_var] = source
                walk(
                    stmt.body,
                    0,
                    new_results,
                    guards + (source,),
                    comps,
                    negatives,
                    continuation + [(stmts, position + 1)],
                )
                # Plus the path where the loop body never runs.
                walk(
                    stmts,
                    position + 1,
                    results,
                    guards,
                    comps,
                    negatives,
                    continuation,
                )
                return
            if isinstance(stmt, Return):
                if stmt.query is not None:
                    for cq in instantiate_query(stmt.query, results):
                        if not satisfiable(CQ((), cq.body, comps + cq.comps)):
                            continue
                        collected.append(
                            GuardedQuery(handler.name, cq, guards, comps, negatives)
                        )
                paths_finished += 1
                return
            if isinstance(stmt, Abort):
                paths_finished += 1
                return
            raise AssertionError(stmt)

        walk(handler.body, 0, {}, (), (), 0, [])
        return collected, paths_finished

    # -- view compilation --------------------------------------------------------

    def _compile(self, guarded: GuardedQuery) -> View | None:
        query = guarded.cq
        body: list[Atom] = list(query.body)
        comps: list[Comp] = list(query.comps) + list(guarded.path_comps)
        for guard in guarded.guards:
            body.extend(guard.body)
            comps.extend(guard.comps)

        body_vars = {v for atom in body for v in atom.variables()}
        # Parameter variables never occur as atom arguments (the translator
        # keeps them in equality comparisons), so resolve each variable
        # outside the body onto an equal body variable / constant / policy
        # param before anything else — this is what preserves the join
        # between a guard's atoms and the guarded query's atoms.
        from repro.relalg.constraints import ConstraintSet

        closure = ConstraintSet(comps)
        # Prefer resolving onto the guarded query's own variables: guard
        # atoms may later minimize away, and a head variable must survive.
        query_vars = {v for atom in query.body for v in atom.variables()}
        candidates: list[Term] = sorted(
            body_vars, key=lambda v: (v not in query_vars, v.name)
        )

        def resolve(term: Term) -> Term | None:
            if not isinstance(term, Var) or term in body_vars:
                return term
            pinned = closure.canon(term)
            if isinstance(pinned, Const | Param):
                return pinned
            for candidate in candidates:
                if closure.equal(term, candidate):
                    return candidate
            return None

        resolved_comps: list[Comp] = []
        for comp in comps:
            left = resolve(comp.left)
            right = resolve(comp.right)
            if left is None or right is None:
                # A constraint over parameters this query never touches does
                # not constrain the data it reveals; dropping it widens the
                # view, the safe direction for a policy that must allow the
                # observed behavior.
                continue
            if left == right and comp.op in ("=", "<="):
                continue
            resolved_comps.append(Comp(comp.op, left, right))
        comps = resolved_comps

        # Promote handler-parameter variables into the head: the view must
        # range over every value the application could be invoked with.
        head: list[Term] = []
        head_names: list[str] = []
        for position, term in enumerate(query.head):
            if isinstance(term, Const):
                continue  # constant output columns carry no information
            if isinstance(term, Var) and term not in body_vars:
                resolved = resolve(term)
                if not isinstance(resolved, Var):
                    continue
                term = resolved
            if term in head:
                continue
            head.append(term)
            name = (
                query.head_names[position]
                if position < len(query.head_names)
                else f"col{position}"
            )
            head_names.append(name)
        param_vars = {
            v
            for comp in guarded.cq.comps
            for v in comp.variables()
            if v.name.startswith("$")
        } | {v for v in guarded.cq.variables() if v.name.startswith("$")}
        for var in sorted(param_vars, key=lambda v: v.name):
            resolved = resolve(var) if var not in body_vars else var
            if isinstance(resolved, Var) and resolved not in head:
                head.append(resolved)
                head_names.append(var.name.rsplit(".", 1)[-1])
        if not head:
            # Pure existence view; expose a constant marker.
            head = [Const(1)]
            head_names = ["present"]

        cq = CQ(
            head=tuple(head),
            body=tuple(body),
            comps=tuple(comps),
            head_names=tuple(head_names),
        )
        if not satisfiable(cq):
            return None
        cq = minimize_cq(cq)
        try:
            select = cq_to_select(cq, self.schema)
        except DbacError:
            return None
        description = f"extracted from {guarded.handler}"
        if guarded.dropped_negative_guards:
            description += " (negative guard dropped)"
        return View(f"X_{guarded.handler}", select, self.schema, description)

    def _assemble(self, views: list[View]) -> Policy:
        """Drop redundant views and name the survivors V1, V2, ..."""
        kept: list[View] = []
        for view in views:
            pinned = _pin(view)
            redundant = False
            for existing in kept:
                if find_equivalent_rewriting(pinned, [ViewDef("W", _pin(existing))]):
                    redundant = True
                    break
            if redundant:
                continue
            # A previously kept view may now be redundant w.r.t. this one.
            survivors = []
            for existing in kept:
                if find_equivalent_rewriting(
                    _pin(existing), [ViewDef("W", pinned)]
                ):
                    continue
                survivors.append(existing)
            kept = survivors + [view]
        policy = Policy(name="extracted")
        for index, view in enumerate(kept, start=1):
            renamed = View(
                f"V{index}", view.ast, self.schema, view.description
            )
            policy.add(renamed)
        return policy


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _pin(view: View) -> CQ:
    """The view's CQ with params pinned to sentinels, for comparisons."""
    bindings = {name: f"\x00param:{name}" for name in view.param_names}
    return view.cq.instantiate(bindings)


def _substitute_params(cq: CQ, terms: dict[str, Term]) -> CQ:
    """Replace positional params (``$k``) with symbolic terms."""

    def conv(term: Term) -> Term:
        if isinstance(term, Param) and term.name in terms:
            return terms[term.name]
        return term

    return CQ(
        head=tuple(conv(t) for t in cq.head),
        body=tuple(Atom(a.rel, tuple(conv(x) for x in a.args)) for a in cq.body),
        comps=tuple(Comp(c.op, conv(c.left), conv(c.right)) for c in cq.comps),
        head_names=cq.head_names,
        name=cq.name,
    )


class _AssumeNonEmpty:
    def __init__(self, var: str):
        self.var = var


class _AssumeEmpty:
    def __init__(self, var: str):
        self.var = var


_INFEASIBLE = object()


def _condition_outcomes(cond: Cond, resolve):
    """Flatten a condition into assumption outcomes for one branch.

    ``resolve`` maps an :class:`~repro.extract.handlers.ArgExpr` to its
    symbolic term. Returns a list whose elements are
    :class:`_AssumeNonEmpty`, :class:`_AssumeEmpty`,
    :class:`~repro.relalg.cq.Comp`, or the ``_INFEASIBLE`` marker. Only
    conjunctive conditions are supported — the DSL has no Or, and
    ``Not(And(...))`` is rejected to keep path conditions conjunctive.
    """
    if isinstance(cond, IsEmpty):
        return [_AssumeEmpty(cond.var)]
    if isinstance(cond, Not):
        inner = cond.operand
        if isinstance(inner, IsEmpty):
            return [_AssumeNonEmpty(inner.var)]
        if isinstance(inner, Not):
            return _condition_outcomes(inner.operand, resolve)
        if isinstance(inner, Compare):
            negated = Compare(_negate_op(inner.op), inner.left, inner.right)
            return _condition_outcomes(negated, resolve)
        raise DbacError("negated conjunctions are not supported in the DSL")
    if isinstance(cond, Compare):
        return [Comp.normalized(cond.op, resolve(cond.left), resolve(cond.right))]
    if isinstance(cond, And):
        outcomes = []
        for operand in cond.operands:
            outcomes.extend(_condition_outcomes(operand, resolve))
        return outcomes
    raise AssertionError(cond)


def _negate_op(op: str) -> str:
    return {"=": "!=", "!=": "=", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]
