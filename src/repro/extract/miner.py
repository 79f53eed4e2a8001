"""Language-agnostic policy extraction: specification mining (§3.2.2).

The miner treats the application as a black box: it runs a stream of
requests against an instrumented connection, records each query with its
arguments and result, and generalizes the observations into views.

Generalization, per query template (queries identical up to constants):

* a constant slot that always equals the session user becomes the policy
  parameter ``?MyUId``;
* a slot that takes multiple values across observations becomes a free
  variable (promoted to the view head — the application evidently ranges
  over it);
* a slot constant across all observations stays a constant — *unless* an
  **opacity hint** says the column holds opaque identifiers, or **active
  constraint discovery** (:mod:`repro.extract.active`) shows the constant
  is data-derived rather than baked into the code;
* a preceding same-request query that returned rows becomes a *guard*
  when the correspondence between its output/arguments and the query's
  arguments is consistent across every observation — this is what turns
  the ``Q1; Q2`` trace of Example 2.1 into the join view V2;
* if the resulting policy exceeds the **size budget**, the
  most-discriminating constant slots are generalized first until the
  policy fits — the paper's "insist that the generated policy be small"
  control against non-generalizing per-user views.

All three §3.2.2 controls are independent toggles in :class:`MinerConfig`
so experiment E6 can ablate each.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.executor import Result
from repro.policy.policy import Policy
from repro.policy.view import View
from repro.relalg.cq import CQ, Atom, Comp, Const, Param, Term, Var
from repro.relalg.containment import satisfiable
from repro.relalg.minimize import minimize_cq
from repro.relalg.render import cq_to_select
from repro.relalg.rewrite import ViewDef, find_equivalent_rewriting
from repro.relalg.translate import translate_select
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters
from repro.sqlir.skeleton import Skeleton, skeletonize
from repro.util.errors import DbacError, EngineError, TranslationError
from repro.extract.handlers import run_handler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.runner import Request, WorkloadApp


@dataclass
class MinerConfig:
    """Tuning knobs for the miner; the E6 ablation flips these."""

    #: (table, column) pairs holding opaque identifiers; constants compared
    #: against them are always generalized (§3.2.2, second control).
    opaque_columns: frozenset[tuple[str, str]] = frozenset()
    #: Maximum number of views; beyond it, constant slots are generalized
    #: most-varying-first (§3.2.2, first control). None disables.
    size_budget: int | None = 24
    #: Re-run requests against mutated databases to classify constants and
    #: vet guards (§3.2.2, third control).
    active_discovery: bool = True
    #: Session attribute -> policy parameter name.
    session_params: dict[str, str] = field(
        default_factory=lambda: {"user_id": "MyUId"}
    )


@dataclass
class QueryEvent:
    """One observed query inside a request."""

    index: int
    sql_skeleton: Skeleton
    values: tuple[object, ...]
    result: Result
    statement: ast.Statement


@dataclass
class RequestTrace:
    """All queries observed while serving one request."""

    request: "Request"
    events: list[QueryEvent] = field(default_factory=list)


class RecordingConnection:
    """A Database wrapper that logs every SELECT it serves."""

    def __init__(self, db: Database):
        self.db = db
        self.events: list[QueryEvent] = []

    def sql(self, sql, args=(), named=None):
        stmt = self.db.parse(sql)
        if not isinstance(stmt, ast.Select):
            return self.db.sql(stmt, args, named)
        bound = bind_parameters(stmt, args, named)
        result = self.db.sql(bound)
        assert isinstance(result, Result)
        skeleton = skeletonize(bound)
        self.events.append(
            QueryEvent(
                index=len(self.events),
                sql_skeleton=skeleton,
                values=skeleton.values,
                result=result,
                statement=bound,
            )
        )
        return result

    def query(self, sql, args=(), named=None) -> Result:
        """Like :meth:`sql` but refuses anything except a SELECT — before
        executing it, so a rejected write leaves the data untouched."""
        stmt = self.db.parse(sql)
        if not isinstance(stmt, ast.Select):
            raise EngineError("query() requires a SELECT statement")
        result = self.sql(stmt, args, named)
        assert isinstance(result, Result)
        return result


@dataclass
class MiningReport:
    """What the miner observed and decided (for E5/E6 tables)."""

    traces: int = 0
    events: int = 0
    templates: int = 0
    guarded_templates: int = 0
    generalized_by_hint: int = 0
    generalized_by_activity: int = 0
    generalized_by_budget: int = 0
    views_emitted: int = 0


# Slot decision markers.
_SLOT_PARAM = "param"
_SLOT_VAR = "var"
_SLOT_CONST = "const"
_SLOT_GUARD = "guard"  # tied to a guard output column


@dataclass
class _GuardLink:
    """Template-level guard: a preceding template with slot correspondences.

    ``slot_map`` maps this template's slot index to either
    ``("slot", guard_slot_index)`` or ``("column", output_column_name)``
    of the guard template.
    """

    guard_key: object
    slot_map: dict[int, tuple[str, object]]


class TraceMiner:
    """The black-box extraction pipeline."""

    def __init__(self, app: "WorkloadApp", db: Database, config: MinerConfig | None = None):
        self.app = app
        self.db = db
        self.config = config or MinerConfig()
        self.report = MiningReport()

    # -- trace collection ---------------------------------------------------------

    def collect(self, requests: Sequence["Request"]) -> list[RequestTrace]:
        """Run requests against a recording connection, keeping their traces."""
        traces = []
        for request in requests:
            recorder = RecordingConnection(self.db)
            handler = self.app.handlers[request.handler]
            run_handler(handler, recorder, request.params, request.session)
            traces.append(RequestTrace(request=request, events=recorder.events))
        self.report.traces += len(traces)
        self.report.events += sum(len(t.events) for t in traces)
        return traces

    # -- mining -------------------------------------------------------------------

    def mine(self, requests: Sequence["Request"]) -> Policy:
        traces = self.collect(requests)
        return self.mine_traces(traces)

    def mine_traces(self, traces: Sequence[RequestTrace]) -> Policy:
        groups = self._group_by_template(traces)
        self.report.templates = len(groups)
        decisions = {
            key: self._decide_slots(key, observations, traces)
            for key, observations in groups.items()
        }
        guards = {
            key: self._find_guard(key, observations, traces, decisions)
            for key, observations in groups.items()
        }
        self.report.guarded_templates = sum(1 for g in guards.values() if g)

        def build() -> Policy:
            views = []
            for key, observations in groups.items():
                view = self._compile_view(
                    key, observations, decisions[key], guards.get(key), decisions
                )
                if view is not None:
                    views.append(view)
            return self._assemble(views)

        policy = build()
        # Size budget (§3.2.2, first control): while the policy is too big,
        # generalize the constant slots of the rarest templates — widening
        # them until assembly-time dedup can merge them into broader views.
        budget = self.config.size_budget
        while budget is not None and len(policy) > budget:
            candidates = [
                key
                for key, slot_decisions in decisions.items()
                if any(kind == _SLOT_CONST for kind, _ in slot_decisions)
            ]
            if not candidates:
                break
            key = min(candidates, key=lambda k: len(groups[k]))
            decisions[key] = [
                (_SLOT_VAR, None) if kind == _SLOT_CONST else (kind, payload)
                for kind, payload in decisions[key]
            ]
            self.report.generalized_by_budget += 1
            policy = build()
        self.report.views_emitted = len(policy)
        return policy

    # -- template grouping -----------------------------------------------------------

    def _group_by_template(
        self, traces: Sequence[RequestTrace]
    ) -> dict[object, list[tuple[RequestTrace, QueryEvent]]]:
        """Group observations by (template, guard context).

        The guard context — the set of templates that preceded the query
        *non-empty* within its request — distinguishes the same SQL shape
        issued from differently-guarded code paths. Without it, a detail
        query reached both through an access check and through a listing
        would lose its guard entirely and over-generalize (precisely the
        §3.2.2 failure mode).
        """
        groups: dict[object, list[tuple[RequestTrace, QueryEvent]]] = {}
        for trace in traces:
            for event in trace.events:
                context = frozenset(
                    prior.sql_skeleton.statement
                    for prior in trace.events
                    if prior.index < event.index and not prior.result.is_empty()
                )
                key = (event.sql_skeleton.statement, context)
                groups.setdefault(key, []).append((trace, event))
        return groups

    # -- slot decisions ----------------------------------------------------------------

    def _decide_slots(
        self,
        key: object,
        observations: list[tuple[RequestTrace, QueryEvent]],
        traces: Sequence[RequestTrace],
    ) -> list[tuple[str, object]]:
        """One decision per slot: (kind, payload)."""
        skeleton = observations[0][1].sql_skeleton
        slot_columns = _slot_columns(skeleton.statement, self.db.schema)
        decisions: list[tuple[str, object]] = []
        for slot in range(skeleton.slot_count):
            values = [event.values[slot] for _, event in observations]
            # Session parameter?
            param = self._session_param_for(slot, observations)
            if param is not None:
                decisions.append((_SLOT_PARAM, param))
                continue
            if len(set(values)) > 1:
                decisions.append((_SLOT_VAR, None))
                continue
            # Constant across all observations.
            column = slot_columns.get(slot)
            if (
                column is not None
                and column in self.config.opaque_columns
            ):
                self.report.generalized_by_hint += 1
                decisions.append((_SLOT_VAR, None))
                continue
            if self.config.active_discovery and self._constant_is_data_derived(
                slot, observations
            ):
                self.report.generalized_by_activity += 1
                decisions.append((_SLOT_VAR, None))
                continue
            decisions.append((_SLOT_CONST, values[0]))
        return decisions

    def _session_param_for(
        self, slot: int, observations: list[tuple[RequestTrace, QueryEvent]]
    ) -> str | None:
        for attr, param in self.config.session_params.items():
            if all(
                attr in trace.request.session
                and event.values[slot] == trace.request.session[attr]
                for trace, event in observations
            ):
                # Require at least two distinct user values, or a single
                # observation, to avoid mistaking a constant for the user.
                distinct = {
                    trace.request.session.get(attr) for trace, _ in observations
                }
                if len(distinct) > 1 or len(observations) == 1:
                    return param
                # One user only: ambiguous; prefer the param (generalizing
                # across users is the common case for user-id slots).
                return param
        return None

    def _constant_is_data_derived(
        self, slot: int, observations: list[tuple[RequestTrace, QueryEvent]]
    ) -> bool:
        """Active probe: does the constant come from data, not code?

        If the constant equals a value in a preceding query's result and
        re-running the request with that cell mutated makes the query show
        up with the mutated value, the constant is data-derived and must
        be generalized. Delegated to
        :class:`~repro.extract.active.ActiveConstraintDiscovery`.
        """
        from repro.extract.active import ActiveConstraintDiscovery

        discovery = ActiveConstraintDiscovery(self.app, self.db)
        trace, event = observations[0]
        return discovery.constant_is_data_derived(trace, event, slot)

    # -- guard detection -----------------------------------------------------------------

    def _find_guard(
        self,
        key: object,
        observations: list[tuple[RequestTrace, QueryEvent]],
        traces: Sequence[RequestTrace],
        decisions: dict[object, list[tuple[str, object]]],
    ) -> _GuardLink | None:
        """A guard template must precede *every* observation, non-empty,
        with a consistent value correspondence."""
        candidate_keys: set[object] | None = None
        for trace, event in observations:
            keys = {
                prior.sql_skeleton.statement
                for prior in trace.events
                if prior.index < event.index and not prior.result.is_empty()
            }
            candidate_keys = keys if candidate_keys is None else candidate_keys & keys
            if not candidate_keys:
                return None
        assert candidate_keys is not None
        for guard_key in sorted(candidate_keys, key=repr):
            link = self._correspondence(guard_key, observations)
            if link is not None:
                if self.config.active_discovery and not self._guard_is_real(
                    observations, link
                ):
                    continue
                return link
        return None

    def _correspondence(
        self, guard_key: object, observations: list[tuple[RequestTrace, QueryEvent]]
    ) -> _GuardLink | None:
        """Find slot correspondences that hold in every observation."""
        slot_map: dict[int, tuple[str, object]] = {}
        slot_count = observations[0][1].sql_skeleton.slot_count
        for slot in range(slot_count):
            # Candidate correspondences from the first observation, then
            # verified against the rest.
            trace0, event0 = observations[0]
            guard0 = _last_guard_event(trace0, event0, guard_key)
            if guard0 is None:
                return None
            value0 = event0.values[slot]
            candidates: list[tuple[str, object]] = []
            for guard_slot, guard_value in enumerate(guard0.values):
                if guard_value == value0:
                    candidates.append(("slot", guard_slot))
            for column_index, column in enumerate(guard0.result.columns):
                if any(row[column_index] == value0 for row in guard0.result.rows):
                    candidates.append(("column", column))
            for candidate in candidates:
                if self._correspondence_holds(slot, candidate, guard_key, observations):
                    slot_map[slot] = candidate
                    break
        if not slot_map:
            return None
        return _GuardLink(guard_key=guard_key, slot_map=slot_map)

    def _correspondence_holds(
        self,
        slot: int,
        candidate: tuple[str, object],
        guard_key: object,
        observations: list[tuple[RequestTrace, QueryEvent]],
    ) -> bool:
        kind, ref = candidate
        for trace, event in observations:
            guard = _last_guard_event(trace, event, guard_key)
            if guard is None:
                return False
            value = event.values[slot]
            if kind == "slot":
                if guard.values[ref] != value:  # type: ignore[index]
                    return False
            else:
                if ref not in guard.result.columns:
                    return False
                column_index = guard.result.columns.index(ref)
                if not any(row[column_index] == value for row in guard.result.rows):
                    return False
        return True

    def _guard_is_real(
        self,
        observations: list[tuple[RequestTrace, QueryEvent]],
        link: _GuardLink,
    ) -> bool:
        from repro.extract.active import ActiveConstraintDiscovery

        discovery = ActiveConstraintDiscovery(self.app, self.db)
        trace, event = observations[0]
        return discovery.guard_is_load_bearing(trace, event, link.guard_key)

    # -- view compilation ------------------------------------------------------------------

    def _template_cq(
        self,
        key: object,
        decisions: list[tuple[str, object]],
        prefix: str,
    ) -> CQ | None:
        """Translate a skeleton + slot decisions into a CQ."""
        statement = key[0] if isinstance(key, tuple) else key
        if not isinstance(statement, ast.Select):
            return None
        try:
            ucq = translate_select(statement, self.db.schema)
        except TranslationError:
            return None
        if len(ucq.disjuncts) != 1:
            return None
        cq = ucq.disjuncts[0].rename_apart(set())
        substitution: dict[str, Term] = {}
        for slot, (kind, payload) in enumerate(decisions):
            name = f"${slot}"
            if kind == _SLOT_PARAM:
                substitution[name] = Param(str(payload))
            elif kind == _SLOT_CONST:
                substitution[name] = Const(payload)  # type: ignore[arg-type]
            else:
                substitution[name] = Var(f"${prefix}.{slot}")
        return _substitute_named_params(cq, substitution, prefix)

    def _compile_view(
        self,
        key: object,
        observations: list[tuple[RequestTrace, QueryEvent]],
        decisions: list[tuple[str, object]],
        guard: _GuardLink | None,
        all_decisions: dict[object, list[tuple[str, object]]],
    ) -> View | None:
        cq = self._template_cq(key, decisions, "q")
        if cq is None:
            return None
        body = list(cq.body)
        comps = list(cq.comps)
        if guard is not None:
            guard_decisions = _decisions_for_statement(all_decisions, guard.guard_key)
            if guard_decisions is not None:
                guard_cq = self._template_cq(guard.guard_key, guard_decisions, "g")
                if guard_cq is not None:
                    body.extend(guard_cq.body)
                    comps.extend(guard_cq.comps)
                    for slot, (kind, ref) in guard.slot_map.items():
                        this_term = _slot_term(decisions, slot, "q")
                        if kind == "slot":
                            other = _slot_term(guard_decisions, ref, "g")
                        else:
                            other = _column_term(guard_cq, str(ref))
                        if this_term is not None and other is not None:
                            comps.append(Comp("=", this_term, other))
        merged = CQ(
            head=cq.head,
            body=tuple(body),
            comps=tuple(comps),
            head_names=cq.head_names,
        )
        compiled = _finalize_view_cq(merged)
        if compiled is None or not satisfiable(compiled):
            return None
        compiled = minimize_cq(compiled)
        try:
            select = cq_to_select(compiled, self.db.schema)
        except DbacError:
            return None
        handler = observations[0][0].request.handler
        return View(f"M_{handler}", select, self.db.schema, f"mined from {handler}")

    def _assemble(self, views: list[View]) -> Policy:
        kept: list[View] = []
        for view in views:
            pinned = _pin_cq(view)
            if pinned is None:
                continue
            if any(
                find_equivalent_rewriting(pinned, [ViewDef("W", other_pinned)])
                for other, other_pinned in (
                    (existing, _pin_cq(existing)) for existing in kept
                )
                if other_pinned is not None
            ):
                continue
            survivors = []
            for existing in kept:
                existing_pinned = _pin_cq(existing)
                if existing_pinned is not None and find_equivalent_rewriting(
                    existing_pinned, [ViewDef("W", pinned)]
                ):
                    continue
                survivors.append(existing)
            kept = survivors + [view]
        policy = Policy(name="mined")
        for index, view in enumerate(kept, start=1):
            policy.add(View(f"V{index}", view.ast, self.db.schema, view.description))
        return policy


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _last_guard_event(
    trace: RequestTrace, event: QueryEvent, guard_key: object
) -> QueryEvent | None:
    best = None
    for prior in trace.events:
        if prior.index >= event.index:
            break
        if prior.sql_skeleton.statement == guard_key and not prior.result.is_empty():
            best = prior
    return best


def _slot_columns(statement: ast.Statement, schema=None) -> dict[int, tuple[str, str]]:
    """Map slot index -> (table, column) when the slot is compared to a column.

    Unqualified column names are resolved against ``schema`` when given,
    else attributed to the first FROM table.
    """
    if not isinstance(statement, ast.Select):
        return {}
    aliases = {ref.alias: ref.name for ref in statement.tables()}
    first_table = statement.sources[0].name if statement.sources else None
    out: dict[int, tuple[str, str]] = {}

    def owner_of(column: ast.Column) -> str | None:
        if column.table is not None:
            return aliases.get(column.table)
        if schema is not None:
            for name in aliases.values():
                try:
                    if column.name in schema.columns_of(name):
                        return name
                except KeyError:
                    continue
            return None
        return first_table

    def visit(expr: ast.Expr) -> None:
        if not isinstance(expr, ast.Comparison):
            return
        sides = [(expr.left, expr.right), (expr.right, expr.left)]
        for column_side, other in sides:
            if isinstance(column_side, ast.Column) and isinstance(other, ast.Param):
                table = owner_of(column_side)
                if table is not None and other.index is not None:
                    out[other.index] = (table, column_side.name)

    for expr in ast.statement_expressions(statement):
        for node in ast.walk_expr(expr):
            visit(node)
    return out


def _substitute_named_params(cq: CQ, mapping: dict[str, Term], prefix: str) -> CQ:
    def conv(term: Term) -> Term:
        if isinstance(term, Param) and term.name in mapping:
            return mapping[term.name]
        return term

    return CQ(
        head=tuple(conv(t) for t in cq.head),
        body=tuple(Atom(a.rel, tuple(conv(x) for x in a.args)) for a in cq.body),
        comps=tuple(Comp(c.op, conv(c.left), conv(c.right)) for c in cq.comps),
        head_names=cq.head_names,
        name=cq.name,
    )


def _decisions_for_statement(
    all_decisions: dict[object, list[tuple[str, object]]], statement: object
) -> list[tuple[str, object]] | None:
    """Find slot decisions for a guard's statement across grouped keys.

    Group keys are (statement, context) tuples; a guard references just
    the statement. Prefer the group with the smallest context (the least
    guarded occurrence of the guard template itself).
    """
    matches = [
        (key, decisions)
        for key, decisions in all_decisions.items()
        if (key[0] if isinstance(key, tuple) else key) == statement
    ]
    if not matches:
        return None
    matches.sort(key=lambda item: len(item[0][1]) if isinstance(item[0], tuple) else 0)
    return matches[0][1]


def _slot_term(decisions: list[tuple[str, object]], slot: int, prefix: str) -> Term | None:
    kind, payload = decisions[slot]
    if kind == _SLOT_PARAM:
        return Param(str(payload))
    if kind == _SLOT_CONST:
        return Const(payload)  # type: ignore[arg-type]
    return Var(f"${prefix}.{slot}")


def _column_term(guard_cq: CQ, column: str) -> Term | None:
    for position, name in enumerate(guard_cq.head_names):
        if name == column:
            return guard_cq.head[position]
    return None


def _finalize_view_cq(cq: CQ) -> CQ | None:
    """Resolve out-of-body terms and promote free slots to the head.

    The same canonicalization the symbolic extractor performs: slot
    variables live in comparisons, so each is rewritten onto a body
    variable (preserving guard joins) and promoted into the head.
    """
    from repro.relalg.constraints import ConstraintSet

    body_vars = {v for atom in cq.body for v in atom.variables()}
    closure = ConstraintSet(cq.comps)
    candidates = sorted(body_vars, key=lambda v: v.name)

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

    comps = []
    for comp in cq.comps:
        left = resolve(comp.left)
        right = resolve(comp.right)
        if left is None or right is None:
            continue
        if left == right and comp.op in ("=", "<="):
            continue
        comps.append(Comp(comp.op, left, right))

    slot_vars = sorted(
        {
            v
            for comp in cq.comps
            for v in comp.variables()
            if v.name.startswith("$")
        },
        key=lambda v: v.name,
    )
    head: list[Term] = []
    head_names: list[str] = []
    for position, term in enumerate(cq.head):
        if isinstance(term, Const):
            continue
        if isinstance(term, Var) and term not in body_vars:
            resolved = resolve(term)
            if not isinstance(resolved, Var):
                continue
            term = resolved
        if term in head:
            continue
        head.append(term)
        head_names.append(
            cq.head_names[position] if position < len(cq.head_names) else f"c{position}"
        )
    for var in slot_vars:
        resolved = resolve(var) if var not in body_vars else var
        if isinstance(resolved, Var) and resolved not in head:
            head.append(resolved)
            head_names.append(resolved.name.rsplit(".", 1)[-1])
    if not head:
        head = [Const(1)]
        head_names = ["present"]
    return CQ(
        head=tuple(head),
        body=cq.body,
        comps=tuple(comps),
        head_names=tuple(head_names),
    )


def _pin_cq(view: View) -> CQ | None:
    if not view.is_conjunctive:
        return None
    bindings = {name: f"\x00param:{name}" for name in view.param_names}
    return view.ucq.instantiate(bindings).disjuncts[0]
