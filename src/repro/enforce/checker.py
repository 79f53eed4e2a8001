"""The compliance checker: is this query's answer covered by the policy?

The check is the formalization of Blockaid's guarantee sketched in §2.2:
a query ``Q`` issued by user ``u`` with trace ``T`` is *compliant* when
``Q ∧ facts(T)`` has a rewriting over the policy views instantiated with
``u`` whose expansion is equivalent to ``Q ∧ facts(T)``. Then on every
database consistent with the trace, ``Q``'s answer is a function of
information the policy already reveals.

Soundness: conjoining certified trace facts preserves the query's answer
on all trace-consistent databases, and expansion equivalence means the
rewriting computes exactly that answer from view contents. Incompleteness
(the check may block a theoretically-compliant query) comes from the
homomorphism containment test and from restricting rewritings to
conjunctive combinations of views — both conservative.

Which facts a check conjoins. Only once the policy views alone have
failed, and only the facts that can help (:func:`helpful_facts`):
instances of a query subgoal, and facts completing some view's guard
pattern (:func:`~repro.relalg.rewrite.guard_patterns`). A pruned fact cannot
complete an equivalent rewriting (docs/compliance.md, "Which facts can
help a check"), so a Block whose facts are all pruned is the Block an
empty trace gets. A Block that did try facts names, in its reason, the
pattern no certified fact matched. Every check spends from one search
budget (:data:`CHECK_STEP_BUDGET`) and Blocks when it runs out.

Compilation: hand the checker a
:class:`~repro.relalg.compile.CompiledPolicy` (built once per policy
epoch) and view dispatch comes from it. Hand it a decision-template store
too (the epoch's one :class:`~repro.enforce.cache.DecisionCache`) and
each check it runs is generalized into a template there, which the
sessions' one probe replays for later statements of the same shape
(``tests/enforce/test_compiled_checker.py`` checks that the replay never
changes a decision). The checker itself never probes: :meth:`check` is
always the full search. ``allow_compiled=False`` learns nothing — the
gateway's ``verify_cached_decisions`` mode uses it so verification stays
independent of the very templates it is auditing.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.enforce.decision import BUDGET_REASON, Decision
from repro.enforce.trace import Trace
from repro.policy.policy import Policy
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, UCQ, Atom, Const, Term, Var
from repro.relalg.rewrite import (
    GuardPattern,
    Rewriting,
    SearchBudget,
    SearchBudgetExhausted,
    ViewDef,
    find_equivalent_rewriting,
    guard_patterns,
    is_wildcard,
)
from repro.relalg.translate import SchemaInfo, translate_select
from repro.sqlir import ast
from repro.sqlir.skeleton import Skeleton
from repro.util.errors import TranslationError

if TYPE_CHECKING:
    from repro.enforce.cache import DecisionCache
    from repro.relalg.compile import CompiledPolicy

#: Search steps one check may spend over all its rewriting searches — a
#: step is a coverage descriptor emitted or a candidate validated. A check
#: that runs out Blocks (fails closed) with a reason starting ``budget:``.
#: No check of the test suite, the E-benchmarks or a ``bench/`` workload
#: spends 60; one search validates at most ``max_candidates`` (2 000).
CHECK_STEP_BUDGET = 2_000

#: Missing guard patterns a Block's reason names.
_NAMED_PATTERNS = 3


class ComplianceChecker:
    """Decides allow/block for bound SELECT statements.

    ``history_enabled=False`` disables trace facts — the ablation that
    experiment E1 uses to show Q2 of Example 2.1 being blocked without
    history.

    ``compiled`` takes view dispatch/instantiation from the
    :class:`~repro.relalg.compile.CompiledPolicy`. ``skeletons`` is the
    :class:`~repro.enforce.cache.DecisionCache` each check is learned into
    (the gateway passes its epoch's one store, which its sessions probe);
    without one the checker learns nothing.
    """

    def __init__(
        self,
        schema: SchemaInfo,
        policy: Policy,
        history_enabled: bool = True,
        max_candidates: int = 2000,
        compiled: "CompiledPolicy | None" = None,
        skeletons: "DecisionCache | None" = None,
    ):
        self.schema = schema
        self.policy = policy
        self.history_enabled = history_enabled
        self.max_candidates = max_candidates
        self.compiled = compiled
        self.skeletons = skeletons
        # Structural constants from the view definitions ("public", an
        # age bound): worthless as connectivity evidence, since they link
        # every fact mentioning them to every query mentioning them.
        self._view_constants = (
            set(compiled.view_constants) if compiled is not None else policy.constants()
        )

    def translate(self, stmt: ast.Select) -> UCQ | None:
        """The query's UCQ, or None when outside the reasoning fragment."""
        try:
            return translate_select(stmt, self.schema)
        except TranslationError:
            return None

    def check(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        trace: Trace | None = None,
        allow_compiled: bool = True,
        skeleton: Skeleton | None = None,
    ) -> Decision:
        """Vet one bound SELECT for the session described by ``bindings``.

        ``bindings`` instantiates the policy's parameters (typically
        ``{"MyUId": user_id}``). Always the full search; its outcome is
        learned into ``skeletons`` when there is one, unless
        ``allow_compiled=False`` (an independent decision for cached-decision
        verification, which must not feed the store it audits).
        ``skeleton`` is an optional precomputed ``skeletonize(stmt)`` (from
        a prepared-statement plan) forwarded to the store.
        """
        decision, relevant = self._check_full(stmt, bindings, trace)
        if allow_compiled and self.skeletons is not None:
            if decision.allowed:
                self.skeletons.store(stmt, bindings, decision, skeleton=skeleton)
            else:
                self.skeletons.store_block(
                    stmt, bindings, decision, relevant, skeleton=skeleton
                )
        return decision

    def _check_full(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        trace: Trace | None,
    ) -> tuple[Decision, set[str] | None]:
        """The full containment path; also returns the relevant-relation
        set so fact-free Blocks can be templated with the right guard
        (None for a statement outside the fragment: no policy decided it)."""
        started = time.perf_counter()
        sql = stmt  # printed on first read (``Decision.sql``)
        query = self.translate(stmt)
        if query is None:
            return (
                Decision(
                    allowed=False,
                    sql=sql,
                    reason="query is outside the analyzable fragment",
                    duration_s=time.perf_counter() - started,
                ),
                None,
            )
        views = (
            self.compiled.view_defs(bindings)
            if self.compiled is not None
            else self.policy.view_defs(bindings)
        )
        relevant: set[str] = set()
        considered = 0
        if self.history_enabled:
            relevant = (
                self.compiled.relevant_relations(set(query.relations()))
                if self.compiled is not None
                else self._relevant_relations(query, views)
            )
            if trace is not None:
                considered = sum(len(trace.facts_of(rel)) for rel in relevant)
        history = trace if considered else None
        budget = SearchBudget(CHECK_STEP_BUDGET)
        # The facts that survived pruning for some disjunct.
        kept_facts: set[Atom] = set()
        rewritings: list[Rewriting] = []
        facts_used: list[Atom] = []
        try:
            for disjunct in query.disjuncts:
                rewriting, used, kept, missing = self._check_disjunct(
                    disjunct, views, history, bindings, budget
                )
                kept_facts.update(kept)
                if rewriting is None:
                    reason = "no equivalent rewriting over policy views" + (
                        " and trace facts" if kept_facts else ""
                    )
                    if missing:
                        reason += "; would need " + ", ".join(
                            repr(atom) for atom in missing[:_NAMED_PATTERNS]
                        )
                    return (
                        Decision(
                            allowed=False,
                            sql=sql,
                            reason=reason,
                            duration_s=time.perf_counter() - started,
                            facts_considered=considered,
                            facts_kept=len(kept_facts),
                        ),
                        relevant,
                    )
                for fact in used:
                    if fact not in facts_used:
                        facts_used.append(fact)
                rewritings.append(rewriting)
        except SearchBudgetExhausted:
            return (
                Decision(
                    allowed=False,
                    sql=sql,
                    reason=f"{BUDGET_REASON} the rewriting search ran past"
                    f" {CHECK_STEP_BUDGET} steps",
                    duration_s=time.perf_counter() - started,
                    facts_considered=considered,
                    facts_kept=len(kept_facts),
                ),
                relevant,
            )
        return (
            Decision(
                allowed=True,
                sql=sql,
                reason="answer is computable from policy views"
                + (" and trace facts" if any(r.fact_atoms for r in rewritings) else ""),
                rewritings=tuple(rewritings),
                facts_used=tuple(facts_used),
                duration_s=time.perf_counter() - started,
                facts_considered=considered,
                facts_kept=len(kept_facts),
            ),
            relevant,
        )

    def _relevant_relations(self, query: UCQ, views: list[ViewDef]) -> set[str]:
        """Relations whose trace facts could help this query.

        The query's own relations, plus every relation co-occurring with
        one of them in some view body (a view may join a query relation
        against a guard relation — exactly the Example 2.1 shape).
        """
        relations = set(query.relations())
        for view in views:
            view_relations = view.cq.relations()
            if view_relations & relations:
                relations |= view_relations
        return relations

    def _check_disjunct(
        self,
        disjunct: CQ,
        views: list[ViewDef],
        trace: Trace | None,
        bindings: Mapping[str, object],
        budget: SearchBudget,
    ) -> tuple[Rewriting | None, list[Atom], list[Atom], list[Atom]]:
        """``(rewriting or None, facts it conjoined, facts that survived
        pruning, guard-pattern atoms no certified fact matches)`` — the
        last only when an attempt with facts ran and failed."""
        # Fast path: no facts needed.
        closure = ConstraintSet(disjunct.comps)
        rewriting = find_equivalent_rewriting(
            disjunct,
            views,
            max_candidates=self.max_candidates,
            budget=budget,
            closure=closure,
        )
        if rewriting is not None:
            return rewriting, [], [], []
        if trace is None:
            return None, [], [], []
        facts, missing = helpful_facts(
            disjunct, guard_patterns(disjunct, views, closure), trace, closure
        )
        if not facts:
            return None, [], [], []
        # Iterative deepening over trace facts: first the facts directly
        # tied to the query's constants, then the transitive closure. The
        # narrow attempt resolves the common guarded-handler shape (one
        # check query, one fetch) without a combinatorial search.
        narrow = self._select_facts(disjunct, facts, {}, transitive=False, cap=4)
        if narrow:
            rewriting = self._try_with_facts(disjunct, views, narrow, budget)
            if rewriting is not None:
                return rewriting, narrow, facts, []
        wide = self._select_facts(disjunct, facts, bindings, transitive=True, cap=8)
        if wide and wide != narrow:
            rewriting = self._try_with_facts(disjunct, views, wide, budget)
            if rewriting is not None:
                return rewriting, wide, facts, []
        return None, [], facts, missing if narrow or wide else []

    def _try_with_facts(
        self,
        disjunct: CQ,
        views: list[ViewDef],
        useful: list[Atom],
        budget: SearchBudget,
    ) -> Rewriting | None:
        augmented = CQ(
            head=disjunct.head,
            body=disjunct.body + tuple(useful),
            comps=disjunct.comps,
            head_names=disjunct.head_names,
            name=(disjunct.name or "Q") + "_with_facts",
        )
        return find_equivalent_rewriting(
            augmented,
            views,
            facts=useful,
            max_candidates=self.max_candidates,
            budget=budget,
        )

    def _select_facts(
        self,
        disjunct: CQ,
        facts: list[Atom],
        bindings: Mapping[str, object],
        transitive: bool = True,
        cap: int = 10,
    ) -> list[Atom]:
        """Facts worth conjoining, by transitive constant reachability.

        Conjoining every trace fact would make candidate assembly blow up
        combinatorially as the session runs. A fact can only tie the query
        to the views if it is linked to the query through shared constants
        — possibly via other facts (a Posts fact introduces the author id
        that a Friendships fact then connects to). Seed with the query's
        constants and the session bindings, then close transitively.

        Structural view constants are ignored as links: a value like
        ``'friends'`` occurs in every friends-post fact, so reaching
        through it floods the selection with unrelated facts and — under
        the cap — crowds out the one guard fact that actually certifies
        the query (observed at serving scale, where traces are long).
        Within the cap, facts reached *directly* from the query beat
        transitively-reached ones, most recent first.
        """

        def informative(values: set[object]) -> set[object]:
            return values - self._view_constants

        reached: set[object] = informative(set(bindings.values()))
        for comp in disjunct.comps:
            for term in (comp.left, comp.right):
                if isinstance(term, Const):
                    reached.add(term.value)
        for atom in disjunct.body:
            for arg in atom.args:
                if isinstance(arg, Const):
                    reached.add(arg.value)
        reached = informative(reached)
        rounds: list[list[Atom]] = []
        remaining = list(facts)
        changed = True
        while changed:
            changed = False
            matched: list[Atom] = []
            still_remaining = []
            for fact in remaining:
                fact_consts = informative(
                    {arg.value for arg in fact.args if isinstance(arg, Const)}
                )
                if fact_consts & reached:
                    matched.append(fact)
                    if transitive:
                        reached |= fact_consts
                    changed = True
                else:
                    still_remaining.append(fact)
            if matched:
                rounds.append(matched)
            remaining = still_remaining
            if not transitive:
                break
        selected: list[Atom] = []
        quota = cap
        for matched in rounds:
            if quota <= 0:
                break
            take = matched[-quota:]
            selected.extend(take)
            quota -= len(take)
        return selected


def helpful_facts(
    query: CQ,
    patterns: Sequence[GuardPattern],
    trace: Trace,
    closure: ConstraintSet | None = None,
) -> tuple[list[Atom], list[Atom]]:
    """The certified facts that can take part in an equivalent rewriting
    of ``query``, oldest first, and the atoms of ``patterns`` (its
    :func:`~repro.relalg.rewrite.guard_patterns`) no certified fact matches.

    A fact is kept iff (a) it is an *instance* of a query subgoal, or (b)
    it matches an atom of a pattern every atom of which some certified
    fact matches. Matching is equality under the query's closure,
    position by position, except at open positions: a pattern's
    wildcards; in (a), the query's existential variables — those no
    comparison pins and no head variable equals, which the containment
    mapping may send onto a fact's values; and in (b) those too, when
    each subgoal the pattern's view covers has an instance, the view then
    landing on facts alone. Any other query variable matches no fact; a
    labeled null only an open position. Found through the trace's
    indexes: one probe per ground atom, one relation's facts per atom
    with an open position. docs/compliance.md, "Which facts can help a
    check", says why nothing pruned could help. ``closure`` is
    ``ConstraintSet(query.comps)`` when the caller holds it.
    """
    if closure is None:
        closure = ConstraintSet(query.comps)
    if not closure.consistent():
        return [], []
    head = [term for term in query.head if isinstance(term, Var)]
    pins: dict[Term, Const | None] = {}

    def pinned(term: Term) -> Const | None:
        if term not in pins:
            pins[term] = term if isinstance(term, Const) else closure.pinned(term)
        return pins[term]

    def existential(term: Term) -> bool:
        """Open in an instance: a wildcard, or an existential variable."""
        return (
            isinstance(term, Var)
            and pinned(term) is None
            and not any(closure.equal(term, var) for var in head)
        )

    def matching(atom: Atom, is_open: Callable[[Term], bool]) -> list[Atom]:
        args: list[Const | None] = []  # None: an open position
        for arg in atom.args:
            if is_open(arg):
                args.append(None)
                continue
            pin = pinned(arg)
            if pin is None:
                return []
            args.append(pin)
        if None not in args:
            fact = trace.certified(Atom(atom.rel, tuple(args)))  # type: ignore[arg-type]
            return [] if fact is None else [fact]
        return [
            fact
            for fact in trace.facts_of(atom.rel)
            if len(fact.args) == len(args)
            and all(
                want is None or closure.equal(want, have)
                for want, have in zip(args, fact.args)
            )
        ]

    instances = [matching(subgoal, existential) for subgoal in query.body]
    kept: set[Atom] = set()
    for facts in instances:
        kept.update(facts)
    missing: list[Atom] = []
    for pattern in patterns:
        found = [matching(atom, is_wildcard) for atom in pattern.atoms]
        if not all(found) and all(instances[index] for index in pattern.covers):
            found = [matching(atom, existential) for atom in pattern.atoms]
        if all(found):
            for facts in found:
                kept.update(facts)
            continue
        for atom, facts in zip(pattern.atoms, found):
            if not facts and atom not in missing:
                missing.append(atom)
    return trace.oldest_first(kept), missing
