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

The compiled path (PR 8): hand the checker a
:class:`~repro.relalg.compile.CompiledPolicy` (built once per policy
epoch) and a per-epoch skeleton store, and :meth:`check` first tries to
instantiate a pre-derived decision template — "bind parameters + satisfy
fact patterns" — falling back to the full containment search only for
never-seen statement skeletons, whose outcome is then compiled into a
new template for the rest of the epoch. Decisions are identical either
way (E17 verifies zero disagreements); only the work per decision
changes. ``allow_compiled=False`` forces the full path — the gateway's
``verify_cached_decisions`` mode uses it so verification stays
independent of the very templates it is auditing.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.enforce.decision import Decision
from repro.enforce.trace import Trace
from repro.policy.policy import Policy
from repro.relalg.cq import CQ, UCQ, Atom
from repro.relalg.rewrite import Rewriting, ViewDef, find_equivalent_rewriting
from repro.relalg.translate import SchemaInfo, translate_select
from repro.sqlir import ast
from repro.sqlir.printer import to_sql
from repro.sqlir.skeleton import Skeleton
from repro.util.errors import TranslationError

if TYPE_CHECKING:
    from repro.enforce.cache import DecisionCache
    from repro.relalg.compile import CompiledPolicy


class ComplianceChecker:
    """Decides allow/block for bound SELECT statements.

    ``history_enabled=False`` disables trace facts — the ablation that
    experiment E1 uses to show Q2 of Example 2.1 being blocked without
    history.

    ``compiled`` switches on the epoch-compiled fast path: view
    dispatch/instantiation comes from the
    :class:`~repro.relalg.compile.CompiledPolicy`, and per-skeleton
    decision templates are served from / stored into ``skeletons`` (a
    :class:`~repro.enforce.cache.DecisionCache`; the gateway passes its
    epoch's one store, which the sessions also probe; a private one is
    created when omitted).
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
        if compiled is not None and skeletons is None:
            from repro.enforce.cache import DecisionCache

            skeletons = DecisionCache(policy)
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
        ``{"MyUId": user_id}``). ``allow_compiled=False`` bypasses the
        template fast path *and* suppresses template learning, giving an
        independent full-path decision (used by cached-decision
        verification). ``skeleton`` is an optional precomputed
        ``skeletonize(stmt)`` (from a prepared-statement plan) forwarded
        to the template store so the fast path skips re-skeletonizing.
        """
        effective_trace = trace if self.history_enabled else None
        use_templates = (
            allow_compiled and self.compiled is not None and self.skeletons is not None
        )
        if use_templates:
            started = time.perf_counter()
            hit = self.skeletons.lookup_compiled(
                stmt, bindings, effective_trace, skeleton=skeleton
            )
            if hit is not None:
                hit.duration_s = time.perf_counter() - started
                return hit
        decision, relevant = self._check_full(stmt, bindings, trace)
        if use_templates:
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
    ) -> tuple[Decision, set[str]]:
        """The full containment path; also returns the relevant-relation
        set so fact-free Blocks can be templated with the right guard."""
        started = time.perf_counter()
        sql = to_sql(stmt)
        query = self.translate(stmt)
        if query is None:
            return (
                Decision(
                    allowed=False,
                    sql=sql,
                    reason="query is outside the analyzable fragment",
                    duration_s=time.perf_counter() - started,
                ),
                set(),
            )
        views = (
            self.compiled.view_defs(bindings)
            if self.compiled is not None
            else self.policy.view_defs(bindings)
        )
        facts: list[Atom] = []
        relevant: set[str] = set()
        if self.history_enabled:
            relevant = (
                self.compiled.relevant_relations(set(query.relations()))
                if self.compiled is not None
                else self._relevant_relations(query, views)
            )
            if trace is not None:
                facts = trace.relevant_facts(relevant)
        rewritings: list[Rewriting] = []
        facts_used: list[Atom] = []
        for disjunct in query.disjuncts:
            outcome = self._check_disjunct(disjunct, views, facts, bindings)
            if outcome is not None:
                rewriting, used = outcome
                for fact in used:
                    if fact not in facts_used:
                        facts_used.append(fact)
            else:
                rewriting = None
            if rewriting is None:
                return (
                    Decision(
                        allowed=False,
                        sql=sql,
                        reason=(
                            "no equivalent rewriting over policy views"
                            + (" and trace facts" if facts else "")
                        ),
                        duration_s=time.perf_counter() - started,
                        facts_considered=len(facts),
                    ),
                    relevant,
                )
            rewritings.append(rewriting)
        return (
            Decision(
                allowed=True,
                sql=sql,
                reason="answer is computable from policy views"
                + (" and trace facts" if any(r.fact_atoms for r in rewritings) else ""),
                rewritings=tuple(rewritings),
                facts_used=tuple(facts_used),
                duration_s=time.perf_counter() - started,
                facts_considered=len(facts),
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
        facts: list[Atom],
        bindings: Mapping[str, object],
    ) -> tuple[Rewriting, list[Atom]] | None:
        # Fast path: no facts needed.
        rewriting = find_equivalent_rewriting(
            disjunct, views, max_candidates=self.max_candidates
        )
        if rewriting is not None:
            return rewriting, []
        if not facts:
            return None
        # Iterative deepening over trace facts: first the facts directly
        # tied to the query's constants, then the transitive closure. The
        # narrow attempt resolves the common guarded-handler shape (one
        # check query, one fetch) without a combinatorial search.
        narrow = self._select_facts(disjunct, facts, {}, transitive=False, cap=4)
        if narrow:
            rewriting = self._try_with_facts(disjunct, views, narrow)
            if rewriting is not None:
                return rewriting, narrow
        wide = self._select_facts(disjunct, facts, bindings, transitive=True, cap=8)
        if wide and wide != narrow:
            rewriting = self._try_with_facts(disjunct, views, wide)
            if rewriting is not None:
                return rewriting, wide
        return None

    def _try_with_facts(
        self, disjunct: CQ, views: list[ViewDef], useful: list[Atom]
    ) -> Rewriting | None:
        augmented = CQ(
            head=disjunct.head,
            body=disjunct.body + tuple(useful),
            comps=disjunct.comps,
            head_names=disjunct.head_names,
            name=(disjunct.name or "Q") + "_with_facts",
        )
        return find_equivalent_rewriting(
            augmented, views, facts=useful, max_candidates=self.max_candidates
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
        from repro.relalg.cq import Const

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
