"""The decision-template store (the Blockaid-style fast path).

A fresh Allow decision is generalized into a *template*: the query's
skeleton (constants hollowed out), the equality pattern among the slot
values and the session parameters, and the trace facts the decision's
justification relied on — with their constants rewritten to slot/param
references. A later query with the same skeleton, the same equality
pattern, and matching facts in its trace is allowed without re-running
the checker. :class:`DecisionCache` is the one such store in the
codebase: a bare proxy may own one, and a serving gateway owns one per
policy epoch, which its sessions probe once per statement
(:meth:`DecisionCache.lookup`) and its checker learns into.

Soundness. The checker's reasoning (constraint closure + homomorphism
search) over equality-compared constants is invariant under injective
renaming of those constants, so a decision replayed with renamed
constants — same equalities, same distinctness — remains valid, provided:

* "same" is the checker's own equality. One function,
  :func:`repro.relalg.constraints.constant_key`, says when two values are
  the same constant, for the equality pattern, the fact patterns and fact
  matching alike: ``2`` and ``2.0`` are one constant to the closure, so a
  template learned from ``UId = 2.0`` by user 2 records ``slot = MyUId``
  and never answers another user's id;
* the equality pattern also places the slot values and params among the
  *fixed* constants a proof can see: the view constants and the literals
  the skeleton keeps inline (``UId = TRUE`` from user 1 is a proof about
  ``MyUId = 1``);
* slots whose literal occurs under an order comparison are *pinned*
  (must match exactly; renaming invariance does not cover ``<``);
* slots whose value collides with a constant appearing in the policy's
  view definitions are pinned (the proof may have used that equality); and
* when the statement or any policy view compares by order, the closure
  also orders every pair of comparable constants, so a proof can rest
  on ``32 >= 30`` for an ``=``-position slot. Such a template records
  the order pattern (:func:`repro.relalg.constraints.order_pattern`) of
  its slot values, the session's parameters and its basis — the fixed
  constants and the fact patterns' constants — and a lookup must match
  it. A renaming that keeps that pattern keeps every comparison the
  closure can make, so it maps the proof to a proof.

Why sharing across sessions is sound. A stored template never names a
concrete session. It captures the query skeleton, the *equality pattern*
linking query constants to the session parameters (so "rows WHERE UId =
me" only ever matches the requesting user asking about themselves), and
— for history-dependent decisions — fact patterns that must be satisfied
by certified facts **in the requesting session's own trace**. A lookup
takes the caller's bindings and trace, so a template stored from user A's
session can only allow user B's query when the identical decision would
have been reached by running the checker for B directly:

* a template with no fact patterns was justified by the policy alone
  (for any session satisfying the equality pattern), and
* a template with fact patterns requires B's trace to certify matching
  facts — B must have *already been shown* the guard rows. A's history
  never leaks into B's checks.

Hence a hit never over-allows relative to a per-session checker, whichever
session or thread stored the template;
``tests/serve/test_cache_agreement_props.py`` re-verifies every hit.
Every stored template comes from a check this process ran itself: a
cluster's shards share none (``docs/cluster.md``).

Blocks. Blocking depends on the *absence* of helpful trace facts, which a
growing trace can invalidate, so a Block is templated only guarded: a
Block whose fresh check consulted *zero* trace facts
(``facts_considered == 0``) is stored with the set of relations whose
facts could have changed the outcome (``guard_relations``), and replayed
only for requests whose trace still has no facts in those relations — in
that state the checker's outcome is a pure function of the skeleton, the
equality partition, and the pinned values, so renaming invariance applies
exactly as it does for Allows. Fragment blocks (untranslatable
statements) carry an empty guard and replay unconditionally, since
translatability is purely structural. See :meth:`store_block` and
docs/compilation.md.

Thread safety. Every operation takes the store's single lock for its
in-index part only; the pure work on either side — skeletonizing,
generalizing a decision into a template, building the reply — runs
outside it. One lock is enough on everything measured (eight hash-routed stripes and
one lock read the same, and no workload ever waited; the benchmark's
``serve.stripe_contention`` still measures it); ``lock_waits`` counts the acquisitions that
did have to wait, so a deployment where that stops being true can see
it. Counters are plain ints updated under the lock.

Writes. A template is a function of the policy, the skeleton, the
equality pattern and fact *patterns*; a write to the database changes
none of them, so no write evicts one. What a write can make false is a
certified fact — and a template only ever fires on facts the requesting
session's trace still holds, which the session sweeps against the
database's change log before each decision (``repro.enforce.proxy``).

Reloads. A template is a proof over named policy views, and it stays a
proof for as long as those views stay in the policy. Each template records
their canonical definitions (``_Template.views``); a policy reload seeds
the new epoch's store with the templates the new policy still proves
(:meth:`DecisionCache.carry_from`) and re-derives only the rest.

Indexing. Per skeleton key, a **pinned-slot discrimination index**
(:class:`_SkeletonIndex`): templates are grouped by *which* slots they
pin, and within a group selected by one dict probe on the pinned values
— so a lookup touches only templates whose pins already match, instead
of value-scanning every template under the key.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.enforce.decision import Decision
from repro.enforce.trace import Trace, is_labeled_null
from repro.policy.policy import Policy
from repro.relalg.constraints import constant_key, order_pattern
from repro.relalg.cq import Atom, Const
from repro.sqlir import ast
from repro.sqlir.skeleton import Skeleton, skeletonize

# A fact-pattern argument: ("const", value) | ("slot", i) | ("param", name)
# | ("any", None) for labeled nulls.
_PatternArg = tuple[str, object]


@dataclass(frozen=True)
class _Template:
    """A cached, generalized Allow decision."""

    skeleton_key: object
    pinned: tuple[tuple[int, object], ...]  # (slot index, exact value)
    equality_pattern: tuple[tuple[int, ...], ...]  # partition of slots+params
    fact_patterns: tuple[tuple[str, tuple[_PatternArg, ...]], ...]
    reason: str
    #: Base tables the decision touches: the query's own tables plus the
    #: relations of every trace fact it relied on
    #: (:meth:`DecisionCache.invalidate_table` evicts by this set).
    tables: frozenset[str] = frozenset()
    #: Allow templates replay an Allow; Block templates replay a Block
    #: while their guard holds.
    allowed: bool = True
    #: For Block templates: relations whose trace facts could overturn
    #: the block. Replay requires the requester's trace to have *no*
    #: facts in any of them. Empty = unconditional (fragment blocks).
    guard_relations: frozenset[str] = frozenset()
    #: The policy views the decision's proof rests on, as canonical
    #: definitions (:meth:`Policy.canonical_views`) so that a reload can
    #: compare them with its own (:meth:`DecisionCache.carry_from`). An
    #: Allow: the views its rewritings apply. A Block: every conjunctive
    #: view of the policy that decided it, since no rewriting over them
    #: exists. ``None``: an Allow generalized without its rewritings, or a
    #: fragment Block, which no policy decided. Two proofs of one template
    #: are one template, so this is not part of its identity.
    views: frozenset[str] | None = field(default=None, compare=False)
    #: For a statement or policy that compares by order: the constants
    #: the order pattern places the request's values among. None: no
    #: order pattern (module docstring, *Soundness*).
    order_basis: tuple[object, ...] | None = None
    #: ``_order_of(slot values, params, order_basis)`` when stored.
    order_pattern: tuple = ()


class _SkeletonIndex:
    """Discrimination index over one skeleton key's templates.

    ``groups`` maps a pinned slot-index tuple to a dict keyed by the
    corresponding pinned-value tuples; one hash probe per group replaces
    the per-template pinned-value scan. The dict is keyed by raw values,
    whose dict equality is :func:`~repro.relalg.constraints.constant_key`'s
    rule (``True`` matches ``1``). Each template carries an
    insertion sequence number so candidates from different groups merge
    back into exact insertion order.
    """

    __slots__ = ("groups", "count")

    def __init__(self) -> None:
        self.groups: dict[tuple[int, ...], dict[tuple, list[tuple[int, _Template]]]] = {}
        self.count = 0

    def add(self, seq: int, template: _Template) -> bool:
        """Index ``template`` — unless its exact duplicate already is."""
        slots = tuple(index for index, _ in template.pinned)
        values = tuple(value for _, value in template.pinned)
        entries = self.groups.setdefault(slots, {}).setdefault(values, [])
        if any(current == template for _, current in entries):
            return False
        entries.append((seq, template))
        self.count += 1
        return True

    def candidates(self, values: tuple[object, ...]) -> list[_Template]:
        """Templates whose pinned slots match ``values``, in insertion order."""
        if len(self.groups) == 1:
            # Common case: every template under this key pins the same slots.
            ((slots, by_value),) = self.groups.items()
            entries = by_value.get(tuple(values[i] for i in slots), ())
            return [template for _, template in entries]
        matched: list[tuple[int, _Template]] = []
        for slots, by_value in self.groups.items():
            entries = by_value.get(tuple(values[i] for i in slots))
            if entries:
                matched.extend(entries)
        matched.sort(key=lambda entry: entry[0])
        return [template for _, template in matched]

    def evict_touching(self, table: str) -> int:
        """Drop the templates touching ``table``; returns how many."""
        evicted = 0
        for slots in list(self.groups):
            by_value = self.groups[slots]
            for values in list(by_value):
                entries = by_value[values]
                kept = [(s, t) for s, t in entries if table not in t.tables]
                evicted += len(entries) - len(kept)
                if kept:
                    by_value[values] = kept
                else:
                    del by_value[values]
            if not by_value:
                del self.groups[slots]
        self.count -= evicted
        return evicted

    def entries(self) -> Iterator[tuple[int, _Template]]:
        """Every ``(insertion sequence number, template)``."""
        for by_value in self.groups.values():
            for entries in by_value.values():
                yield from entries


#: The store's event counters (monotonic). ``size`` is its one gauge.
_EVENT_COUNTERS = (
    "hits", "misses", "stores", "invalidations", "compiled_hits", "blocks_stored",
    "duplicates_skipped", "lock_waits",
)


class DecisionCache:
    """Maps query skeletons to decision templates; safe to share between
    sessions (module docstring) and between threads (one lock)."""

    def __init__(self, policy: Policy):
        self._lock = threading.Lock()
        self._index: dict[object, _SkeletonIndex] = {}
        self._view_constants = policy.constants()
        #: The view constants, each once: with a skeleton's inline
        #: literals, the fixed constants a template's equality pattern
        #: (and order pattern) places its slot values and params among.
        self._fixed = tuple(
            dict.fromkeys(map(constant_key, sorted(self._view_constants, key=repr)))
        )
        #: Whether some view compares by order; then every template
        #: records an order pattern.
        self._policy_ordered = any(
            comp.op in ("<", "<=")
            for view in policy
            for disjunct in view.ucq.disjuncts
            for comp in disjunct.comps
        )
        #: Conjunctive view name -> canonical definition (the views a
        #: checker searches; ``Policy.view_defs`` skips the others).
        self._view_definitions = {
            name: definition
            for name, definition in policy.canonical_views().items()
            if policy.view(name).is_conjunctive
        }
        #: What a Block template's proof rests on: all of them.
        self._policy_views = frozenset(self._view_definitions.values())
        self._seq = 0
        #: Live templates.
        self.size = 0
        self.hits = 0
        self.misses = 0
        #: Templates actually inserted (duplicates are not stores).
        self.stores = 0
        self.invalidations = 0
        #: Of the hits, those a Block template answered.
        self.compiled_hits = 0
        self.blocks_stored = 0
        self.duplicates_skipped = 0
        #: Lock acquisitions that found the lock held and had to wait.
        self.lock_waits = 0

    def _acquire(self) -> None:
        """Take the lock, counting (racily — it is a diagnostic, not an
        invariant) the acquisitions that had to wait."""
        if self._lock.acquire(blocking=False):
            return
        self.lock_waits += 1
        self._lock.acquire()

    # -- lookup ---------------------------------------------------------------

    def lookup(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        trace: Trace | None,
        *,
        skeleton: Skeleton | None = None,
        param_items: list[tuple[str, object]] | None = None,
    ) -> Decision | None:
        """Replay the first live template answering this request, in
        insertion order, or None: an Allow whose fact patterns certified
        facts of ``trace`` match, or a Block whose guard still holds.

        A hit is ``from_cache=True``, with the facts that satisfied the
        Allow's patterns in ``facts_used``. It counts in ``hits``, and in
        ``compiled_hits`` too when a Block answered; a miss counts in
        ``misses``. ``skeleton`` (when the caller holds a
        :class:`~repro.sqlir.prepared.PreparedPlan`) must be exactly
        ``skeletonize(stmt)``; passing it skips the per-request AST
        traversal. ``param_items`` is the session's pre-sorted
        ``sorted(bindings.items())`` — a per-session invariant callers
        hoist instead of re-sorting per lookup.
        """
        started = time.perf_counter()
        if skeleton is None:
            skeleton = skeletonize(stmt)  # pure work, outside the lock
        values = skeleton.values
        found = None
        self._acquire()
        try:
            index = self._index.get(skeleton.statement)
            if index is not None:
                if param_items is None:
                    param_items = sorted(bindings.items())
                # Computed once per probe; every candidate shares them.
                fixed = self._fixed + skeleton.inline if skeleton.inline else self._fixed
                partition = _equality_partition(values, param_items, fixed)
                params = dict(param_items)
                # Pinned values already match: the discrimination index
                # only yields templates whose pinned slots equal ``values``.
                for template in index.candidates(values):
                    if partition != template.equality_pattern:
                        continue
                    basis = template.order_basis
                    if basis is not None and (
                        _order_of(values, param_items, basis) != template.order_pattern
                    ):
                        continue
                    if template.allowed:
                        witnesses = _witnesses(template, values, params, trace)
                    elif not (
                        template.guard_relations
                        and trace is not None
                        and any(trace.facts_of(rel) for rel in template.guard_relations)
                    ):
                        witnesses = []  # a Block whose guard still holds
                    else:
                        continue
                    if witnesses is not None:
                        found = template, witnesses
                        break
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
                if not found[0].allowed:
                    self.compiled_hits += 1
        finally:
            self._lock.release()
        if found is None:
            return None
        template, witnesses = found
        return Decision(
            allowed=template.allowed,
            sql=stmt,  # printed on first read, not per hit
            reason=template.reason,
            from_cache=True,
            facts_used=tuple(witnesses),
            duration_s=time.perf_counter() - started,
        )

    # -- insertion -------------------------------------------------------------

    def store(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        decision: Decision,
        *,
        skeleton: Skeleton | None = None,
    ) -> bool:
        """Generalize and store a fresh Allow decision; True when a new
        template was actually inserted (an exact duplicate is not)."""
        if not decision.allowed or decision.from_cache:
            return False
        return self._insert_template(
            self._generalize(stmt, sorted(bindings.items()), decision, skeleton)
        )

    def store_block(
        self,
        stmt: ast.Select,
        bindings: Mapping[str, object],
        decision: Decision,
        guard_relations: set[str] | None,
        *,
        skeleton: Skeleton | None = None,
    ) -> bool:
        """Generalize a fresh *fact-free* Block.

        Only sound when the fresh check consulted zero trace facts
        (``facts_considered == 0``): then the outcome depends solely on
        the skeleton, the equality partition, and the pinned values, and
        injective renaming invariance carries it to any request matching
        those — provided no facts have since appeared in
        ``guard_relations`` (enforced at :meth:`lookup` time).
        ``guard_relations=None`` marks a fragment Block: the statement
        does not translate, so no policy decided it and nothing guards it.
        Bindings colliding with structural view constants are skipped
        (the proof may have used that equality; params are never pinned).
        A Block for want of search budget decided nothing and is never
        stored.
        """
        if (
            decision.allowed
            or decision.from_cache
            or decision.facts_considered
            or decision.over_budget
        ):
            return False
        param_items = sorted(bindings.items())
        try:
            if any(value in self._view_constants for _, value in param_items):
                return False
        except TypeError:  # unhashable binding value: don't template it
            return False
        return self._insert_template(
            self._generalize(
                stmt,
                param_items,
                decision,
                skeleton,
                frozenset(guard_relations or ()),
                None if guard_relations is None else self._policy_views,
            )
        )

    def _generalize(
        self,
        stmt: ast.Select,
        param_items: list[tuple[str, object]],
        decision: Decision,
        skeleton: Skeleton | None,
        guard_relations: frozenset[str] = frozenset(),
        views: frozenset[str] | None = None,
    ) -> _Template:
        """The template ``decision`` generalizes to (pure: no lock held).

        ``guard_relations`` and ``views`` are only passed for Blocks,
        whose decisions carry no ``facts_used`` and no rewritings; an
        Allow's views are read off its rewritings.
        """
        if decision.allowed:
            views = self._views_of(decision)
        if skeleton is None:
            skeleton = skeletonize(stmt)
        values = skeleton.values
        pinned = tuple(
            (index, value)
            for index, value in enumerate(values)
            if not skeleton.generalizable[index] or value in self._view_constants
        )
        tables = {ref.name for ref in stmt.tables()} | guard_relations
        fact_patterns = []
        if decision.facts_used:
            slot_of, param_of = _reference_maps(values, param_items)
            for fact in decision.facts_used:
                fact_patterns.append((fact.rel, _pattern_of(fact, slot_of, param_of)))
                tables.add(fact.rel)
        fixed = self._fixed + skeleton.inline
        basis = None
        if skeleton.ordered or self._policy_ordered:
            basis = fixed + tuple(
                ref
                for _, pattern in fact_patterns
                for kind, ref in pattern
                if kind == "const"
            )
        return _Template(
            skeleton_key=skeleton.statement,
            pinned=pinned,
            equality_pattern=_equality_partition(values, param_items, fixed),
            fact_patterns=tuple(fact_patterns),
            reason=decision.reason + " [template]",
            tables=frozenset(tables),
            allowed=decision.allowed,
            guard_relations=guard_relations,
            views=views,
            order_basis=basis,
            order_pattern=() if basis is None else _order_of(values, param_items, basis),
        )

    def _views_of(self, decision: Decision) -> frozenset[str] | None:
        """The canonical definitions of the views an Allow's rewritings
        apply; None when it has no rewritings or names a view this store's
        policy lacks (it was decided elsewhere)."""
        if not decision.rewritings:
            return None
        definitions = self._view_definitions
        names = {atom.rel for rewriting in decision.rewritings for atom in rewriting.atoms}
        if not names <= definitions.keys():
            return None
        return frozenset(definitions[name] for name in names)

    def _insert_template(self, template: _Template) -> bool:
        """Index a ready-made template (shared by store and benchmarks).

        Exact duplicates are skipped (returns False): two threads that
        missed on the same shape may generalize the same decision.
        """
        self._acquire()
        try:
            index = self._index.setdefault(template.skeleton_key, _SkeletonIndex())
            if not index.add(self._seq, template):
                self.duplicates_skipped += 1
                return False
            self._seq += 1
            self.size += 1
            self.stores += 1
            if not template.allowed:
                self.blocks_stored += 1
            return True
        finally:
            self._lock.release()

    # -- invalidation ----------------------------------------------------------

    def invalidate_table(self, table: str) -> int:
        """Evict every template touching ``table``; returns the eviction
        count. A scan of every template.

        No write calls this (module docstring, *Writes*). It stays for the
        benchmark's staged replay, ``bench/tracing.py``, which calls it
        after each write it replays.
        """
        evicted = 0
        self._acquire()
        try:
            for key in list(self._index):
                index = self._index[key]
                evicted += index.evict_touching(table)
                if not index.count:
                    del self._index[key]
            self.size -= evicted
            self.invalidations += evicted
        finally:
            self._lock.release()
        return evicted

    def clear(self) -> int:
        """Drop every template (counts as invalidation); returns the count."""
        self._acquire()
        try:
            dropped = self.size
            self._index.clear()
            self.size = 0
            self.invalidations += dropped
        finally:
            self._lock.release()
        return dropped

    def iter_templates(self) -> Iterator[_Template]:
        """A snapshot of the live templates, in no particular order."""
        self._acquire()
        try:
            live = [t for index in self._index.values() for _, t in index.entries()]
        finally:
            self._lock.release()
        return iter(live)

    # -- reload ------------------------------------------------------------------

    def carry_from(
        self,
        live: "DecisionCache",
        relevant_relations: Callable[[set[str]], set[str]],
    ) -> tuple[int, int]:
        """Seed this store with the templates of ``live`` that its own
        policy still proves; returns ``(carried, dropped)``.

        Call it before the store is published (a policy epoch's build).
        ``relevant_relations`` is this policy's
        :meth:`~repro.relalg.compile.CompiledPolicy.relevant_relations`.
        Carried templates keep their insertion order, pins and views, and
        count in ``size`` but not in ``stores``. The rules
        (docs/compliance.md, "Which templates survive a reload"):

        * an Allow whose rewritings apply only views this policy defines
          too — a rewriting over views ``U`` is one over any superset;
        * a Block whose policy defined every view this one does — with no
          rewriting over ``V`` there is none over a subset — and whose
          guard this policy's relevance pass cannot leave;
        * a fragment Block, always.
        """
        views = self._policy_views
        live._acquire()
        try:
            entries = [entry for index in live._index.values() for entry in index.entries()]
        finally:
            live._lock.release()
        entries.sort(key=lambda entry: entry[0])
        carried = 0
        for _, template in entries:
            if not _still_proved(template, views, relevant_relations):
                continue
            index = self._index.setdefault(template.skeleton_key, _SkeletonIndex())
            if index.add(self._seq, template):
                self._seq += 1
                carried += 1
        self.size += carried
        return carried, len(entries) - carried

    # -- counters --------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Flat counters (the gateway snapshot prefixes them ``shared_cache_``)."""
        return {
            "size": self.size,
            "stores": self.stores,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "compiled_hits": self.compiled_hits,
            "blocks_stored": self.blocks_stored,
            "duplicates_skipped": self.duplicates_skipped,
            # The key predates the single lock (the store was hash-striped
            # once); STATS consumers and the benchmark read this name.
            "stripe_contention": self.lock_waits,
        }

    def continue_counts_of(self, retired: "DecisionCache") -> None:
        """Start this store's event counters where ``retired``'s stand.

        A policy reload replaces the store; carrying the counts keeps
        every event counter read through the live store cumulative over
        the gateway's life (``size`` stays this store's own gauge).
        """
        for name in _EVENT_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(retired, name))


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _equality_partition(
    values: tuple[object, ...],
    param_items: list[tuple[str, object]],
    fixed: tuple[object, ...] = (),
) -> tuple[tuple[int, ...], ...]:
    """Partition of slot indexes by value under
    :func:`~repro.relalg.constraints.constant_key`; params get negative
    pseudo-indexes, and after them the ``fixed`` constants (view
    constants, inline literals), so a slot or param equal to one of them
    is recorded too.

    Captures both the required equalities and the required distinctness:
    two instantiations match iff they induce the same partition.
    """
    keyed: dict[object, list[int]] = {}
    for index, value in enumerate(values):
        keyed.setdefault(constant_key(value), []).append(index)
    for offset, (_, value) in enumerate(param_items):
        keyed.setdefault(constant_key(value), []).append(-(offset + 1))
    for offset, value in enumerate(fixed, start=len(param_items)):
        keyed.setdefault(constant_key(value), []).append(-(offset + 1))
    groups = [tuple(sorted(group)) for group in keyed.values() if len(group) > 1]
    groups.sort()
    return tuple(groups)


def _still_proved(
    template: _Template,
    views: frozenset[str],
    relevant_relations: Callable[[set[str]], set[str]],
) -> bool:
    """Does a policy whose conjunctive views are ``views`` (canonical
    definitions) still prove ``template``? (:meth:`DecisionCache.carry_from`.)"""
    if template.allowed:
        return template.views is not None and template.views <= views
    if template.views is None:
        return True  # a fragment Block: structural
    guard = template.guard_relations
    # One pass in policy order: a reordered subset may reach further.
    return views <= template.views and relevant_relations(set(guard)) <= guard


def _order_of(
    values: tuple[object, ...],
    param_items: list[tuple[str, object]],
    basis: tuple[object, ...],
) -> tuple:
    """The order pattern of the slot values, the parameters and ``basis``."""
    return order_pattern((*values, *(value for _, value in param_items), *basis))


def _reference_maps(
    values: tuple[object, ...], param_items: list[tuple[str, object]]
) -> tuple[dict[object, int], dict[object, str]]:
    """First-occurrence constant key → slot index / param name maps.

    Built once per :meth:`DecisionCache.store`; ``setdefault`` keeps the
    *first* matching slot/param for a value, matching the order the old
    linear ``next(...)`` scans would have found.
    """
    slot_of: dict[object, int] = {}
    for index, value in enumerate(values):
        slot_of.setdefault(constant_key(value), index)
    param_of: dict[object, str] = {}
    for name, value in param_items:
        param_of.setdefault(constant_key(value), name)
    return slot_of, param_of


def _pattern_of(
    fact: Atom,
    slot_of: dict[object, int],
    param_of: dict[object, str],
) -> tuple[_PatternArg, ...]:
    pattern: list[_PatternArg] = []
    for arg in fact.args:
        if is_labeled_null(arg):
            pattern.append(("any", None))
            continue
        if isinstance(arg, Const):
            key = constant_key(arg.value)
            slot = slot_of.get(key)
            if slot is not None:
                pattern.append(("slot", slot))
                continue
            param_name = param_of.get(key)
            if param_name is not None:
                pattern.append(("param", param_name))
                continue
            pattern.append(("const", arg.value))
            continue
        pattern.append(("any", None))
    return tuple(pattern)


def _witnesses(
    template: _Template,
    values: tuple[object, ...],
    params: dict[str, object],
    trace: Trace | None,
) -> list[Atom] | None:
    """One certified trace fact per fact pattern of ``template`` — the
    first match in trace order — or None when some pattern has none.

    A pattern that determines every argument is answered by one probe of
    the trace's fact index: at most one certified fact equals the
    expected atom, so it is the only one :func:`_fact_matches` could
    accept. A pattern with an ``any`` position scans its relation's facts.
    """
    if not template.fact_patterns:
        return []
    if trace is None:
        return None
    found: list[Atom] = []
    for rel, pattern_args in template.fact_patterns:
        expected = _expected_fact(rel, pattern_args, values, params)
        if expected is None:
            witness = next(
                (
                    fact
                    for fact in trace.facts_of(rel)
                    if _fact_matches(fact, rel, pattern_args, values, params)
                ),
                None,
            )
        else:
            witness = trace.certified(expected)
            if witness is not None and not _fact_matches(
                witness, rel, pattern_args, values, params
            ):
                witness = None
        if witness is None:
            return None
        found.append(witness)
    return found


def _expected_fact(
    rel: str,
    pattern_args: tuple[_PatternArg, ...],
    values: tuple[object, ...],
    params: dict[str, object],
) -> Atom | None:
    """The ground fact a pattern asks for, or None when an ``any``
    position leaves it open. (A param the session lacks reads as None
    here, which no certified constant matches under ``_fact_matches``.)"""
    args = []
    for kind, ref in pattern_args:
        if kind == "any":
            return None
        if kind == "slot":
            args.append(Const(values[ref]))  # type: ignore[index]
        elif kind == "param":
            args.append(Const(params.get(ref)))  # type: ignore[arg-type]
        else:
            args.append(Const(ref))  # type: ignore[arg-type]
    return Atom(rel, tuple(args))


def _fact_matches(
    fact: Atom,
    rel: str,
    pattern_args: tuple[_PatternArg, ...],
    values: tuple[object, ...],
    params: dict[str, object],
) -> bool:
    if fact.rel != rel or len(fact.args) != len(pattern_args):
        return False
    for arg, (kind, ref) in zip(fact.args, pattern_args):
        if kind == "any":
            continue
        if is_labeled_null(arg) or not isinstance(arg, Const):
            return False
        if kind == "slot":
            expected = values[ref]  # type: ignore[index]
        elif kind == "param":
            if ref not in params:
                return False
            expected = params[ref]
        else:
            expected = ref
        if constant_key(arg.value) != constant_key(expected):
            return False
    return True
