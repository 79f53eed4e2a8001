"""Answering queries using views: rewriting enumeration and validation.

This module implements the machinery behind three parts of the paper:

* **Enforcement** (§2.2, the Blockaid setting): a query is compliant when
  ``Q ∧ trace-facts`` has an *equivalent* rewriting over the policy views —
  its answer is then computable from information the policy already
  reveals. :func:`find_equivalent_rewriting`.
* **Query-narrowing patches** (§5.2.2): a blocked query is narrowed to a
  *maximally contained* rewriting using the views (Levy et al. '95; with
  comparisons per Afrati et al. '06). :func:`maximally_contained_rewritings`.
* **PQI checking** (§4.3): a non-trivial contained rewriting of a
  sensitive query witnesses positive query implication.

The generator is bucket-style with MiniCon-flavored multi-subgoal
coverage: for each view we enumerate partial homomorphisms from the view
body onto subsets of the query body; candidates are assembled by covering
every query subgoal, then validated by *expansion containment* — the
candidate's expansion over base relations must be contained in (or
equivalent to) the query. Validation by expansion keeps generation simple
and sound: an over-eager candidate is simply rejected.

Trace facts (ground atoms known from prior query answers) participate as
zero-cost coverage: a subgoal matching a known fact needs no view.

The same partial homomorphisms, read the other way, say what a view is
*missing*: :func:`guard_patterns` returns the view atoms each one leaves
unmapped — the facts that would let the view cover the query. The
enforcement checker uses them to discard trace facts that cannot help a
check and to name the one that would have; the diagnosis layer turns
them into §5.2.2's access-check patches.

A :class:`SearchBudget` caps the work of a run of searches; when it runs
out they raise :class:`SearchBudgetExhausted` instead of answering.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Atom, Comp, Const, Param, Term, Var, fresh_var_factory
from repro.relalg.containment import cq_contained_in


#: Separates a view's name from a variable's in the view's namespace.
_VIEW_NAMESPACE = ":"


@dataclass(frozen=True)
class ViewDef:
    """A named view with a CQ definition; the head is what the view exposes.

    Its variables arrive renamed apart, once, into the view's own
    namespace: ``x`` becomes ``<name>:x``. No translated query variable
    (``alias.column``), rewriting variable (``rw<n>``), guard wildcard
    (``_<n>``) or labeled null has a ``:`` in its name, so the search
    maps a view onto a query without renaming it per check. (A query
    built from another view's definition lives in that view's namespace.)
    """

    name: str
    cq: CQ

    def __post_init__(self) -> None:
        prefix = f"{self.name}{_VIEW_NAMESPACE}"
        renaming: dict[Var, Term] = {
            var: Var(prefix + var.name)
            for var in self.cq.variables()
            if not var.name.startswith(prefix)
        }
        if renaming:
            object.__setattr__(self, "cq", self.cq.substitute(renaming))


@dataclass(frozen=True)
class Rewriting:
    """A validated rewriting of a query using views (and trace facts).

    ``atoms`` are applications of views (relation name = view name, args =
    exposed values); ``fact_atoms`` are the trace facts relied upon;
    ``rewriting`` is the executable query over the view relations;
    ``expansion`` is its unfolding over base relations.
    """

    atoms: tuple[Atom, ...]
    fact_atoms: tuple[Atom, ...]
    rewriting: CQ
    expansion: CQ

    def describe(self) -> str:
        parts = [repr(a) for a in self.atoms]
        if self.fact_atoms:
            parts.append("facts: " + ", ".join(repr(f) for f in self.fact_atoms))
        return " AND ".join(parts) if parts else "(trivial)"


class SearchBudgetExhausted(Exception):
    """A :class:`SearchBudget` ran out before the search could answer."""


class SearchBudget:
    """Search steps a run of rewriting searches may spend between them.

    A step is one coverage descriptor emitted or one candidate validated;
    the count does not depend on memoization. :meth:`spend` raises
    :class:`SearchBudgetExhausted` once more steps were spent than given.
    """

    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def spend(self, steps: int) -> None:
        self.remaining -= steps
        if self.remaining < 0:
            raise SearchBudgetExhausted


# --------------------------------------------------------------------------
# Partial homomorphisms
# --------------------------------------------------------------------------


def _match(
    view_atom: Atom, subgoal: Atom, phi: dict[Var, Term], closure: ConstraintSet
) -> dict[Var, Term] | None:
    """The extension of ``phi`` mapping ``view_atom`` onto ``subgoal``, or None."""
    if view_atom.rel != subgoal.rel or len(view_atom.args) != len(subgoal.args):
        return None
    extension: dict[Var, Term] = {}
    for view_arg, q_arg in zip(view_atom.args, subgoal.args):
        if isinstance(view_arg, Var):
            bound = phi.get(view_arg, extension.get(view_arg))
            if bound is None:
                extension[view_arg] = q_arg
            elif not closure.equal(bound, q_arg):
                return None
        elif not closure.equal(view_arg, q_arg):
            # A constant/param inside the view body must be matched by a
            # provably equal query term.
            return None
    return extension


def _partial_homomorphisms(
    body: Sequence[Atom], query: CQ, closure: ConstraintSet
) -> Iterator[tuple[dict[Var, Term], frozenset[int], frozenset[int]]]:
    """Every consistent mapping of a non-empty subset of the view ``body``
    onto ``query``'s subgoals, as ``(phi, mapped view-atom indexes,
    covered subgoal indexes)``.

    ``phi`` is one live dict: it changes once the consumer asks for the
    next mapping, so a consumer that keeps it copies it.
    """
    phi: dict[Var, Term] = {}

    def extend(
        atom_index: int, mapped: frozenset[int], covered: frozenset[int]
    ) -> Iterator[tuple[dict[Var, Term], frozenset[int], frozenset[int]]]:
        if atom_index == len(body):
            if mapped:
                yield phi, mapped, covered
            return
        # Option 1: leave this view atom unmapped.
        yield from extend(atom_index + 1, mapped, covered)
        # Option 2: map it onto some query subgoal.
        view_atom = body[atom_index]
        for index, subgoal in enumerate(query.body):
            extension = _match(view_atom, subgoal, phi, closure)
            if extension is None:
                continue
            phi.update(extension)
            yield from extend(atom_index + 1, mapped | {atom_index}, covered | {index})
            for key in extension:
                del phi[key]

    return extend(0, frozenset(), frozenset())


# --------------------------------------------------------------------------
# Coverage descriptors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Descriptor:
    """One way to cover a set of query subgoals.

    Either a view application (``view`` set, with the argument tuple the
    rewrite atom will carry) or a trace fact (``fact`` set).
    """

    covers: frozenset[int]
    view: str | None
    args: tuple[Term, ...]
    fact: Atom | None


def _view_descriptors(
    query: CQ,
    closure: ConstraintSet,
    view: ViewDef,
    fresh,
    needed: set[Var],
    occurs: dict[Var, frozenset[int]],
) -> list[_Descriptor]:
    """Enumerate partial homomorphisms from the view body into the query body.

    Each consistent mapping of a non-empty subset of the view's atoms onto
    query subgoals yields a descriptor, provided every *needed* query
    variable touched by the covered subgoals is exposed through the view
    head (or fixed to a constant). ``occurs`` is :func:`_occurrences`
    of the query.
    """
    view_cq = view.cq
    head_vars = {t for t in view_cq.head if isinstance(t, Var)}
    descriptors: list[_Descriptor] = []
    seen: set[tuple] = set()

    def emit(phi: dict[Var, Term], covered: frozenset[int]) -> None:
        # Exposure check (MiniCon property): a query variable touched by
        # the covered subgoals must be recoverable from the view head
        # unless this descriptor covers *every* subgoal using it — a join
        # internal to one view application needs no exposure.
        exposed_images = {phi[v] for v in head_vars if v in phi}
        for index in covered:
            for arg in query.body[index].args:
                if not isinstance(arg, Var) or arg not in needed:
                    continue
                if isinstance(closure.canon(arg), Const):
                    continue  # pinned to a constant; nothing to expose
                if any(closure.equal(arg, image) for image in exposed_images):
                    continue
                if not occurs[arg] <= covered:
                    return  # needed variable hidden by this view use
        # The view's own comparisons must not contradict the query's (a view
        # filtering age >= 60 cannot cover a subgoal constrained to age < 30).
        if not closure.admits([c.substitute(phi) for c in view_cq.comps]):
            return
        # Build the rewrite-atom argument list from the view head.
        args: list[Term] = []
        for term in view_cq.head:
            if isinstance(term, Var):
                image = phi.get(term)
                if image is None:
                    image = fresh()  # unrestricted output column
                args.append(image)
            else:
                args.append(term)
        key = (view.name, tuple(args), covered)
        if key in seen:
            return
        seen.add(key)
        descriptors.append(
            _Descriptor(covers=covered, view=view.name, args=tuple(args), fact=None)
        )

    for phi, _, covered in _partial_homomorphisms(view_cq.body, query, closure):
        emit(phi, covered)
    return descriptors


def _fact_descriptors(
    query: CQ, closure: ConstraintSet, facts: Sequence[Atom]
) -> list[_Descriptor]:
    descriptors = []
    for fact in facts:
        for index, subgoal in enumerate(query.body):
            if fact.rel != subgoal.rel or len(fact.args) != len(subgoal.args):
                continue
            if all(
                closure.equal(fact_arg, q_arg)
                for fact_arg, q_arg in zip(fact.args, subgoal.args)
            ):
                descriptors.append(
                    _Descriptor(
                        covers=frozenset({index}), view=None, args=fact.args, fact=fact
                    )
                )
    return descriptors


def _occurrences(query: CQ) -> dict[Var, frozenset[int]]:
    """Each body variable of ``query`` -> the subgoals it occurs in. A
    head variable's set also holds one index past the last subgoal, which
    no descriptor covers: it is needed outside every view application."""
    found: dict[Var, set[int]] = {}
    for index, atom in enumerate(query.body):
        for var in atom.variables():
            found.setdefault(var, set()).add(index)
    occurs = {var: frozenset(indexes) for var, indexes in found.items()}
    every = frozenset(range(len(query.body) + 1))
    for term in query.head:
        if isinstance(term, Var):
            occurs[term] = every
    return occurs


def _needed_variables(query: CQ) -> set[Var]:
    """Variables that must be exposed: head vars and join vars.

    Comparison-only variables are deliberately *not* required: a view
    whose own body enforces the comparison (e.g. ``Age >= 60``) can cover
    the subgoal without exposing the column — expansion validation
    rejects the candidates where the view's constraint is insufficient.
    """
    needed: set[Var] = {t for t in query.head if isinstance(t, Var)}
    counts: dict[Var, int] = {}
    for atom in query.body:
        for var in set(atom.variables()):
            counts[var] = counts.get(var, 0) + 1
    needed.update(v for v, n in counts.items() if n > 1)
    return needed


# --------------------------------------------------------------------------
# Guard patterns
# --------------------------------------------------------------------------

#: Name prefix of a guard pattern's wildcards, ``_0``, ``_1``, ...: a
#: translated query variable is ``alias.column``, never prefix + digits.
_WILDCARD_PREFIX = "_"


def is_wildcard(term: Term) -> bool:
    """Is ``term`` a guard-pattern wildcard ("some value")?"""
    return (
        isinstance(term, Var)
        and term.name.startswith(_WILDCARD_PREFIX)
        and term.name[len(_WILDCARD_PREFIX) :].isdigit()
    )


@dataclass(frozen=True)
class GuardPattern:
    """What a view lacks to cover part of a query: its unmapped ``atoms``,
    once its other atoms map onto the query subgoals ``covers`` (indexes
    into the query's body)."""

    covers: frozenset[int]
    atoms: tuple[Atom, ...]


def guard_patterns(
    query: CQ, views: Sequence[ViewDef], closure: ConstraintSet | None = None
) -> list[GuardPattern]:
    """What each view lacks to cover part of ``query``.

    For every view and every partial homomorphism mapping at least one,
    but not every, view atom onto a query subgoal: the unmapped atoms.
    Each of their variables is resolved through the query's comparisons
    plus the view's own under the mapping — to the constant they force,
    else to a query variable they equate it with (pinned to a constant
    where the query's comparisons pin it), else to a fresh wildcard
    (:func:`is_wildcard`; one per view variable, so shared ones still
    join). For Example 2.1's ``Q2`` alone, V2 maps its ``Events`` atom
    and lacks ``Attendance(1, 2)``. Smallest patterns first, each once.
    ``closure`` is ``ConstraintSet(query.comps)`` when the caller holds it.
    """
    if closure is None:
        closure = ConstraintSet(query.comps)
    if not closure.consistent():
        return []
    fresh = fresh_var_factory(_WILDCARD_PREFIX)
    anchors = sorted(query.body_variables(), key=lambda v: v.name)
    query_relations = query.relations()
    patterns: dict[GuardPattern, None] = {}
    for view in views:
        if not (view.cq.relations() & query_relations):
            continue  # no atom of it maps
        view_cq = view.cq
        body = view_cq.body
        for phi, mapped, covered in _partial_homomorphisms(body, query, closure):
            unmapped = [atom for index, atom in enumerate(body) if index not in mapped]
            if not unmapped:
                continue
            combined = ConstraintSet(
                list(query.comps) + [c.substitute(phi) for c in view_cq.comps]
            )
            if not combined.consistent():
                continue
            resolved = dict(phi)
            for atom in unmapped:
                for arg in atom.args:
                    if not isinstance(arg, Var) or arg in resolved:
                        continue
                    canon = combined.canon(arg)
                    if isinstance(canon, Const):
                        resolved[arg] = canon
                        continue
                    anchor = next((v for v in anchors if combined.equal(arg, v)), None)
                    resolved[arg] = anchor if anchor is not None else fresh()
            atoms = tuple(_pin(atom.substitute(resolved), closure) for atom in unmapped)
            patterns[GuardPattern(covered, atoms)] = None
    return sorted(patterns, key=lambda pattern: len(pattern.atoms))


def _pin(atom: Atom, closure: ConstraintSet) -> Atom:
    """``atom`` with each variable the closure pins to a constant replaced
    by that constant."""
    args: list[Term] = []
    for arg in atom.args:
        canon = closure.canon(arg) if isinstance(arg, Var) else arg
        args.append(canon if isinstance(canon, Const) else arg)
    return Atom(atom.rel, tuple(args))


# --------------------------------------------------------------------------
# Expansion
# --------------------------------------------------------------------------


class _Expander:
    """Unfolds view atoms into base-relation bodies."""

    def __init__(self, views: Sequence[ViewDef]):
        self.by_name = {v.name: v.cq for v in views}

    def expansion_of(
        self,
        rewriting: CQ,
        view_atoms: Sequence[Atom],
        fact_atoms: Sequence[Atom],
    ) -> CQ:
        body: list[Atom] = list(fact_atoms)
        comps: list[Comp] = list(rewriting.comps)
        taken = {v.name for v in rewriting.variables()}
        for atom in view_atoms:
            definition = self.by_name[atom.rel]
            renamed = definition.rename_apart(taken)
            taken.update(v.name for v in renamed.variables())
            substitution: dict[Var, Term] = {}
            for head_term, arg in zip(renamed.head, atom.args):
                if isinstance(head_term, Var):
                    existing = substitution.get(head_term)
                    if existing is None:
                        substitution[head_term] = arg
                    elif existing != arg:
                        comps.append(Comp("=", existing, arg))
                else:
                    comps.append(Comp("=", head_term, arg))
            for body_atom in renamed.body:
                body.append(body_atom.substitute(substitution))
            for comp in renamed.comps:
                comps.append(comp.substitute(substitution))
        return CQ(
            head=rewriting.head,
            body=tuple(body),
            comps=tuple(comps),
            head_names=rewriting.head_names,
            name=(rewriting.name or "R") + "_exp",
        )


# --------------------------------------------------------------------------
# Candidate assembly
# --------------------------------------------------------------------------


def enumerate_rewritings(
    query: CQ,
    views: Sequence[ViewDef],
    facts: Sequence[Atom] = (),
    max_candidates: int = 2000,
    allow_partial: bool = False,
    budget: SearchBudget | None = None,
) -> Iterator[Rewriting]:
    """Yield well-formed (not yet validated) rewriting candidates.

    With ``allow_partial=True`` the assembly may *skip* subgoals — the
    shape needed for **containing** rewritings (NQI): an upper bound on
    the query need not cover subgoals no view mentions, as long as every
    head variable is still exposed (checked during candidate build).
    ``budget`` is charged one step per coverage descriptor.

    Callers validate via the convenience wrappers
    :func:`find_equivalent_rewriting` / :func:`maximally_contained_rewritings`,
    or check ``candidate.expansion`` against the query themselves.
    """
    return _enumerate(
        query,
        ConstraintSet(query.comps),
        views,
        facts,
        max_candidates,
        allow_partial,
        budget,
    )


def _enumerate(
    query: CQ,
    closure: ConstraintSet,
    views: Sequence[ViewDef],
    facts: Sequence[Atom],
    max_candidates: int,
    allow_partial: bool,
    budget: SearchBudget | None,
) -> Iterator[Rewriting]:
    """:func:`enumerate_rewritings` over ``closure``, the query's own."""
    if not closure.consistent():
        return
    needed = _needed_variables(query)
    occurs = _occurrences(query)
    expander = _Expander(views)
    fresh = fresh_var_factory("rw")
    descriptors: list[_Descriptor] = []
    # Index views by relation: a view sharing no relation with the query
    # can match no subgoal, so consulting it is provably a no-op.
    query_relations = query.relations()
    for view in views:
        if not (view.cq.relations() & query_relations):
            continue
        descriptors.extend(
            _view_descriptors(query, closure, view, fresh, needed, occurs)
        )
    descriptors.extend(_fact_descriptors(query, closure, facts))
    if budget is not None:
        budget.spend(len(descriptors))

    by_subgoal: list[list[_Descriptor]] = [[] for _ in query.body]
    for descriptor in descriptors:
        for index in descriptor.covers:
            by_subgoal[index].append(descriptor)
    if not allow_partial and any(not bucket for bucket in by_subgoal):
        return  # some subgoal cannot be covered at all
    # Order buckets for fast convergence: trace facts first (exact,
    # zero-cost coverage), then view descriptors covering more subgoals.
    for bucket in by_subgoal:
        bucket.sort(key=lambda d: (d.fact is None, -len(d.covers)))

    emitted = 0

    def assemble(index: int, chosen: list[_Descriptor]) -> Iterator[Rewriting]:
        nonlocal emitted
        if emitted >= max_candidates:
            return
        covered: frozenset[int] = frozenset()
        for descriptor in chosen:
            covered |= descriptor.covers
        while index < len(query.body) and index in covered:
            index += 1
        if index == len(query.body):
            if allow_partial and not chosen:
                return  # the empty rewriting carries no information
            candidate = _build(query, closure, chosen, expander)
            if candidate is not None:
                emitted += 1
                yield candidate
            return
        for descriptor in by_subgoal[index]:
            yield from assemble(index + 1, chosen + [descriptor])
            if emitted >= max_candidates:
                return
        if allow_partial:
            yield from assemble(index + 1, chosen)

    yield from assemble(0, [])


def _build(
    query: CQ,
    closure: ConstraintSet,
    chosen: Sequence[_Descriptor],
    expander: _Expander,
) -> Rewriting | None:
    view_atoms: list[Atom] = []
    fact_atoms: list[Atom] = []
    seen_atoms: set[Atom] = set()
    for descriptor in chosen:
        if descriptor.view is not None:
            atom = Atom(descriptor.view, descriptor.args)
        else:
            assert descriptor.fact is not None
            atom = descriptor.fact
        if atom in seen_atoms:
            continue
        seen_atoms.add(atom)
        if descriptor.view is not None:
            view_atoms.append(atom)
        else:
            fact_atoms.append(atom)

    available: set[Term] = set()
    for atom in view_atoms + fact_atoms:
        available.update(atom.args)

    def canonical(term: Term) -> Term | None:
        """Rewrite a term onto the rewriting's vocabulary, or None."""
        if isinstance(term, Const | Param) or term in available:
            return term
        pinned = closure.canon(term)
        if isinstance(pinned, Const):
            return pinned
        for other in available:
            if isinstance(other, Var) and closure.equal(term, other):
                return other
        return None

    # The rewriting's head must live in its own vocabulary: map each query
    # head term onto an exposed term (a head variable merely *equal* to an
    # exposed one is rewritten to it). An unexposable head term kills the
    # candidate.
    head: list[Term] = []
    for term in query.head:
        mapped = canonical(term)
        if mapped is None:
            return None
        head.append(mapped)

    kept_comps: list[Comp] = []
    for comp in query.comps:
        left = canonical(comp.left)
        right = canonical(comp.right)
        if left is None or right is None:
            continue
        if isinstance(left, Const) and isinstance(right, Const):
            continue  # ground comparison: true by consistency, drop it
        if left == right and comp.op in ("=", "<="):
            continue  # tautology after canonicalization
        kept_comps.append(Comp(comp.op, left, right))
    rewriting = CQ(
        head=tuple(head),
        body=tuple(view_atoms) + tuple(fact_atoms),
        comps=tuple(kept_comps),
        head_names=query.head_names,
        name=(query.name or "Q") + "_rw",
    )
    expansion = expander.expansion_of(rewriting, view_atoms, fact_atoms)
    return Rewriting(
        atoms=tuple(view_atoms),
        fact_atoms=tuple(fact_atoms),
        rewriting=rewriting,
        expansion=expansion,
    )


# --------------------------------------------------------------------------
# Validated entry points
# --------------------------------------------------------------------------


def find_equivalent_rewriting(
    query: CQ,
    views: Sequence[ViewDef],
    facts: Sequence[Atom] = (),
    max_candidates: int = 2000,
    budget: SearchBudget | None = None,
    closure: ConstraintSet | None = None,
) -> Rewriting | None:
    """Find a rewriting whose expansion is *equivalent* to ``query``.

    This is the compliance condition used by the enforcement proxy: the
    query's answer is then a function of the view contents (plus known
    trace facts), so executing it reveals nothing beyond the policy.
    ``budget`` is charged per descriptor and per candidate validated;
    :class:`SearchBudgetExhausted` propagates. ``closure`` is
    ``ConstraintSet(query.comps)`` when the caller holds it; the search
    and every ``query ⊑ expansion`` test share that one closure.
    """
    if closure is None:
        closure = ConstraintSet(query.comps)
    for candidate in _enumerate(
        query, closure, views, facts, max_candidates, False, budget
    ):
        if budget is not None:
            budget.spend(1)
        expansion = candidate.expansion
        if cq_contained_in(expansion, query) and cq_contained_in(
            query, expansion, q1_closure=closure
        ):
            return candidate
    return None


def maximally_contained_rewritings(
    query: CQ,
    views: Sequence[ViewDef],
    facts: Sequence[Atom] = (),
    max_candidates: int = 2000,
) -> list[Rewriting]:
    """All maximal contained rewritings of ``query`` using ``views``.

    Each returned rewriting's expansion is contained in ``query``,
    satisfiable, and not strictly contained in another returned
    rewriting's expansion.
    """
    valid: list[Rewriting] = []
    for candidate in enumerate_rewritings(query, views, facts, max_candidates):
        expansion = candidate.expansion
        if not ConstraintSet(expansion.comps).consistent():
            continue
        if cq_contained_in(expansion, query):
            valid.append(candidate)
    return _prune_non_maximal(valid)


def _prune_non_maximal(candidates: list[Rewriting]) -> list[Rewriting]:
    kept: list[Rewriting] = []
    for position, candidate in enumerate(candidates):
        dominated = False
        for other_position, other in enumerate(candidates):
            if other_position == position:
                continue
            if cq_contained_in(candidate.expansion, other.expansion):
                if not cq_contained_in(other.expansion, candidate.expansion):
                    dominated = True
                    break
                # Equivalent expansions: keep the structurally smaller one,
                # breaking ties by enumeration order.
                if (_size(other), other_position) < (_size(candidate), position):
                    dominated = True
                    break
        if not dominated:
            kept.append(candidate)
    return kept


def _size(rewriting: Rewriting) -> int:
    return len(rewriting.atoms) + len(rewriting.fact_atoms)
