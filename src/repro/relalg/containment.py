"""Containment of conjunctive queries with comparisons.

``cq_contained_in(q1, q2)`` decides (soundly) whether every answer of
``q1`` is an answer of ``q2`` on every database. The test searches for a
*containment mapping*: a homomorphism ``h`` from ``q2``'s variables to
``q1``'s terms such that

* every body atom of ``q2`` maps onto a body atom of ``q1`` (argument-wise
  equal modulo the equalities implied by ``q1``'s constraints),
* ``q1``'s constraint closure implies every image ``h(comp)`` of ``q2``'s
  comparisons, and
* the heads line up: ``h(q2.head[i])`` equals ``q1.head[i]`` modulo
  ``q1``'s equalities.

With comparisons, this homomorphism test is sound but not complete (the
complete test enumerates linearizations of ``q1``'s order constraints,
which is exponential; see Klug 1988). Incompleteness can only make the
enforcement proxy *block* a compliant query, never allow a violating one —
the same safety direction Blockaid takes when its solver times out.

``q1``'s equality comparisons are honored by checking argument matches
against the closure rather than syntactically, so ``R(x), x = 3`` matches
an atom ``R(3)`` of the container.
"""

from __future__ import annotations

from repro.relalg import memo
from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, UCQ, Atom, Comp, Term, Var


def cq_contained_in(q1: CQ, q2: CQ, *, q1_closure: ConstraintSet | None = None) -> bool:
    """Is ``q1`` contained in ``q2`` (``q1 ⊑ q2``)? Sound, see module doc.

    ``q1_closure`` is ``ConstraintSet(q1.comps)`` when the caller already
    holds it (the rewriting search built it for its query). Results are
    memoized on the pair ``(q1, q2)`` itself: ``CQ`` is a frozen
    dataclass with value equality, so a hit replays a computation on
    identical inputs. Alpha-variants do not share an entry — on the
    miss stream the memo never hit, and canonicalizing both sides cost
    about a tenth of a check (``repro.relalg.memo``).
    """
    if not memo.memoization_enabled():
        return _cq_contained_in_uncached(q1, q2, q1_closure)
    key = (q1, q2)
    cached = memo.CONTAINMENT_MEMO.get(key)
    if cached is not memo.MISSING:
        return cached  # type: ignore[return-value]
    result = _cq_contained_in_uncached(q1, q2, q1_closure)
    memo.CONTAINMENT_MEMO.put(key, result)
    return result


def _cq_contained_in_uncached(
    q1: CQ, q2: CQ, closure: ConstraintSet | None = None
) -> bool:
    if q1.arity != q2.arity:
        return False
    if closure is None:
        closure = ConstraintSet(q1.comps)
    if not closure.consistent():
        # q1 returns nothing on every database; trivially contained.
        return True
    return _find_mapping(q1, q2, closure) is not None


def containment_mapping(q1: CQ, q2: CQ) -> dict[Var, Term] | None:
    """Return a witnessing containment mapping for ``q1 ⊑ q2``, if found.

    Used by the diagnosis layer to explain *why* a query is compliant.
    Never memoized: the memo keeps answers, not witnesses.
    """
    if q1.arity != q2.arity:
        return None
    closure = ConstraintSet(q1.comps)
    if not closure.consistent():
        return {}
    return _find_mapping(q1, q2, closure)


def cq_contained_in_ucq(q1: CQ, q2: UCQ) -> bool:
    """Sound test for ``q1 ⊑ q2`` with a UCQ container.

    Checks whether some single disjunct contains ``q1`` — sound but not
    complete for unions (a CQ can be contained in a union without being
    contained in any disjunct only when its answers split by case, which
    requires disjunctive reasoning we deliberately avoid).
    """
    return any(cq_contained_in(q1, d) for d in q2.disjuncts)


def ucq_contained_in(q1: CQ | UCQ, q2: CQ | UCQ) -> bool:
    """Sound containment test between CQs/UCQs: all of q1 ⊑ some of q2."""
    left = UCQ.of(q1)
    right = UCQ.of(q2)
    return all(cq_contained_in_ucq(d, right) for d in left.disjuncts)


def equivalent(q1: CQ | UCQ, q2: CQ | UCQ) -> bool:
    """Mutual containment (sound; used for view/policy comparison)."""
    return ucq_contained_in(q1, q2) and ucq_contained_in(q2, q1)


def satisfiable(q: CQ) -> bool:
    """Is the query satisfiable on some database? (Comparison consistency.)"""
    return ConstraintSet(q.comps).consistent()


# --------------------------------------------------------------------------
# Homomorphism search
# --------------------------------------------------------------------------


def _find_mapping(q1: CQ, q2: CQ, closure: ConstraintSet) -> dict[Var, Term] | None:
    """Backtracking search for a containment mapping q2 → q1."""
    # Pre-seed the mapping from the head alignment: h(q2.head[i]) must be
    # C1-equal to q1.head[i].
    mapping: dict[Var, Term] = {}
    for t2, t1 in zip(q2.head, q1.head):
        if isinstance(t2, Var):
            existing = mapping.get(t2)
            if existing is not None:
                if not closure.equal(existing, t1):
                    return None
            else:
                mapping[t2] = t1
        else:
            if not closure.equal(t2, t1):
                return None

    # Candidate atoms per q2 subgoal, bucketed by relation once (the seed
    # rescanned q1's whole body per subgoal per candidate); cheapest
    # bucket first. Bucket order preserves body order, so the search
    # visits the same candidates in the same sequence as before minus the
    # relation mismatches match_atom would have rejected.
    buckets: dict[str, list[Atom]] = {}
    for atom in q1.body:
        buckets.setdefault(atom.rel, []).append(atom)
    empty: list[Atom] = []
    order = sorted(
        range(len(q2.body)),
        key=lambda i: len(buckets.get(q2.body[i].rel, empty)),
    )

    def match_atom(atom2: Atom, atom1: Atom, env: dict[Var, Term]) -> dict[Var, Term] | None:
        if atom2.rel != atom1.rel or len(atom2.args) != len(atom1.args):
            return None
        extension: dict[Var, Term] = {}
        for arg2, arg1 in zip(atom2.args, atom1.args):
            if isinstance(arg2, Var):
                bound = env.get(arg2, extension.get(arg2))
                if bound is None:
                    extension[arg2] = arg1
                elif not closure.equal(bound, arg1):
                    return None
            else:
                # Constant or param on the container side must be matched
                # by a provably-equal term on the contained side.
                if not closure.equal(arg2, arg1):
                    return None
        return extension

    def search(position: int, env: dict[Var, Term]) -> dict[Var, Term] | None:
        if position == len(order):
            # Map any leftover variables (appearing only in comps/head of q2
            # but not in its body) — they are universally constrained, so a
            # mapping must exist for them too; default unmapped comp-only
            # vars fail unless the comps force nothing. We require all of
            # q2's comp variables to be mapped; unmapped ones mean q2 can
            # restrict values arbitrarily, so be conservative and fail.
            for comp in q2.comps:
                image = _image_comp(comp, env)
                if image is None or not closure.implies(image):
                    return None
            return env
        atom2 = q2.body[order[position]]
        for atom1 in buckets.get(atom2.rel, empty):
            extension = match_atom(atom2, atom1, env)
            if extension is None:
                continue
            env.update(extension)
            result = search(position + 1, env)
            if result is not None:
                return result
            for key in extension:
                del env[key]
        return None

    return search(0, mapping)


def _image_comp(comp: Comp, env: dict[Var, Term]) -> Comp | None:
    """Apply a partial mapping to a comparison; None if a var is unmapped."""

    def image(term: Term) -> Term | None:
        if isinstance(term, Var):
            return env.get(term)
        return term

    left = image(comp.left)
    right = image(comp.right)
    if left is None or right is None:
        return None
    return Comp(comp.op, left, right)
