"""Evaluating conjunctive queries over plain relational instances.

An *instance* is just ``dict[str, set[tuple]]`` — relation name to rows.
This is the representation frozen canonical databases, Monte-Carlo
samples, and counterexample candidates all share, so one evaluator serves
the PQI/NQI checkers, the Bayesian estimator, and counterexample
verification.

Answer terminology (§4.3): a row ``t`` is a *possible* answer to ``S``
if ``t ∈ S(D)`` for some instance ``D``, *certain* if for all, and
*impossible* if for none.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.relalg.constraints import const_cmp
from repro.relalg.cq import CQ, UCQ, Atom, Comp, Const, Term, Var

Instance = dict[str, set[tuple]]


def evaluate_cq(query: CQ, instance: Instance) -> set[tuple]:
    """All answer rows of ``query`` on ``instance`` (set semantics).

    Residual :class:`Param` terms are treated as rigid unknowns that match
    nothing — instantiate the query first.
    """
    rows: set[tuple] = set()
    for binding in _matches(query.body, query.comps, instance):
        rows.add(tuple(_value(term, binding) for term in query.head))
    return rows


def evaluate_ucq(query: UCQ, instance: Instance) -> set[tuple]:
    rows: set[tuple] = set()
    for disjunct in query.disjuncts:
        rows |= evaluate_cq(disjunct, instance)
    return rows


def view_image(view_cq: CQ, instance: Instance) -> frozenset[tuple]:
    """The contents of a view on an instance, as an immutable set."""
    return frozenset(evaluate_cq(view_cq, instance))


def images_of(views, instance: Instance) -> dict[str, frozenset[tuple]]:
    """Images of a collection of :class:`ViewDef`-likes, keyed by name."""
    return {view.name: view_image(view.cq, instance) for view in views}


def nonempty(query: CQ, instance: Instance) -> bool:
    """Does the query return at least one row? (Early-exit evaluation.)"""
    for _ in _matches(query.body, query.comps, instance):
        return True
    return False


# --------------------------------------------------------------------------
# Matching engine
# --------------------------------------------------------------------------


def _matches(
    body: tuple[Atom, ...],
    comps: tuple[Comp, ...],
    instance: Instance,
) -> Iterator[dict[Var, object]]:
    """Yield every satisfying assignment of the body over the instance."""
    # Order atoms smallest-relation-first for cheap pruning.
    order = sorted(range(len(body)), key=lambda i: len(instance.get(body[i].rel, ())))

    def check_comps(binding: dict[Var, object]) -> bool:
        for comp in comps:
            left = _value_or_none(comp.left, binding)
            right = _value_or_none(comp.right, binding)
            if left is _UNBOUND or right is _UNBOUND:
                continue  # defer until bound; final check below re-verifies
            if not const_cmp(comp.op, left, right):
                return False
        return True

    def extend(position: int, binding: dict[Var, object]) -> Iterator[dict[Var, object]]:
        if position == len(order):
            # All atoms matched; all comps are fully bound by now unless a
            # comp references a variable outside the body — treat such a
            # query as returning nothing (it is not range-restricted).
            for comp in comps:
                left = _value_or_none(comp.left, binding)
                right = _value_or_none(comp.right, binding)
                if left is _UNBOUND or right is _UNBOUND:
                    return
                if not const_cmp(comp.op, left, right):
                    return
            yield binding
            return
        atom = body[order[position]]
        for row in instance.get(atom.rel, ()):
            if len(row) != len(atom.args):
                continue
            extension: dict[Var, object] = {}
            ok = True
            for arg, value in zip(atom.args, row):
                if isinstance(arg, Const):
                    if arg.value != value:
                        ok = False
                        break
                elif isinstance(arg, Var):
                    bound = binding.get(arg, extension.get(arg, _UNBOUND))
                    if bound is _UNBOUND:
                        extension[arg] = value
                    elif bound != value:
                        ok = False
                        break
                else:  # Param: rigid unknown — matches nothing
                    ok = False
                    break
            if not ok:
                continue
            binding.update(extension)
            if check_comps(binding):
                yield from extend(position + 1, binding)
            for key in extension:
                del binding[key]

    yield from extend(0, {})


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _value(term: Term, binding: dict[Var, object]) -> object:
    value = _value_or_none(term, binding)
    if value is _UNBOUND:
        raise KeyError(f"unbound term {term!r} in head")
    return value


def _value_or_none(term: Term, binding: dict[Var, object]):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return binding.get(term, _UNBOUND)
    return _UNBOUND  # Param


# --------------------------------------------------------------------------
# Bounded instance enumeration (for semantics tests and tiny refutations)
# --------------------------------------------------------------------------


def enumerate_instances(
    arities: dict[str, int],
    domain: Iterable[object],
    max_rows: int,
) -> Iterator[Instance]:
    """All instances over ``domain`` with at most ``max_rows`` total rows.

    Exponential — usable only for tiny semantics checks in tests (e.g.
    verifying the PQI/NQI definitions against brute force).
    """
    domain = list(domain)
    all_tuples: list[tuple[str, tuple]] = []
    for rel, arity in sorted(arities.items()):
        all_tuples.extend((rel, combo) for combo in _product(domain, arity))

    def build(index: int, remaining: int, current: Instance) -> Iterator[Instance]:
        yield {rel: set(rows) for rel, rows in current.items()}
        if remaining == 0:
            return
        for next_index in range(index, len(all_tuples)):
            rel, row = all_tuples[next_index]
            current.setdefault(rel, set()).add(row)
            yield from build(next_index + 1, remaining - 1, current)
            current[rel].discard(row)

    base: Instance = {rel: set() for rel in arities}
    yield from build(0, max_rows, base)


def _product(domain: list, arity: int) -> Iterator[tuple]:
    if arity == 0:
        yield ()
        return
    for value in domain:
        for rest in _product(domain, arity - 1):
            yield (value, *rest)
