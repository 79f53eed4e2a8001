"""Canonical ("frozen") database instances of conjunctive queries.

Freezing a CQ produces a concrete database in which the query returns its
frozen head — the classic canonical-database construction, extended to
honor comparison constraints by solving for a satisfying assignment of the
variables.

Used by counterexample generation (diagnosis) and by the bounded
refutation search in the PQI/NQI checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relalg.constraints import ConstraintSet
from repro.relalg.cq import CQ, Const, Param, Term, Var
from repro.util.errors import DbacError


@dataclass
class FrozenInstance:
    """A concrete instance: relation name → set of value tuples.

    ``assignment`` maps each variable of the source query to the concrete
    value chosen for it; ``head_row`` is the query's answer row on this
    instance.
    """

    facts: dict[str, set[tuple]]
    assignment: dict[Var, object]
    head_row: tuple

    def copy(self) -> "FrozenInstance":
        return FrozenInstance(
            facts={rel: set(rows) for rel, rows in self.facts.items()},
            assignment=dict(self.assignment),
            head_row=self.head_row,
        )


def freeze(
    query: CQ,
    param_values: dict[str, object] | None = None,
    value_base: int = 1000,
) -> FrozenInstance:
    """Build a canonical database on which ``query`` returns its head.

    Params still present in the query are assigned synthetic distinct
    values unless ``param_values`` provides them. Raises
    :class:`DbacError` if the query's comparisons are unsatisfiable (no
    canonical instance exists).
    """
    assignment = solve_assignment(query, param_values, value_base)
    if assignment is None:
        raise DbacError("cannot freeze an unsatisfiable query")

    def value_of(term: Term) -> object:
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            return assignment[term]
        if isinstance(term, Param):
            return assignment[Var(f"?{term.name}")]
        raise AssertionError(term)

    facts: dict[str, set[tuple]] = {}
    for atom in query.body:
        row = tuple(value_of(a) for a in atom.args)
        facts.setdefault(atom.rel, set()).add(row)
    head_row = tuple(value_of(t) for t in query.head)
    var_assignment = {v: assignment[v] for v in query.variables()}
    return FrozenInstance(facts=facts, assignment=var_assignment, head_row=head_row)


def solve_assignment(
    query: CQ,
    param_values: dict[str, object] | None = None,
    value_base: int = 1000,
) -> dict[Var, object] | None:
    """Find values for the query's variables satisfying its comparisons.

    Params are modeled as pseudo-variables named ``?<name>`` so the caller
    can pin them via ``param_values``. Returns None when unsatisfiable.

    The solver handles the fragment the rest of the package produces:
    equality classes with at most one constant, and order constraints over
    numeric values. Unconstrained classes get fresh, pairwise-distinct
    values (``value_base``, ``value_base + 10``, ...), which makes frozen
    instances "generic": distinct variables freeze to distinct values
    unless the constraints force otherwise.
    """
    param_values = param_values or {}
    comps = list(query.comps)
    # Rewrite params into pseudo-vars, pinning provided values.
    pseudo: dict[Param, Var] = {}

    def conv(term: Term) -> Term:
        if isinstance(term, Param):
            var = pseudo.setdefault(term, Var(f"?{term.name}"))
            return var
        return term

    from repro.relalg.cq import Comp  # local import to avoid cycle noise

    comps = [Comp(c.op, conv(c.left), conv(c.right)) for c in comps]
    variables: set[Var] = set()
    for term in query.head:
        converted = conv(term)
        if isinstance(converted, Var):
            variables.add(converted)
    for atom in query.body:
        for arg in atom.args:
            converted = conv(arg)
            if isinstance(converted, Var):
                variables.add(converted)
    for comp in comps:
        for term in (comp.left, comp.right):
            if isinstance(term, Var):
                variables.add(term)
    for param, var in pseudo.items():
        if param.name in param_values:
            comps.append(Comp("=", var, Const(param_values[param.name])))

    closure = ConstraintSet(comps)
    if not closure.consistent():
        return None

    # Group variables into equivalence classes.
    classes: dict[Term, list[Var]] = {}
    for var in sorted(variables, key=lambda v: v.name):
        classes.setdefault(closure.canon(var), []).append(var)

    assignment: dict[Var, object] = {}
    # Pass 1: classes whose representative is a constant.
    unvalued: list[Term] = []
    for rep, members in classes.items():
        if isinstance(rep, Const):
            for var in members:
                assignment[var] = rep.value
        else:
            unvalued.append(rep)

    # Pass 2: order the remaining classes topologically by the strict/
    # non-strict order constraints among them and against constants, then
    # assign numeric values respecting the bounds.
    ordered = _order_classes(closure, unvalued)
    if ordered is None:
        return None
    counter = 0
    values: dict[Term, object] = {}
    for rep in ordered:
        low, low_strict = _numeric_lower_bound(closure, rep, values)
        high, high_strict = _numeric_upper_bound(closure, rep, values)
        value = _pick_value(low, low_strict, high, high_strict, value_base + 10 * counter)
        if value is None:
            return None
        values[rep] = value
        counter += 1
    for rep, members in classes.items():
        if rep in values:
            for var in members:
                assignment[var] = values[rep]

    # Final verification against the original comparisons.
    verify = _verify(comps, assignment)
    if not verify:
        return None
    return assignment


def _order_classes(closure: ConstraintSet, reps: list[Term]) -> list[Term] | None:
    """Topologically order class representatives by implied ``<=``."""
    reps = list(reps)
    # Kahn's algorithm over implied <= among reps (small n; O(n^2) probes).
    remaining = set(reps)
    ordered: list[Term] = []
    while remaining:
        progressed = False
        for rep in sorted(remaining, key=repr):
            if all(
                other == rep or not closure._less_or_equal(other, rep)
                for other in remaining
                if other != rep
            ):
                ordered.append(rep)
                remaining.discard(rep)
                progressed = True
                break
        if not progressed:
            # <=-cycle among distinct classes: they must all be equal; give
            # them the same slot by breaking the tie arbitrarily.
            rep = sorted(remaining, key=repr)[0]
            ordered.append(rep)
            remaining.discard(rep)
    return ordered


def _numeric_lower_bound(closure: ConstraintSet, rep, values):
    """Tightest known numeric lower bound for ``rep`` (value, strict)."""
    best = (None, False)
    for other, value in values.items():
        if not isinstance(value, int | float):
            continue
        if closure._strictly_less(other, rep):
            if best[0] is None or value >= best[0]:
                best = (value, True)
        elif closure._less_or_equal(other, rep):
            if best[0] is None or value > best[0]:
                best = (value, False)
    for const in _const_terms(closure):
        if not isinstance(const.value, int | float):
            continue
        if closure._strictly_less(const, rep):
            if best[0] is None or const.value >= best[0]:
                best = (const.value, True)
        elif closure._less_or_equal(const, rep):
            if best[0] is None or const.value > best[0]:
                best = (const.value, False)
    return best


def _numeric_upper_bound(closure: ConstraintSet, rep, values):
    best = (None, False)
    for other, value in values.items():
        if not isinstance(value, int | float):
            continue
        if closure._strictly_less(rep, other):
            if best[0] is None or value <= best[0]:
                best = (value, True)
        elif closure._less_or_equal(rep, other):
            if best[0] is None or value < best[0]:
                best = (value, False)
    for const in _const_terms(closure):
        if not isinstance(const.value, int | float):
            continue
        if closure._strictly_less(rep, const):
            if best[0] is None or const.value <= best[0]:
                best = (const.value, True)
        elif closure._less_or_equal(rep, const):
            if best[0] is None or const.value < best[0]:
                best = (const.value, False)
    return best


def _const_terms(closure: ConstraintSet):
    for term in closure._terms:
        canon = closure.canon(term)
        if isinstance(canon, Const):
            yield canon


def _pick_value(low, low_strict, high, high_strict, default):
    """Choose a numeric value strictly inside the given bounds."""
    if low is None and high is None:
        return default
    if low is None:
        return high - 1 if not isinstance(high, float) else high - 1.0
    if high is None:
        return low + 1
    if low > high:
        return None
    if low == high:
        if low_strict or high_strict:
            return None
        return low
    mid = (low + high) / 2
    if mid == low or mid == high:  # float underflow guard
        return None
    # Prefer integers when they fit.
    candidate = int(mid)
    lower_ok = candidate > low or (candidate == low and not low_strict)
    upper_ok = candidate < high or (candidate == high and not high_strict)
    if lower_ok and upper_ok and candidate != low and candidate != high:
        return candidate
    return mid


def _verify(comps, assignment: dict[Var, object]) -> bool:
    from repro.relalg.constraints import const_cmp

    def value(term: Term):
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            return assignment.get(term)
        raise AssertionError(term)

    for comp in comps:
        left = value(comp.left)
        right = value(comp.right)
        if not const_cmp(comp.op, left, right):
            return False
    return True
