"""Property tests for the constraint closure: soundness via assignments.

If ``implies(c)`` is True, every concrete assignment satisfying the base
constraints must also satisfy ``c``; if ``consistent()`` is False, no
assignment may satisfy all base constraints. Assignments over a small
domain are enumerated exhaustively.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.relalg.constraints import ConstraintSet, const_cmp
from repro.relalg.cq import Comp, Const, Var

VARS = [Var("x"), Var("y"), Var("z")]
DOMAIN = [0, 1, 2]


def terms():
    return st.one_of(
        st.sampled_from(VARS),
        st.sampled_from([Const(v) for v in DOMAIN]),
    )


def comps():
    return st.builds(
        lambda op, l, r: Comp(op, l, r),
        st.sampled_from(["=", "!=", "<", "<="]),
        terms(),
        terms(),
    )


def satisfying_assignments(base):
    """All assignments over DOMAIN satisfying every comp in base."""
    for combo in itertools.product(DOMAIN, repeat=len(VARS)):
        assignment = dict(zip(VARS, combo))

        def value(term):
            return assignment[term] if isinstance(term, Var) else term.value

        if all(const_cmp(c.op, value(c.left), value(c.right)) for c in base):
            yield assignment


@given(st.lists(comps(), min_size=0, max_size=4))
@settings(max_examples=300, deadline=None)
def test_inconsistent_means_unsatisfiable(base):
    closure = ConstraintSet(base)
    if not closure.consistent():
        assert not list(satisfying_assignments(base)), base


@given(st.lists(comps(), min_size=0, max_size=3), comps())
@settings(max_examples=300, deadline=None)
def test_implication_soundness(base, candidate):
    closure = ConstraintSet(base)
    if not closure.consistent():
        return
    if closure.implies(candidate):
        for assignment in satisfying_assignments(base):

            def value(term):
                return assignment[term] if isinstance(term, Var) else term.value

            assert const_cmp(
                candidate.op, value(candidate.left), value(candidate.right)
            ), (base, candidate, assignment)


@given(st.lists(comps(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_every_base_comp_implied(base):
    closure = ConstraintSet(base)
    if closure.consistent():
        for comp in base:
            assert closure.implies(comp), (base, comp)
