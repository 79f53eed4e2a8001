"""Property tests for the constraint closure: soundness via assignments.

If ``implies(c)`` is True, every concrete assignment satisfying the base
constraints must also satisfy ``c``; if ``consistent()`` is False, no
assignment may satisfy all base constraints. Assignments over a small
domain are enumerated exhaustively.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.relalg.constraints import ConstraintSet, const_cmp
from repro.relalg.cq import Comp, Const, Param, Var

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


# --------------------------------------------------------------------------
# admits: extending a built closure answers as rebuilding it would
# --------------------------------------------------------------------------

#: Variables the base never mentions: an extension may use each once
#: (unconstrained) or twice (then it constrains).
FRESH = [Var("w1"), Var("w2")]
MIXED = [Const(v) for v in (0, 1, 2, 1.0, 2.0, True, "1", "a", None)]
PARAMS = [Param("p"), Param("q")]


def extension_terms():
    return st.one_of(
        st.sampled_from(VARS),
        st.sampled_from(FRESH),
        st.sampled_from(MIXED),
        st.sampled_from(PARAMS),
    )


def extension_comps():
    return st.builds(
        Comp,
        st.sampled_from(["=", "=", "!=", "<", "<="]),
        extension_terms(),
        extension_terms(),
    )


X, Y = VARS[0], VARS[1]
W = FRESH[0]
NULL = Const(None)


@given(
    st.lists(st.one_of(comps(), extension_comps()), max_size=4),
    st.lists(extension_comps(), max_size=4),
)
# An equality two order paths prove is not absorbed: the rebuild meets
# the != between the merged classes.
@example(
    base=[Comp("<=", X, Y), Comp("<=", Y, X), Comp("!=", X, Y)],
    extension=[Comp("=", X, Y)],
)
# An order comparison on NULL is implied by reflexivity, yet never holds.
@example(base=[Comp("=", X, NULL)], extension=[Comp("<=", X, NULL)])
# A fresh variable used twice is constrained.
@example(base=[], extension=[Comp("=", W, Const(0)), Comp("=", W, Const(1))])
@settings(max_examples=1500, deadline=None)
def test_admits_equals_rebuilding(base, extension):
    base = [c for c in base if not any(t in FRESH for t in (c.left, c.right))]
    closure = ConstraintSet(base)
    expected = ConstraintSet(base + extension).consistent()
    assert closure.admits(extension) == expected, (base, extension)
