"""Property tests: the indexed DecisionCache is observably the seed cache.

The discrimination index (see ``repro.enforce.cache``) is a pure
lookup accelerator — it must never change what the cache answers.
``SeedReferenceCache`` below preserves the pre-index implementation
verbatim (linear scan over every template under a key, linear scan over
every key on invalidation, linear scan over ``trace.facts`` for every
fact pattern); the hypothesis property drives arbitrary interleavings of
store / lookup / invalidate_table through both and demands identical
decisions, hit/miss counters, eviction counts, and sizes at every step.
Both read the same :class:`~repro.enforce.trace.Trace`, the real cache
through its fact index: the property is also index-probe versus linear
scan of the witnesses, ``True``/``1`` collisions included.

Also here: how the store tells ``True`` from ``1``. It does not, by
value: the equality pattern uses the checker's one equality
(``constant_key``), under which they are one constant. A bound boolean
stays inline in the skeleton, so the two statements have different
skeletons.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce.cache import (
    DecisionCache,
    _equality_partition,
    _fact_matches,
    _Template,
)
from repro.enforce.decision import Decision
from repro.enforce.trace import Trace
from repro.relalg.constraints import constant_key
from repro.relalg.cq import Atom, Const, Var
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.sqlir.printer import to_sql
from repro.sqlir.skeleton import skeletonize
from repro.workloads import calendar_app


class SeedReferenceCache:
    """The pre-index DecisionCache, preserved as the behavioral oracle.

    Linear scan over all templates under a skeleton key on lookup,
    linear scan over *all* skeleton keys on invalidation — exactly the
    seed implementation this PR replaced. Shares the generalization
    helpers (``_equality_partition`` etc.) with the real cache so the
    comparison isolates the indexing change.
    """

    def __init__(self, policy):
        self._templates: dict[object, list[_Template]] = {}
        self._view_constants = policy.constants()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, stmt, bindings, trace):
        skeleton = skeletonize(stmt)
        candidates = self._templates.get(skeleton.statement, ())
        param_items = sorted(bindings.items())
        for template in candidates:
            witnesses = self._witnesses(template, skeleton, param_items, trace)
            if witnesses is not None:
                self.hits += 1
                return Decision(
                    allowed=True,
                    sql=to_sql(stmt),
                    reason=template.reason,
                    from_cache=True,
                    facts_used=tuple(witnesses),
                )
        self.misses += 1
        return None

    def _witnesses(self, template, skeleton, param_items, trace):
        """The first matching fact of the trace per fact pattern, or None
        when the template does not answer."""
        for index, value in template.pinned:
            if skeleton.values[index] != value:
                return None
        if (
            _equality_partition(skeleton.values, param_items, skeleton.inline)
            != template.equality_pattern
        ):
            return None
        if not template.fact_patterns:
            return []
        if trace is None:
            return None
        params = dict(param_items)
        witnesses = []
        for rel, pattern_args in template.fact_patterns:
            witness = next(
                (
                    fact
                    for fact in trace.facts
                    if _fact_matches(fact, rel, pattern_args, skeleton.values, params)
                ),
                None,
            )
            if witness is None:
                return None
            witnesses.append(witness)
        return witnesses

    def store(self, stmt, bindings, decision):
        if not decision.allowed or decision.from_cache:
            return
        skeleton = skeletonize(stmt)
        param_items = sorted(bindings.items())
        pinned = []
        for index, value in enumerate(skeleton.values):
            if not skeleton.generalizable[index] or value in self._view_constants:
                pinned.append((index, value))
        fact_patterns = []
        tables = {ref.name for ref in stmt.tables()}
        for fact in decision.facts_used:
            fact_patterns.append((fact.rel, self._seed_pattern_of(fact, skeleton.values, param_items)))
            tables.add(fact.rel)
        template = _Template(
            skeleton_key=skeleton.statement,
            pinned=tuple(pinned),
            equality_pattern=_equality_partition(
                skeleton.values, param_items, skeleton.inline
            ),
            fact_patterns=tuple(fact_patterns),
            reason=decision.reason + " [template]",
            tables=frozenset(tables),
        )
        bucket = self._templates.setdefault(skeleton.statement, [])
        # The store skips exact duplicates (two sessions that missed on
        # one shape at once may generalize the same decision); the oracle
        # mirrors that so size stays comparable.
        if template not in bucket:
            bucket.append(template)

    @staticmethod
    def _seed_pattern_of(fact, values, param_items):
        from repro.enforce.trace import is_labeled_null

        params = {name: value for name, value in param_items}
        pattern = []
        for arg in fact.args:
            if is_labeled_null(arg):
                pattern.append(("any", None))
                continue
            if isinstance(arg, Const):
                slot = next(
                    (
                        i
                        for i, v in enumerate(values)
                        if constant_key(v) == constant_key(arg.value)
                    ),
                    None,
                )
                if slot is not None:
                    pattern.append(("slot", slot))
                    continue
                param_name = next(
                    (
                        name
                        for name, value in params.items()
                        if constant_key(value) == constant_key(arg.value)
                    ),
                    None,
                )
                if param_name is not None:
                    pattern.append(("param", param_name))
                    continue
                pattern.append(("const", arg.value))
                continue
            pattern.append(("any", None))
        return tuple(pattern)

    def invalidate_table(self, table):
        evicted = 0
        for key in list(self._templates):
            templates = self._templates[key]
            kept = [t for t in templates if table not in t.tables]
            if len(kept) == len(templates):
                continue
            evicted += len(templates) - len(kept)
            if kept:
                self._templates[key] = kept
            else:
                del self._templates[key]
        self.invalidations += evicted
        return evicted

    @property
    def size(self):
        return sum(len(templates) for templates in self._templates.values())


# --------------------------------------------------------------------------
# Scenario generation
# --------------------------------------------------------------------------

SHAPES = [
    "SELECT EId FROM Attendance WHERE UId = ?",
    "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
    "SELECT * FROM Events WHERE EId = ?",
    "SELECT Title, Loc FROM Events WHERE EId = ?",
    "SELECT Name FROM Users WHERE UId = ?",
]
HOLES = [1, 2, 1, 1, 1]
TABLES = ["Attendance", "Events", "Users", "Unrelated"]

# Values chosen to stress the equality machinery: 0/1 vs False/True hash
# alike, strings collide with nothing.
values = st.sampled_from([0, 1, 2, 3, True, False, "a", "b"])


#: A fact argument the session never learned: a labeled null in a stored
#: fact, an ``any`` position in the pattern generalized from it (which the
#: cache answers by scanning the relation, not by one probe).
UNKNOWN = Var("\x00ln1")
fact_values = st.one_of(values, st.just(UNKNOWN))


def fact_atoms(pairs):
    return tuple(
        Atom("Attendance", tuple(v if v is UNKNOWN else Const(v) for v in pair))
        for pair in pairs
    )


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["store", "store", "lookup", "lookup", "invalidate"]))
        if kind == "invalidate":
            ops.append(("invalidate", draw(st.sampled_from(TABLES))))
            continue
        shape = draw(st.integers(min_value=0, max_value=len(SHAPES) - 1))
        args = [draw(values) for _ in range(HOLES[shape])]
        user = draw(values)
        facts = draw(st.lists(st.tuples(fact_values, fact_values), max_size=3))
        if kind == "store":
            allowed = draw(st.booleans())
            ops.append(("store", shape, args, user, facts, allowed))
        else:
            ops.append(("lookup", shape, args, user, facts))
    return ops


@pytest.fixture(scope="module")
def policy():
    return calendar_app.ground_truth_policy()


def normalized(decision):
    """A hit decision with timing scrubbed (the only legitimate delta)."""
    if decision is None:
        return None
    return replace(decision, duration_s=0.0)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(ops=operations())
def test_indexed_cache_is_observably_the_seed_cache(ops, policy):
    indexed = DecisionCache(policy)
    reference = SeedReferenceCache(policy)
    for op in ops:
        if op[0] == "invalidate":
            _, table = op
            assert indexed.invalidate_table(table) == reference.invalidate_table(table)
        elif op[0] == "store":
            _, shape, args, user, facts, allowed = op
            stmt = bind_parameters(parse_select(SHAPES[shape]), args)
            decision = Decision(
                allowed=allowed,
                sql=to_sql(stmt),
                reason="fuzzed",
                facts_used=fact_atoms(facts),
            )
            indexed.store(stmt, {"MyUId": user}, decision)
            reference.store(stmt, {"MyUId": user}, decision)
        else:
            _, shape, args, user, facts = op
            stmt = bind_parameters(parse_select(SHAPES[shape]), args)
            trace = Trace.from_facts(fact_atoms(facts))
            got = indexed.lookup(stmt, {"MyUId": user}, trace)
            want = reference.lookup(stmt, {"MyUId": user}, trace)
            assert normalized(got) == normalized(want)
        assert indexed.size == reference.size
        assert indexed.hits == reference.hits
        assert indexed.misses == reference.misses
        assert indexed.invalidations == reference.invalidations


# --------------------------------------------------------------------------
# bool-vs-int regression
# --------------------------------------------------------------------------


class TestBoolIntDistinctness:
    def test_partition_uses_checker_equality(self):
        # Const(True) == Const(1) == Const(1.0) in the closure, so a proof
        # may use those equalities and the partition must record them.
        # (Each value is labelled with the position of the first equal one.)
        assert _equality_partition((True, 1), []) == (0, 0)
        assert _equality_partition((1, 1.0), []) == (0, 0)
        assert _equality_partition((False, 0), []) == (0, 0)
        assert _equality_partition((1, "1"), []) == (0, 1)
        # Params participate under the same key rule.
        assert _equality_partition((2.0,), [("MyUId", 2)]) == (0, ("MyUId", 0))
        assert _equality_partition(("2",), [("MyUId", 2)]) == (0, ("MyUId", 1))
        # And so do the fixed constants, with negative labels.
        assert _equality_partition((True, 2), [], (1,)) == (-1, 1)

    def test_lookup_distinguishes_bool_from_int_instantiations(self):
        policy = calendar_app.ground_truth_policy()
        indexed = DecisionCache(policy)
        reference = SeedReferenceCache(policy)
        sql = "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?"
        stored = bind_parameters(parse_select(sql), [1, 1])
        decision = Decision(allowed=True, sql=to_sql(stored), reason="r")
        for cache in (indexed, reference):
            cache.store(stored, {"MyUId": 1}, decision)
        # (True, 1) induces a different partition than (1, 1): must miss,
        # identically in both implementations.
        probe = bind_parameters(parse_select(sql), [True, 1])
        assert indexed.lookup(probe, {"MyUId": 1}, None) is None
        assert reference.lookup(probe, {"MyUId": 1}, None) is None
