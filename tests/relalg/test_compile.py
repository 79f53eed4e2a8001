"""CompiledPolicy: the epoch-built compilation of a policy.

The compiled artifacts are pure accelerators — every test here pins a
piece of them to the generic path they replace: ``view_defs`` must
return exactly what ``Policy.view_defs`` returns (same views, same
order — rewriting enumeration is order-sensitive), ``relevant_relations``
must replicate the checker's reachability loop, and the bindings-keyed
memo must be invisible apart from its hit counters.
"""

from __future__ import annotations

import threading

import pytest

from repro.relalg.compile import CompiledPolicy, compile_policy
from repro.workloads import calendar_app, social


@pytest.fixture(scope="module")
def compiled() -> CompiledPolicy:
    return compile_policy(calendar_app.make_schema(), calendar_app.ground_truth_policy())


@pytest.fixture(scope="module")
def policy():
    return calendar_app.ground_truth_policy()


class TestViewDefs:
    def test_matches_policy_view_defs_exactly(self, compiled, policy):
        bindings = {"MyUId": 3}
        want = policy.view_defs(bindings)
        got = compiled.view_defs(bindings)
        assert [(v.name, v.cq) for v in got] == [(v.name, v.cq) for v in want]

    def test_order_is_policy_order(self, compiled, policy):
        names = [view.name for view in compiled.view_defs({"MyUId": 1})]
        conjunctive = [
            view.name for view in policy.views if view.is_conjunctive
        ]
        assert names == conjunctive

    def test_memo_hits_on_repeat_bindings(self, compiled):
        before = compiled.stats()["view_def_hits"]
        compiled.view_defs({"MyUId": 77})
        compiled.view_defs({"MyUId": 77})
        after = compiled.stats()["view_def_hits"]
        assert after >= before + 1

    def test_memo_returns_fresh_lists(self, compiled):
        first = compiled.view_defs({"MyUId": 5})
        second = compiled.view_defs({"MyUId": 5})
        assert first == second
        assert first is not second  # callers may mutate their copy
        first.clear()
        assert compiled.view_defs({"MyUId": 5}) == second

    def test_memo_is_bounded(self, compiled):
        from repro.relalg.compile import _VIEW_DEF_MEMO_SIZE

        for uid in range(_VIEW_DEF_MEMO_SIZE + 50):
            compiled.view_defs({"MyUId": 100000 + uid})
        assert len(compiled._view_def_memo) <= _VIEW_DEF_MEMO_SIZE

    def test_memo_is_thread_safe(self, compiled):
        errors = []

        def hammer(base):
            try:
                for i in range(200):
                    compiled.view_defs({"MyUId": base + (i % 17)})
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t * 1000,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestRelevantRelations:
    def reference(self, policy, bindings, query_relations):
        """The checker's pre-compile single-pass reachability loop."""
        views = policy.view_defs(bindings)
        relevant = set(query_relations)
        for view in views:
            rels = {atom.rel for atom in view.cq.body}
            if rels & relevant:
                relevant |= rels
        return relevant

    @pytest.mark.parametrize(
        "seeds",
        [
            {"Events"},
            {"Attendance"},
            {"Users"},
            {"Events", "Users"},
            {"NoSuchRel"},
            set(),
        ],
    )
    def test_replicates_checker_loop(self, compiled, policy, seeds):
        got = compiled.relevant_relations(set(seeds))
        want = self.reference(policy, {"MyUId": 1}, seeds)
        assert got == want

    def test_social_app_parity(self):
        policy = social.ground_truth_policy()
        compiled = compile_policy(social.make_schema(), policy)
        rel_names = {
            atom.rel
            for view in policy.views
            if view.is_conjunctive
            for atom in view.ucq.disjuncts[0].body
        }
        seed_sets = [{rel} for rel in sorted(rel_names)] + [set(rel_names)]
        for seeds in seed_sets:
            views = policy.view_defs({"MyUId": 1})
            relevant = set(seeds)
            for view in views:
                rels = {atom.rel for atom in view.cq.body}
                if rels & relevant:
                    relevant |= rels
            assert compiled.relevant_relations(set(seeds)) == relevant


class TestArtifacts:
    def test_view_constants_match_policy(self, compiled, policy):
        assert set(compiled.view_constants) == set(policy.constants())

    def test_build_is_timed_and_fingerprinted(self, compiled, policy):
        assert compiled.build_seconds >= 0.0
        assert compiled.fingerprint == policy.fingerprint()
        stats = compiled.stats()
        assert stats["views"] == len(compiled.views)
        assert stats["fingerprint"] == policy.fingerprint()
