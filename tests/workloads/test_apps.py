"""Workload-application invariants, parameterized over all four apps."""

import random

import pytest

from repro.enforce import PolicyViolation
from repro.serve import EnforcementGateway
from repro.workloads import calendar_app, employees, hospital, social
from repro.workloads.runner import AppRunner

ALL_APPS = [calendar_app, hospital, employees, social]


@pytest.fixture(params=ALL_APPS, ids=lambda m: m.make_app().name)
def app_and_db(request):
    app = request.param.make_app()
    db = app.make_database(app.default_size, 3)
    return app, db


class TestDataGeneration:
    def test_deterministic(self, app_and_db):
        app, _ = app_and_db
        a = app.make_database(10, 42)
        b = app.make_database(10, 42)
        assert a.relation_contents() == b.relation_contents()

    def test_seed_matters(self, app_and_db):
        app, _ = app_and_db
        a = app.make_database(10, 1)
        b = app.make_database(10, 2)
        assert a.relation_contents() != b.relation_contents()

    def test_size_scales(self, app_and_db):
        app, _ = app_and_db
        small = app.make_database(8, 1).total_rows()
        large = app.make_database(24, 1).total_rows()
        assert large > small


class TestCompliantWorkload:
    def test_direct_run_clean(self, app_and_db):
        app, db = app_and_db
        requests = app.request_stream(db, random.Random(7), 30)
        runner = AppRunner(app, db, mode="direct")
        outcomes = runner.run_all(requests)
        assert all(not o.blocked for o in outcomes)

    def test_zero_false_blocks_under_enforcement(self, app_and_db):
        """The headline E1 invariant: a compliant workload is never blocked."""
        app, db = app_and_db
        requests = app.request_stream(db, random.Random(7), 30)
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        runner = AppRunner(app, db, mode="gateway", gateway=gateway)
        outcomes = runner.run_all(requests)
        blocked = [o for o in outcomes if o.blocked]
        assert not blocked, blocked[0].block_reason if blocked else None

    def test_proxy_results_match_direct(self, app_and_db):
        app, db = app_and_db
        requests = app.request_stream(db, random.Random(9), 15)
        direct = AppRunner(app, db, mode="direct").run_all(requests)
        gateway = EnforcementGateway(db, app.ground_truth_policy())
        proxied = AppRunner(app, db, mode="gateway", gateway=gateway).run_all(requests)
        for d, p in zip(direct, proxied):
            if d.outcome is None or d.outcome.returned is None:
                continue
            assert p.outcome is not None
            assert p.outcome.returned.rows == d.outcome.returned.rows


class TestAttackWorkload:
    def test_all_attacks_blocked(self, app_and_db):
        """The other E1 invariant: zero false allows on the probes."""
        app, db = app_and_db
        policy = app.ground_truth_policy()
        proxy = EnforcementGateway(db, policy).connect(1)
        for sql, args in app.attack_queries(db, 1):
            with pytest.raises(PolicyViolation):
                proxy.query(sql, args)


class TestRlsBaseline:
    def test_rls_mode_runs(self, app_and_db):
        app, db = app_and_db
        if not app.rls_predicates:
            pytest.skip("app has no RLS predicates")
        requests = app.request_stream(db, random.Random(7), 10)
        runner = AppRunner(app, db, mode="rls")
        # RLS silently filters; some handlers may abort on empty results,
        # but nothing raises.
        outcomes = runner.run_all(requests)
        assert len(outcomes) == 10
