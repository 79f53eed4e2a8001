"""Property test: a template carried across a reload answers as a fresh
check under the new policy would.

Two calendar sessions send Example 2.1's guard and fetch, a blocked
probe, the hit stream's other statements and identity writes, and send
them again after each reload. The gateway reloads among the ground-truth
policy, the policy minus each view, the policy with its views reordered,
and the policy plus the view ``repro diagnose`` proposes for the probe.
The sessions probe the epoch's store, and every hit, Allow or Block, is
re-checked on the spot by ``verify_cached_decisions``. No hit may
disagree with its re-check, and a template-free checker for the version
each decision claims must reach every audited verdict.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diagnose.report import diagnose
from repro.enforce import PolicyViolation
from repro.lifecycle import hot_reload
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app
from tests.conftest import reverify_audit

USERS = (1, 2)
#: User 1 attends 7, user 2 attends 1 and 2 (size 6, seed 3).
EVENTS = (7, 1, 2)
#: Blocked under the ground truth; ``diagnose`` proposes a view that
#: allows the ``5`` probe and not the ``1000`` one.
PROBE = "SELECT Title FROM Events WHERE Time > ?"
READS = (
    # Example 2.1: Q1 (the guard, about the sender's own row), then Q2.
    ("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", "me, event"),
    ("SELECT * FROM Events WHERE EId = ?", "event"),
    (PROBE, "threshold"),
    # The rest of the hit stream.
    ("SELECT EId FROM Attendance WHERE UId = ?", "me"),
    (
        "SELECT u.UId, u.Name FROM Attendance a JOIN Users u ON u.UId = a.UId"
        " WHERE a.EId = ?",
        "event",
    ),
    ("SELECT * FROM Users WHERE UId = ?", "me"),
)
WRITES = (
    ("UPDATE Users SET Name = Name WHERE UId = ?", "me"),
    ("UPDATE Attendance SET EId = EId WHERE UId = ?", "me"),
    ("UPDATE Events SET Title = Title WHERE EId = ?", "event"),
)
CONFIGS = (GatewayConfig(verify_cached_decisions=True),)


@pytest.fixture(scope="module")
def database():
    db = calendar_app.make_database(size=6, seed=3)
    return db, db.snapshot()


@pytest.fixture(scope="module")
def policies(database) -> list[Policy]:
    db, _ = database
    truth = calendar_app.ground_truth_policy()
    names = [view.name for view in truth]
    (patch,) = diagnose(
        db.parse(PROBE.replace("?", "5")), {"MyUId": 1}, truth, db.schema
    ).policy_patches
    return [
        truth,
        *(
            Policy([view for view in truth if view.name != drop], name=f"minus-{drop}")
            for drop in names
        ),
        Policy([truth.view(name) for name in reversed(names)], name="reordered"),
        patch.apply(truth),
    ]


def steps(policy_count: int):
    def statement(template, user, event, threshold):
        values = {"me": user, "event": event, "threshold": threshold}
        return user, template[0], [values[name] for name in template[1].split(", ")]

    statements = st.builds(
        statement,
        st.sampled_from(READS + READS + WRITES),
        st.sampled_from(USERS),
        st.sampled_from(EVENTS),
        st.sampled_from((5, 1000)),
    )
    reloads = st.tuples(st.just("reload"), st.integers(0, policy_count - 1))
    # The same traffic before and after every reload: what a reload
    # carries is only exercised by the shapes sent again.
    return st.tuples(
        st.lists(statements, min_size=1, max_size=8),
        st.lists(reloads, min_size=1, max_size=3),
    ).map(
        lambda parts: parts[0]
        + [step for reload in parts[1] for step in (reload, *parts[0])]
    )


def test_carried_answers_are_fresh_answers(database, policies):
    db, snapshot = database
    carried: list[int] = []

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def run(data):
        plan = data.draw(steps(len(policies)))
        for config in CONFIGS:
            db.restore(snapshot)
            gateway = EnforcementGateway(db, policies[0], config)
            audits: list = []
            gateway.decision_audit = audits.append
            sessions = {user: gateway.connect(user) for user in USERS}
            by_version = {1: policies[0]}
            try:
                for step in plan:
                    if step[0] == "reload":
                        version = len(by_version) + 1
                        by_version[version] = policies[step[1]]
                        report = hot_reload(gateway, by_version[version], version)
                        carried.append(report.templates_carried)
                        continue
                    user, sql, args = step
                    try:
                        sessions[user].sql(sql, args)
                    except PolicyViolation:
                        pass
                assert gateway.metrics.counter("cache_disagreements") == 0
                assert reverify_audit(audits, by_version, db) == [], plan
            finally:
                gateway.close()

    run()
    assert sum(carried) > 0
