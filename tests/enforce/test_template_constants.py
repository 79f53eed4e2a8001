"""A template replays a decision only where the checker would reach it.

Two ways a template used to answer where a fresh check Blocks, each a
read of rows the policy withholds from the requester:

* *One equality.* The store keyed slot values by type name, so a
  template learned from ``UId = 2.0`` by user 2 recorded no equality
  with ``MyUId = 2`` — which the proof used — and answered any other
  user's id. The store now keys by the checker's own equality
  (``repro.relalg.constraints.constant_key``).
* *The order between constants.* The closure orders every pair of
  comparable constants, so a proof can rest on ``32 >= 30`` for an
  ``=``-position slot. Where the statement or a policy view compares by
  order, a template now records the order pattern of its values.

Each case below compares the store's answer with a fresh gateway's.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.net import BackgroundServer, NetClientConnection, ServerConfig
from repro.policy import Policy, View
from repro.serve import EnforcementGateway, GatewayConfig
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app, employees

NAME_BY_ID = "SELECT Name FROM Users WHERE UId = ?"


def calendar_gateway() -> EnforcementGateway:
    return EnforcementGateway(
        calendar_app.make_database(), calendar_app.ground_truth_policy(), GatewayConfig()
    )


def decide(gateway: EnforcementGateway, user: object, sql: str, args) -> tuple[bool, bool]:
    """``(allowed, from_cache)`` of one statement in a new session of ``user``."""
    connection = gateway.connect({"MyUId": user})
    try:
        connection.sql(sql, args)
    except PolicyViolation as exc:
        return False, exc.decision.from_cache
    return True, connection.last_decision.from_cache


def fresh_verdict(make_gateway, user, sql, args) -> bool:
    return decide(make_gateway(), user, sql, args)[0]


class TestFloatLiteral:
    """User 2 reads their own name with ``UId = 2.0``; others then ask for
    someone else's name. Every later read is Blocked, as on a fresh gateway."""

    def test_in_process(self):
        gateway = calendar_gateway()
        assert decide(gateway, 2, NAME_BY_ID, [2.0]) == (True, False)
        for user, other in ((5, 3), (5, 1), (4, 2.0)):
            assert not fresh_verdict(calendar_gateway, user, NAME_BY_ID, [other])
            assert not decide(gateway, user, NAME_BY_ID, [other])[0]

    def test_over_the_wire(self):
        with BackgroundServer(calendar_gateway(), ServerConfig(port=0)) as server:

            def read(user, uid):
                client = NetClientConnection(server.host, server.port, user=user)
                try:
                    return client.sql(NAME_BY_ID, [uid]).rows
                finally:
                    client.close()

            assert read(2, 2.0) == [("bob",)]
            for user, other in ((4, 3), (7, 1)):
                with pytest.raises(PolicyViolation):
                    read(user, other)

    def test_reverse_order_allows_what_a_fresh_check_allows(self):
        # A Block learned from ``UId = 2 AND UId = '2'`` (2 and '2' are two
        # constants) does not answer ``UId = 2 AND UId = 2.0`` (one).
        sql = "SELECT Name FROM Users WHERE UId = ? AND UId = ?"
        gateway = calendar_gateway()
        assert decide(gateway, 2, sql, [2, "2"]) == (False, False)
        assert fresh_verdict(calendar_gateway, 2, sql, [2, 2.0])
        assert decide(gateway, 2, sql, [2, 2.0]) == (True, False)


class TestOrderBetweenConstants:
    def test_view_bound_decides_an_equality_slot(self):
        schema = employees.make_schema()
        policy = Policy(
            [View("Vover30", "SELECT Name, Age FROM Employees WHERE Age >= 30", schema)]
        )

        def make():
            return EnforcementGateway(employees.make_database(), policy, GatewayConfig())

        sql = "SELECT Name FROM Employees WHERE Age = ?"
        gateway = make()
        assert decide(gateway, 3, sql, [32]) == (True, False)
        assert not fresh_verdict(make, 2, sql, [18])
        assert decide(gateway, 2, sql, [18]) == (False, False)
        # Another value on the same side of the bound still replays.
        assert decide(gateway, 2, sql, [45]) == (True, True)

    def test_statement_orders_a_slot_against_a_pinned_one(self):
        sql = "SELECT Name FROM Users WHERE UId = ? AND UId < ?"
        gateway = calendar_gateway()
        assert decide(gateway, 5, sql, [5, 300]) == (True, False)
        assert not fresh_verdict(calendar_gateway, 400, sql, [400, 300])
        assert decide(gateway, 400, sql, [400, 300]) == (False, False)
        assert decide(gateway, 7, sql, [7, 300]) == (True, True)

    def test_view_orders_two_columns(self):
        schema = employees.make_schema()
        policy = Policy(
            [View("Vlt", "SELECT Name, EId, Age FROM Employees WHERE EId < Age", schema)]
        )

        def make():
            return EnforcementGateway(employees.make_database(), policy, GatewayConfig())

        sql = "SELECT Name FROM Employees WHERE EId = ? AND Age = ?"
        gateway = make()
        assert decide(gateway, 99, sql, [1, 30]) == (True, False)
        assert not fresh_verdict(make, 99, sql, [40, 30])
        assert decide(gateway, 99, sql, [40, 30]) == (False, False)


# --------------------------------------------------------------------------
# Property: on =-only skeletons, template replay is the bare checker
# --------------------------------------------------------------------------

LITERALS = [0, 1, 2, True, 1.0, 2.0, "1", "2", None]
SHAPES = [
    ("SELECT Name FROM Users WHERE UId = ?", 1),
    ("SELECT EId FROM Attendance WHERE UId = ?", 1),
    ("SELECT Name FROM Users WHERE UId = ? AND UId = ?", 2),
    ("SELECT EId FROM Attendance WHERE UId = ? AND EId = ?", 2),
    ("SELECT Title FROM Events WHERE EId = ?", 1),
]


@st.composite
def statements(draw):
    sql, holes = draw(st.sampled_from(SHAPES))
    args = [draw(st.sampled_from(LITERALS)) for _ in range(holes)]
    return draw(st.sampled_from([1, 2, 2.0, "2"])), sql, args


@pytest.fixture(scope="module")
def bare_checker():
    db = calendar_app.make_database(size=6, seed=3)
    return ComplianceChecker(db.schema, calendar_app.ground_truth_policy())


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(first=statements(), second=statements())
def test_template_replay_is_the_bare_checker(bare_checker, first, second):
    def bare(statement) -> bool:
        user, sql, args = statement
        bound = bind_parameters(parse_select(sql), args)
        return bare_checker.check(bound, {"MyUId": user}, Trace()).allowed

    for pair in ((first, second), (second, first)):
        gateway = EnforcementGateway(
            calendar_app.make_database(size=6, seed=3),
            calendar_app.ground_truth_policy(),
            GatewayConfig(),
        )
        for statement in pair:
            assert decide(gateway, *statement)[0] == bare(statement), pair
