"""The shared ``Connection`` contract, over every implementation.

``query()`` refuses a write *before* executing it (the last class below);
and the close contract, two clauses, uniform across backends:

* ``close()`` is idempotent — closing an already-closed connection is a
  no-op, never an error (so teardown paths can be sloppy about
  ownership without cascading failures);
* use-after-close refuses — any ``sql()``/``query()`` on a closed
  connection raises :class:`EngineError` mentioning "closed" instead of
  silently limping on over dead state.
"""

from __future__ import annotations

import pytest

from repro.enforce import DirectConnection, RowLevelSecurityProxy
from repro.engine import Connection
from repro.extract.miner import RecordingConnection
from repro.net import BackgroundServer, NetClientConnection, ServerConfig
from repro.serve import EnforcementGateway, GatewayConfig
from repro.util.errors import DbacError, EngineError
from repro.workloads import calendar_app
from tests.conftest import audit_decisions, reverify_audit

PROBE_SQL = "SELECT EId FROM Attendance WHERE UId = 1"


def make_db():
    return calendar_app.make_database(size=5, seed=3)


def make_database_connection():
    yield make_db()


def make_direct():
    yield DirectConnection(make_db())


def make_rls():
    app = calendar_app.make_app()
    yield RowLevelSecurityProxy(make_db(), app.rls_predicates, {"MyUId": 1})


def make_proxy():
    """The session an audited gateway opens for a bindings mapping; a
    template-free checker re-decides each of its decisions afterwards."""
    db, policy = make_db(), calendar_app.make_app().ground_truth_policy()
    gateway = EnforcementGateway(db, policy)
    records = audit_decisions(gateway)
    yield gateway.connect({"MyUId": 1})
    assert reverify_audit(records, {1: policy}, db) == []


def make_gateway_connection():
    app = calendar_app.make_app()
    gateway = EnforcementGateway(make_db(), app.ground_truth_policy(), GatewayConfig())
    yield gateway.connect(1)


def make_net_client():
    app = calendar_app.make_app()
    gateway = EnforcementGateway(make_db(), app.ground_truth_policy(), GatewayConfig())
    with BackgroundServer(gateway, ServerConfig(port=0)) as background:
        yield NetClientConnection(background.host, background.port, user=1)


FACTORIES = {
    "database": make_database_connection,
    "direct": make_direct,
    "rls": make_rls,
    "proxy": make_proxy,
    "gateway": make_gateway_connection,
    "net-client": make_net_client,
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def connection(request):
    yield from FACTORIES[request.param]()


class TestCloseContract:
    def test_satisfies_the_protocol(self, connection):
        assert isinstance(connection, Connection)

    def test_works_before_close(self, connection):
        assert connection.query(PROBE_SQL) is not None

    def test_double_close_is_a_no_op(self, connection):
        connection.close()
        connection.close()
        connection.close()

    def test_use_after_close_refuses_sql(self, connection):
        connection.close()
        with pytest.raises(EngineError, match="closed"):
            connection.sql(PROBE_SQL)

    def test_use_after_close_refuses_query(self, connection):
        connection.close()
        with pytest.raises(EngineError, match="closed"):
            connection.query(PROBE_SQL)

    def test_close_after_use_still_refuses(self, connection):
        connection.query(PROBE_SQL)
        connection.close()
        with pytest.raises(EngineError, match="closed"):
            connection.query(PROBE_SQL)


def make_recording():
    yield RecordingConnection(make_db())


#: Everything with a ``query()`` door — the miner's recording wrapper has
#: one too, though it has no ``close()`` and so is not a full Connection.
QUERY_FACTORIES = {**FACTORIES, "recording": make_recording}


class TestQueryRefusesWrites:
    @pytest.fixture(params=sorted(QUERY_FACTORIES), ids=sorted(QUERY_FACTORIES))
    def connection(self, request):
        yield from QUERY_FACTORIES[request.param]()

    def test_a_refused_write_is_not_executed(self, connection):
        """``query()`` is the SELECT-only door: handed a write it must
        raise *and* leave the row alone (in-process an ``EngineError``,
        over the wire the same refusal as ``ERROR/engine``)."""
        name = "SELECT Name FROM Users WHERE UId = 1"
        before = connection.query(name).rows
        assert before and before[0][0] != "x"
        with pytest.raises(DbacError, match="requires a SELECT"):
            connection.query("UPDATE Users SET Name = 'x' WHERE UId = 1")
        assert connection.query(name).rows == before
