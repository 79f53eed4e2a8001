"""Property test: the audit miner is a function of window *content*.

Mining runs against an audit window that arrives in whatever order the
serving tier interleaved sessions — and in a cluster, in whatever order
shards are polled. Promotion gates and cross-shard reconciliation both
key on candidate fingerprints, so the miner must produce byte-identical
candidates (same fingerprints, same serialized policies, same order) for
any permutation of the same window. This file pins that with generated
permutations; the deterministic spot-check lives in
``tests/mining/test_miner.py``.
"""

from __future__ import annotations

import contextlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lifecycle.reload import hot_reload
from repro.mining import AuditMiner, AuditStream
from repro.mining import config as mining_config
from repro.policy import policy_to_text
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app

_FIXTURE: dict | None = None


@contextlib.contextmanager
def wide_miner():
    """Mine from 4 audit entries and keep up to 8 candidates a pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining_config, "MIN_WINDOW", 4)
        patch.setattr(mining_config, "MAX_CANDIDATES_PER_CYCLE", 8)
        yield


def window_fixture() -> dict:
    """One audited traffic window with both candidate kinds latent in it:
    a gap (V2-justified allow predating a minus-V2 reload) and unused
    views. Built once — the property only permutes it."""
    global _FIXTURE
    if _FIXTURE is not None:
        return _FIXTURE
    app = calendar_app.make_app()
    db = app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    full = app.ground_truth_policy()
    gateway = EnforcementGateway(db, full, GatewayConfig())
    stream = AuditStream()
    gateway.decision_audit = stream
    subscription = stream.subscribe(cap=1024)
    connection = gateway.connect(1)
    for eid in range(1, 6):
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    connection.query("SELECT * FROM Events WHERE EId = 2")
    reduced = Policy([v for v in full.views if v.name != "V2"], name="minus-V2")
    hot_reload(gateway, reduced, version=2, provenance="hand-written")
    for eid in range(1, 4):
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    window = subscription.drain()
    gateway.close()
    miner = AuditMiner(db)
    with wide_miner():
        baseline = miner.mine(reduced, 2, window).candidates
    assert baseline  # the fixture must have something to permute
    _FIXTURE = {
        "miner": miner,
        "reduced": reduced,
        "window": window,
        "fingerprints": [c.fingerprint for c in baseline],
        "texts": [policy_to_text(c.policy) for c in baseline],
    }
    return _FIXTURE


class TestMinerDeterminism:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_ingest_order_mines_byte_identical_candidates(self, data):
        fx = window_fixture()
        shuffled = data.draw(st.permutations(fx["window"]))
        with wide_miner():
            report = fx["miner"].mine(fx["reduced"], 2, shuffled)
            # Mining the permutation again is idempotent: the miner holds
            # no state between passes that could leak into candidate content.
            again = fx["miner"].mine(fx["reduced"], 2, shuffled)
        assert [c.fingerprint for c in report.candidates] == fx["fingerprints"]
        assert [policy_to_text(c.policy) for c in report.candidates] == fx["texts"]
        assert [c.fingerprint for c in again.candidates] == fx["fingerprints"]
