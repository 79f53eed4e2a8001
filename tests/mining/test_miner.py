"""AuditMiner: gap-filling and tightening candidates from audit windows."""

from __future__ import annotations

import random

from repro.enforce.decision import PolicyViolation
from repro.mining import AuditMiner, AuditStream, MiningConfig
from repro.mining import config as mining_config
from repro.mining.miner import reconcile_by_fingerprint
from repro.policy.serialize import policy_from_text, policy_to_text
from repro.serve import EnforcementGateway, GatewayConfig

from tests.mining.conftest import without_view


def build_gap_window(app, db, gap_view="V2"):
    """Drive traffic under the full policy, reload minus ``gap_view``,
    and return (gateway, window, reduced_policy). The window holds
    v1-audited allows the reduced (current) policy cannot re-derive."""
    full = app.ground_truth_policy()
    gateway = EnforcementGateway(db, full, GatewayConfig())
    stream = AuditStream()
    gateway.decision_audit = stream
    subscription = stream.subscribe(cap=1024)
    connection = gateway.connect(1)
    for eid in range(1, 6):
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    connection.query("SELECT * FROM Events WHERE EId = 2")  # V2-justified
    reduced = without_view(full, gap_view)
    from repro.lifecycle.reload import hot_reload

    hot_reload(gateway, reduced, version=2, provenance="hand-written")
    for eid in range(1, 4):
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    return gateway, subscription.drain(), reduced


class TestGapFilling:
    def test_underivable_allow_yields_a_gap_candidate(self, calendar_pair):
        app, db = calendar_pair
        gateway, window, reduced = build_gap_window(app, db)
        try:
            miner = AuditMiner(db)
            report = miner.mine(reduced, 2, window)
            assert report.underivable_allows == 1
            gaps = [c for c in report.candidates if c.kind == "gap-fill"]
            assert len(gaps) == 1
            candidate = gaps[0]
            assert candidate.view_name == "G1"
            assert "Events" in candidate.view_sql
            assert candidate.source_version == 2
            assert 0.0 < candidate.support <= 1.0
            assert candidate.confidence == 1.0  # re-derives its own evidence
            assert candidate.examples  # decision ids evidencing the gap
            # The candidate keeps every current view plus the mined one.
            assert len(candidate.policy) == len(reduced) + 1
        finally:
            gateway.close()

    def test_candidate_policy_rederives_the_gapped_query(self, calendar_pair):
        app, db = calendar_pair
        gateway, window, reduced = build_gap_window(app, db)
        gateway.close()
        miner = AuditMiner(db)
        (candidate,) = [
            c for c in miner.mine(reduced, 2, window).candidates
            if c.kind == "gap-fill"
        ]
        verifier = EnforcementGateway(db, candidate.policy, GatewayConfig())
        try:
            connection = verifier.connect(1)
            connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            connection.query("SELECT * FROM Events WHERE EId = 2")  # healed
        finally:
            verifier.close()

    def test_current_version_allows_are_never_gaps(self, calendar_pair):
        app, db = calendar_pair
        full = app.ground_truth_policy()
        gateway = EnforcementGateway(db, full, GatewayConfig())
        try:
            stream = AuditStream()
            gateway.decision_audit = stream
            subscription = stream.subscribe(cap=1024)
            connection = gateway.connect(1)
            for eid in range(1, 9):
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            report = AuditMiner(db).mine(
                full, 1, subscription.drain()
            )
            assert report.underivable_allows == 0
            assert not [c for c in report.candidates if c.kind == "gap-fill"]
        finally:
            gateway.close()

    def test_provenance_annotations_survive_text_round_trip(self, calendar_pair):
        app, db = calendar_pair
        gateway, window, reduced = build_gap_window(app, db)
        gateway.close()
        (candidate,) = [
            c
            for c in AuditMiner(db)
            .mine(reduced, 2, window)
            .candidates
            if c.kind == "gap-fill"
        ]
        meta = candidate.policy.meta
        assert meta["provenance"] == "mined"
        assert meta["kind"] == "gap-fill"
        assert meta["miner"] == MiningConfig().fingerprint()
        assert ".." in meta["window"] and meta["examples"]
        restored = policy_from_text(policy_to_text(candidate.policy), db.schema)
        assert restored.meta == meta
        assert restored.fingerprint() == candidate.fingerprint


class TestTightening:
    def test_unexercised_view_yields_a_tighten_candidate(self, calendar_pair, monkeypatch):
        monkeypatch.setattr(mining_config, "MAX_CANDIDATES_PER_CYCLE", 8)
        app, db = calendar_pair
        full = app.ground_truth_policy()
        gateway = EnforcementGateway(db, full, GatewayConfig())
        try:
            stream = AuditStream()
            gateway.decision_audit = stream
            subscription = stream.subscribe(cap=1024)
            connection = gateway.connect(1)
            # Only V1-justified traffic: V2/V3/V4 never appear in any
            # allow's justification.
            for eid in range(1, 11):
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            report = AuditMiner(db).mine(full, 1, subscription.drain())
            tightens = {c.view_name: c for c in report.candidates if c.kind == "tighten"}
            assert "V1" not in tightens  # exercised by every allow
            assert set(tightens) == {"V2", "V3", "V4"}
            candidate = tightens["V2"]
            assert candidate.confidence == 1.0
            assert len(candidate.policy) == len(full) - 1
            assert candidate.policy.meta["kind"] == "tighten"
        finally:
            gateway.close()

    def test_quiet_window_proposes_no_tightening(self, calendar_pair, monkeypatch):
        """Too little current-version traffic is no evidence of disuse."""
        monkeypatch.setattr(mining_config, "MIN_WINDOW", 8)
        app, db = calendar_pair
        full = app.ground_truth_policy()
        gateway = EnforcementGateway(db, full, GatewayConfig())
        try:
            stream = AuditStream()
            gateway.decision_audit = stream
            subscription = stream.subscribe(cap=1024)
            connection = gateway.connect(1)
            connection.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 1")
            report = AuditMiner(db).mine(full, 1, subscription.drain())
            assert not [c for c in report.candidates if c.kind == "tighten"]
        finally:
            gateway.close()

    def test_blocks_never_count_as_exercise(self, calendar_pair, monkeypatch):
        monkeypatch.setattr(mining_config, "MAX_CANDIDATES_PER_CYCLE", 8)
        app, db = calendar_pair
        full = app.ground_truth_policy()
        gateway = EnforcementGateway(db, full, GatewayConfig())
        try:
            stream = AuditStream()
            gateway.decision_audit = stream
            subscription = stream.subscribe(cap=1024)
            connection = gateway.connect(1)
            for eid in range(1, 9):
                connection.query(
                    f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}"
                )
            try:
                connection.query("SELECT * FROM Users WHERE UId = 99")
            except PolicyViolation:
                pass
            report = AuditMiner(db).mine(full, 1, subscription.drain())
            assert report.blocks == 1
            names = {c.view_name for c in report.candidates if c.kind == "tighten"}
            assert "V3" in names  # the blocked Users probe exercised nothing
        finally:
            gateway.close()


class TestDeterminism:
    def test_shuffled_window_mines_byte_identical_candidates(
        self, calendar_pair, monkeypatch
    ):
        monkeypatch.setattr(mining_config, "MAX_CANDIDATES_PER_CYCLE", 8)
        app, db = calendar_pair
        gateway, window, reduced = build_gap_window(app, db)
        gateway.close()
        miner = AuditMiner(db)
        baseline = miner.mine(reduced, 2, list(window)).candidates
        assert baseline
        rng = random.Random(7)
        for _ in range(3):
            shuffled = list(window)
            rng.shuffle(shuffled)
            again = miner.mine(reduced, 2, shuffled).candidates
            assert [c.fingerprint for c in again] == [
                c.fingerprint for c in baseline
            ]
            assert [policy_to_text(c.policy) for c in again] == [
                policy_to_text(c.policy) for c in baseline
            ]


class TestReconciliation:
    def test_same_fingerprint_merges_across_shards(self):
        shard0 = [
            {"fingerprint": "abc", "kind": "gap-fill", "support": 0.10,
             "confidence": 1.0, "status": "parked", "examples": [1, 2]},
        ]
        shard1 = [
            {"fingerprint": "abc", "kind": "gap-fill", "support": 0.25,
             "confidence": 0.9, "status": "shadowing", "examples": [3]},
            {"fingerprint": "def", "kind": "tighten", "support": 0.05,
             "confidence": 1.0, "status": "parked", "examples": []},
        ]
        merged = reconcile_by_fingerprint([shard0, shard1])
        assert [entry["fingerprint"] for entry in merged] == ["abc", "def"]
        strongest = merged[0]
        assert strongest["support"] == 0.25  # headline = strongest shard
        assert strongest["status"] == "shadowing"
        assert strongest["examples"] == [1, 2, 3]  # union of evidence
        assert [s["shard"] for s in strongest["shards"]] == [0, 1]
        assert merged[1]["shards"][0]["shard"] == 1
