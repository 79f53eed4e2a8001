"""MiningService: audit tap → mine → shadow → gated promotion."""

from __future__ import annotations

import pytest

from repro.enforce.decision import PolicyViolation
from repro.mining import MinedCandidate, MiningError
from repro.mining import config as mining_config
from repro.policy.serialize import policy_to_text

from tests.conftest import reverify_audit
from tests.mining.conftest import make_mining_stack, without_view


def drive_attendance(gateway, eids):
    connection = gateway.connect(1)
    for eid in eids:
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")
    return connection


def seed_gap(gateway, manager, connection):
    """Traffic under v1 (full policy), then reload to v2 minus V2."""
    connection.query("SELECT * FROM Events WHERE EId = 2")  # V2-justified
    reduced = without_view(gateway.policy, "V2")
    manager.reload(reduced, label="gapped")
    for eid in range(1, 4):
        connection.query(f"SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {eid}")


def allows_flipped_by_active_policy(oracle, gateway, db) -> list:
    """The promotion oracle: every Allow audited so far, under whichever
    version, re-decided from scratch under the now-active policy."""
    allows = [entry.record for entry in oracle.drain() if entry.record.allowed]
    assert allows
    versions = {record.policy_version for record in allows}
    return reverify_audit(allows, dict.fromkeys(versions, gateway.policy), db)


class TestAutoPromote:
    def test_seeded_gap_is_mined_shadowed_and_promoted(self, calendar_pair):
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="auto_promote")
        oracle = service.stream.subscribe(cap=100_000)
        try:
            connection = drive_attendance(gateway, range(1, 6))
            seed_gap(gateway, manager, connection)
            with pytest.raises(PolicyViolation):
                connection.query("SELECT * FROM Events WHERE EId = 2")

            first = service.run_once()
            assert len(first["mined"]) == 1
            (fingerprint,) = first["mined"]
            assert service.candidates[fingerprint].status == "shadowing"
            assert gateway.shadow is not None

            # Fresh statements: cache hits still shadow-check, but fresh
            # shapes make the check count deterministic.
            drive_attendance(gateway, range(10, 18))
            second = service.run_once()
            assert second["progressed"]["action"] == "promoted"
            assert service.promoted == 1 and service.rejected == 0
            assert gateway.policy_version == 3
            assert gateway.policy.meta["provenance"] == "mined"
            # The gap is healed for live traffic.
            connection.query("SELECT * FROM Events WHERE EId = 2")
            actions = [entry["action"] for entry in service.disposition_audit()]
            assert actions == ["mined", "shadowing", "promoted"]
            assert allows_flipped_by_active_policy(oracle, gateway, db) == []
        finally:
            service.close()
            gateway.close()

    def test_unused_view_is_tightened_away(self, calendar_pair):
        """Traffic that never leans on a view: the miner proposes dropping
        it, the candidate shadows the same traffic without one divergence,
        is promoted, and no Allow ever audited flips under the result."""
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="auto_promote")
        oracle = service.stream.subscribe(cap=100_000)
        truth = gateway.policy

        def drive(eids):
            connection = drive_attendance(gateway, eids)
            for _ in eids:
                connection.query("SELECT Name FROM Users WHERE UId = 1")

        try:
            drive(range(1, 8))  # V1 and V3 only
            first = service.run_once()
            tightens = [service.candidates[f] for f in first["mined"]]
            assert tightens and {c.kind for c in tightens} == {"tighten"}
            # One shadow slot: the strongest candidate goes first.
            (shadowing,) = [c for c in tightens if c.status == "shadowing"]
            assert shadowing.view_name not in ("V1", "V3")

            drive(range(20, 30))
            assert gateway.shadow.drain()
            shadow = gateway.shadow.stats()
            assert shadow["checks"] >= 5 and shadow["divergences"] == 0
            second = service.run_once()
            assert second["progressed"]["action"] == "promoted"
            assert len(gateway.policy) == len(truth) - 1
            assert shadowing.view_name not in gateway.policy
            assert allows_flipped_by_active_policy(oracle, gateway, db) == []
        finally:
            service.close()
            gateway.close()

    def test_window_below_min_never_mines(self, calendar_pair, monkeypatch):
        monkeypatch.setattr(mining_config, "MIN_WINDOW", 64)
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="auto_promote")
        try:
            connection = drive_attendance(gateway, range(1, 6))
            seed_gap(gateway, manager, connection)
            assert service.run_once()["mined"] == []
        finally:
            service.close()
            gateway.close()


class TestProposeOnly:
    def test_candidates_park_until_operator_approval(self, calendar_pair):
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="propose_only")
        try:
            connection = drive_attendance(gateway, range(1, 6))
            seed_gap(gateway, manager, connection)
            (fingerprint,) = service.run_once()["mined"]
            candidate = service.candidates[fingerprint]
            assert candidate.status == "parked"
            assert "propose_only" in candidate.disposition
            assert gateway.shadow is None  # nothing auto-submitted

            service.approve(fingerprint)
            assert candidate.status == "shadowing"
            drive_attendance(gateway, range(10, 18))
            assert service.run_once()["progressed"]["action"] == "promoted"
            assert gateway.policy_version == 3
        finally:
            service.close()
            gateway.close()

    def test_approve_unknown_fingerprint_is_an_error(self, calendar_pair):
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="propose_only")
        try:
            with pytest.raises(MiningError, match="no mined candidate"):
                service.approve("feedfacedeadbeef")
        finally:
            service.close()
            gateway.close()


class TestRegressiveCandidates:
    def test_bad_tightening_is_rejected_with_diagnoses(self, calendar_pair):
        """A candidate that drops a view live traffic needs never goes live.

        propose_only keeps the post-rejection cycle from auto-submitting
        the next candidate, so the freed shadow slot stays observable.
        """
        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="propose_only")
        try:
            full = gateway.policy
            regressive = without_view(full, "V1")
            candidate = MinedCandidate(
                kind="tighten",
                policy=regressive,
                view_name="V1",
                view_sql="...",
                fingerprint=regressive.fingerprint(),
                support=1.0,
                confidence=1.0,
                window=(1, 1),
                examples=(),
                miner_fingerprint=service.config.fingerprint(),
                source_version=1,
            )
            service.submit(candidate)
            # Live traffic exercises V1: the candidate flips these allows
            # to blocks in shadow.
            drive_attendance(gateway, range(1, 9))
            progressed = service.run_once()["progressed"]
            assert progressed["action"] == "rejected"
            assert candidate.status == "rejected"
            assert candidate.diagnoses  # §5 diagnoses attached
            assert "allow" in candidate.disposition
            assert service.rejected == 1
            # Never reached the active epoch; shadow slot freed.
            assert gateway.policy_version == 1
            assert gateway.shadow is None
            rejected = [
                entry
                for entry in service.disposition_audit()
                if entry["action"] == "rejected"
            ]
            assert rejected and rejected[0]["diagnoses"]
        finally:
            service.close()
            gateway.close()


class TestPlumbing:
    def test_second_service_on_a_taken_audit_hook_is_refused(self, calendar_pair):
        from repro.mining.service import MiningService

        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db)
        try:
            with pytest.raises(MiningError, match="already taken"):
                MiningService(gateway, manager)
        finally:
            service.close()
            gateway.close()

    def test_status_and_candidates_are_wire_shaped(self, calendar_pair):
        import json

        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="propose_only")
        try:
            connection = drive_attendance(gateway, range(1, 6))
            seed_gap(gateway, manager, connection)
            service.run_once()
            status = service.status()
            assert status["mode"] == "propose_only"
            assert status["mined_total"] == 1
            json.dumps(status)  # STATS-able
            (candidate,) = service.candidates_wire()
            json.dumps(candidate)
            assert candidate["status"] == "parked"
            assert candidate["text"].startswith("# policy")
            # The manager's status document carries the miner section.
            assert manager.status()["mining"]["mined_total"] == 1
        finally:
            service.close()
            gateway.close()

    def test_background_loop_runs_cycles(self, calendar_pair):
        import time

        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(
            app, db, mode="propose_only", interval_s=0.05
        )
        try:
            service.start()
            deadline = time.time() + 5.0
            while service.cycles == 0 and time.time() < deadline:
                time.sleep(0.02)
            assert service.cycles > 0
            service.stop()
            settled = service.cycles
            time.sleep(0.2)
            assert service.cycles == settled  # loop actually stopped
        finally:
            service.close()
            gateway.close()

    def test_mined_policy_text_round_trips_to_the_same_fingerprint(
        self, calendar_pair
    ):
        from repro.policy.serialize import policy_from_text

        app, db = calendar_pair
        gateway, manager, service = make_mining_stack(app, db, mode="propose_only")
        try:
            connection = drive_attendance(gateway, range(1, 6))
            seed_gap(gateway, manager, connection)
            (fingerprint,) = service.run_once()["mined"]
            text = policy_to_text(service.candidates[fingerprint].policy)
            restored = policy_from_text(text, db.schema)
            assert restored.fingerprint() == fingerprint
            assert restored.meta["provenance"] == "mined"
        finally:
            service.close()
            gateway.close()
