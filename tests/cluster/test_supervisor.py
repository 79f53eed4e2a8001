"""BackgroundCluster: real shard subprocesses behind a real router.

Kept deliberately small (tiny database, two shards); fleet throughput
is the ``cluster_hit`` workload of ``bench/run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import (
    BackgroundCluster,
    ClusterConfig,
    ShardProcess,
    shard_index_for,
    supervisor,
)
from repro.enforce.decision import PolicyViolation
from repro.net import AdminClient, NetClientConnection
from repro.policy import policy_to_text
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway
from repro.workloads import calendar_app

from tests.conftest import reverify_audit


def keys_of(value) -> set[str]:
    """Every dict key anywhere inside a (JSON-shaped) STATS reply."""
    if isinstance(value, dict):
        return set(value).union(*(keys_of(inner) for inner in value.values()))
    if isinstance(value, list):
        return set().union(*(keys_of(inner) for inner in value))
    return set()


def read_audits(paths) -> list[dict]:
    """Every decision line of the shards' JSONL audit logs."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


class TestBackgroundCluster:
    def test_two_shard_cluster_serves_and_aggregates(self, tmp_path):
        config = ClusterConfig(
            app="calendar", shards=2, size=8, audit_dir=str(tmp_path)
        )
        with BackgroundCluster(config) as cluster:
            # Sessions land on the shard the hash predicts, end to end
            # through subprocess boundaries.
            for uid in (1, 2, 3):
                connection = NetClientConnection("127.0.0.1", cluster.port, user=uid)
                assert connection.server_shard_id == shard_index_for(
                    {"MyUId": uid}, 2
                )
                result = connection.query(
                    "SELECT EId FROM Attendance WHERE UId = ?", [uid]
                )
                assert result.columns == ["EId"]
                connection.close()

            admin = AdminClient("127.0.0.1", cluster.port)
            stats = admin.stats()
            admin.close()
            assert stats["cluster"]["shard_count"] == 2
            assert stats["policy"]["consistent"] is True
            assert stats["gateway"]["counters"]["decisions_allowed"] >= 3

            audit_paths = cluster.audit_paths()
            assert len(audit_paths) == 2

        # After shutdown the audit logs are complete, parseable JSONL,
        # and every decision is stamped with its shard.
        records = read_audits(audit_paths)
        assert len(records) >= 3
        assert {record["shard"] for record in records} <= {0, 1}
        assert all(record["allowed"] is True for record in records)

    def test_every_shard_derives_its_own_decisions(self):
        """Shards share nothing: the same statement shape from principals
        homed on different shards is checked — and compiled into a
        template — once per shard, and what the fleet decides is what one
        gateway over the same data decides."""
        size, shards = 8, 2
        users = {shard_index_for({"MyUId": uid}, shards): uid for uid in (4, 3, 2, 1)}
        assert sorted(users) == [0, 1]
        blocked = ("SELECT Title FROM Events WHERE EId = ?", [2])  # empty trace
        statements = [
            blocked,
            blocked,  # served by the shard's own compiled Block template
            ("SELECT EId FROM Attendance WHERE UId = ?", None),  # args: [uid]
            ("SELECT Name FROM Users WHERE UId = ?", None),
        ]

        def decisions(connect):
            verdicts = []
            for uid in users.values():
                connection = connect(uid)
                for sql, args in statements:
                    try:
                        connection.query(sql, args or [uid])
                        verdicts.append((uid, sql, True))
                    except PolicyViolation:
                        verdicts.append((uid, sql, False))
                connection.close()
            return verdicts

        with BackgroundCluster(
            ClusterConfig(app="calendar", shards=shards, size=size)
        ) as cluster:
            fleet = decisions(
                lambda uid: NetClientConnection("127.0.0.1", cluster.port, user=uid)
            )
            per_shard = []
            for shard in cluster.shards:
                with AdminClient("127.0.0.1", shard.port) as admin:
                    per_shard.append(admin.stats())
            with AdminClient("127.0.0.1", cluster.port) as admin:
                merged = admin.stats()

        app = calendar_app.make_app()
        gateway = EnforcementGateway(
            app.make_database(size, ClusterConfig(app="calendar").seed),
            app.ground_truth_policy(),
        )
        try:
            assert fleet == decisions(lambda uid: gateway.connect(uid))
        finally:
            gateway.close()
        assert [allowed for _, _, allowed in fleet] == [False, False, True, True] * shards
        for shard_id, stats in enumerate(per_shard):
            assert stats["shard_id"] == shard_id
            # Nobody handed this shard a template: it paid a check per shape.
            assert stats["gateway"]["counters"]["compile_misses"] >= 3
            assert stats["gateway"]["counters"]["compiled_hits"] >= 1
        assert merged["gateway"]["counters"]["compiled_hits"] >= shards
        assert not {
            key for key in keys_of([merged, *per_shard]) if key.startswith("exchange_")
        }

    def test_rolling_reload_under_prepared_traffic_is_torn_free(self, tmp_path):
        """A real fleet, reloaded shard by shard under load: every decision
        a shard audited re-verifies against a fresh checker for the policy
        version it claims, while the handles prepared before the first swap
        keep executing across every swap."""
        size = 8
        app = calendar_app.make_app()
        db = app.make_database(size, ClusterConfig(app="calendar").seed)
        truth = app.ground_truth_policy()
        reduced = Policy([v for v in truth.views if v.name != "V2"], name="minus-V2")
        users = (1, 2, 3)
        # An event each user attends: its Events row is allowed under the
        # full policy once the attendance is in the trace, and blocked
        # without V2 — a decision stamped with the wrong version would flip.
        attended = {
            uid: db.query("SELECT EId FROM Attendance WHERE UId = ?", [uid]).rows[0][0]
            for uid in users
        }
        config = ClusterConfig(
            app="calendar", shards=2, size=size, audit_dir=str(tmp_path)
        )
        stop = threading.Event()
        errors: list = []
        executes = dict.fromkeys(users, 0)
        handles: dict[int, set[int]] = {uid: set() for uid in users}

        def traffic(uid: int, port: int) -> None:
            try:
                connection = NetClientConnection("127.0.0.1", port, user=uid)
                prepared = connection.prepare("SELECT EId FROM Attendance WHERE UId = ?")
                while not stop.is_set():
                    connection.execute(prepared, [uid])
                    handles[uid].add(prepared.handle)
                    executes[uid] += 1
                    try:
                        connection.query(
                            f"SELECT * FROM Events WHERE EId = {attended[uid]}"
                        )
                    except PolicyViolation:
                        pass
                connection.close()
            except Exception as exc:  # pragma: no cover - asserted below
                errors.append(exc)

        def await_progress() -> None:
            """Every session executes through its handle at least twice, so
            each reload finds live handles of the version it retires."""
            floor = {uid: count + 2 for uid, count in executes.items()}
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not errors:
                if all(executes[uid] >= floor[uid] for uid in users):
                    return
                time.sleep(0.005)
            raise AssertionError(f"traffic stalled: {executes}, errors {errors}")

        policies = {1: truth}
        with BackgroundCluster(config) as cluster:
            threads = [
                threading.Thread(target=traffic, args=(uid, cluster.port))
                for uid in users
            ]
            for thread in threads:
                thread.start()
            try:
                with AdminClient("127.0.0.1", cluster.port, timeout_s=30.0) as admin:
                    for version in (2, 3, 4):
                        await_progress()
                        policies[version] = reduced if version % 2 == 0 else truth
                        report = admin.reload(policy_to_text(policies[version]))
                        assert report["new_version"] == version
                    after_last_reload = dict(executes)
                    await_progress()
                    net_counters = admin.stats()["net"]["counters"]
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            audit_paths = cluster.audit_paths()

        assert not errors
        # Each session's one handle, prepared under v1, ran after v4 landed.
        assert all(len(used) == 1 for used in handles.values())
        assert all(executes[uid] > after_last_reload[uid] for uid in users)
        assert net_counters["statements_prepared"] == len(users)
        records = read_audits(audit_paths)
        assert {record["policy_version"] for record in records} == {1, 2, 3, 4}
        assert {record["allowed"] for record in records} == {True, False}
        assert reverify_audit(records, policies, db) == []

    def test_db_path_serves_one_sqlite_file(self, tmp_path):
        """``backend="sqlite", db_path=F`` is the whole shared-file story:
        shards start one at a time, shard 0 seeds ``F``, shard 1 finds the
        rows and seeds nothing."""
        shared = str(tmp_path / "fleet.db")
        size = 8
        config = ClusterConfig(
            app="calendar", shards=2, size=size, backend="sqlite", db_path=shared
        )
        with BackgroundCluster(config) as cluster:
            for uid in (1, 2):
                connection = NetClientConnection("127.0.0.1", cluster.port, user=uid)
                result = connection.query(
                    "SELECT EId FROM Attendance WHERE UId = ?", [uid]
                )
                assert result.columns == ["EId"]
                connection.close()
            backends = []
            for shard in cluster.shards:
                with AdminClient("127.0.0.1", shard.port) as admin:
                    backends.append(admin.stats()["backend"])
            with AdminClient("127.0.0.1", cluster.port) as admin:
                stats = admin.stats()
        assert backends == [{"name": "sqlite", "path": shared}] * 2
        import sqlite3

        conn = sqlite3.connect(shared)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        rows = conn.execute("SELECT COUNT(*) FROM Users").fetchone()[0]
        conn.close()
        assert rows == size  # seeded exactly once
        assert stats["cluster"]["shard_count"] == 2


class TestShardProcess:
    def test_silent_child_times_out_and_is_reaped(self, monkeypatch):
        """``READY_TIMEOUT_S`` bounds the wait even when the child never
        prints a byte, and the child does not outlive the failure."""
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(supervisor.subprocess, "Popen", recording_popen)
        monkeypatch.setattr(supervisor, "READY_TIMEOUT_S", 0.5)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="did not become ready in 0.5s"):
            ShardProcess(0, [sys.executable, "-c", "import time; time.sleep(60)"])
        assert time.monotonic() - started < 5.0
        assert len(spawned) == 1 and spawned[0].poll() is not None

    def test_child_that_exits_before_ready_is_reported(self):
        with pytest.raises(RuntimeError, match=r"exited \(code 3\).*'boom"):
            ShardProcess(0, [sys.executable, "-c", "print('boom'); raise SystemExit(3)"])
