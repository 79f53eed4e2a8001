"""CLI tests: each subcommand through main(argv)."""

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _gateway_config, build_parser, main
from repro.policy import policy_from_text
from repro.serve import GatewayConfig
from repro.workloads import calendar_app


class TestDemo:
    def test_demo_succeeds(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Q1 -> ALLOW" in out
        assert "BLOCK" in out


class TestExtract:
    def test_symbolic_extract(self, capsys):
        assert main(["extract", "--app", "calendar", "--method", "symbolic"]) == 0
        out = capsys.readouterr().out
        assert "?MyUId" in out
        assert "precision=1.00 recall=1.00" in out

    def test_mined_extract(self, capsys):
        assert (
            main(
                [
                    "extract",
                    "--app",
                    "calendar",
                    "--method",
                    "mine",
                    "--traces",
                    "60",
                    "--size",
                    "12",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "observed 60 traces" in out

    def test_extract_writes_loadable_policy(self, tmp_path, capsys):
        out_file = tmp_path / "policy.txt"
        assert (
            main(
                [
                    "extract",
                    "--app",
                    "calendar",
                    "--method",
                    "symbolic",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        schema = calendar_app.make_schema()
        policy = policy_from_text(out_file.read_text(), schema)
        assert len(policy) >= 4


class TestEnforce:
    def test_allow_and_block(self, capsys):
        code = main(
            [
                "enforce",
                "--app",
                "calendar",
                "--user",
                "1",
                "--sql",
                "SELECT EId FROM Attendance WHERE UId = 1",
                "--sql",
                "SELECT * FROM Events",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ALLOW" in out
        assert "BLOCK" in out


class TestAudit:
    def test_hospital_audit_detects_nqi(self, capsys):
        code = main(
            [
                "audit",
                "--app",
                "hospital",
                "--sensitive",
                "SELECT Disease FROM PatientConditions WHERE PId = 1",
                "--constraints",
            ]
        )
        assert code == 1  # disclosure found
        out = capsys.readouterr().out
        assert "NQI holds" in out

    def test_clean_audit_exits_zero(self, capsys):
        code = main(
            [
                "audit",
                "--app",
                "hospital",
                "--sensitive",
                "SELECT Disease FROM PatientConditions WHERE PId = 1",
            ]
        )
        assert code == 0
        assert "no NQI witness" in capsys.readouterr().out

    def test_bad_sensitive_query(self, capsys):
        code = main(
            ["audit", "--app", "hospital", "--sensitive", "SELECT nope FROM nowhere"]
        )
        assert code == 2

    def test_union_sensitive_query_is_refused_not_truncated(self, capsys):
        code = main(
            [
                "audit",
                "--app",
                "hospital",
                "--sensitive",
                "SELECT Disease FROM PatientConditions"
                " WHERE Disease = 'flu' OR PId = 1",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "union of 2 conjunctive queries" in captured.err
        assert "PQI" not in captured.out and "NQI" not in captured.out


class TestDiagnose:
    def test_diagnosis_prints_patches(self, capsys):
        code = main(
            [
                "diagnose",
                "--app",
                "calendar",
                "--user",
                "1",
                "--sql",
                "SELECT * FROM Events WHERE EId = 2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "access-check patch" in out
        assert "counterexample" in out


class TestPolicyDiff:
    def test_identical_policies_are_exact(self, tmp_path, capsys):
        from repro.policy import policy_to_text

        policy_file = tmp_path / "policy.txt"
        policy_file.write_text(policy_to_text(calendar_app.ground_truth_policy()))
        code = main(
            ["policy-diff", "--app", "calendar", str(policy_file), "ground-truth"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=1.000 recall=1.000 exact=True" in out
        assert "V2: covered" in out

    def test_lost_view_fails_with_nonzero_exit(self, tmp_path, capsys):
        from repro.policy import policy_to_text
        from repro.policy.policy import Policy

        truth = calendar_app.ground_truth_policy()
        reduced = Policy([v for v in truth.views if v.name != "V2"], name="minus-V2")
        policy_file = tmp_path / "reduced.txt"
        policy_file.write_text(policy_to_text(reduced))
        code = main(
            ["policy-diff", "--app", "calendar", str(policy_file), "ground-truth"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "recall=0.750" in out
        assert "V2: NOT covered" in out


class TestParser:
    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["extract", "--app", "nope"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_gateway_flags_are_the_same_on_every_subcommand(self, command, capsys):
        """Only the backend is a gateway flag: every epoch compiles, owns
        one store its sessions probe, and batches its misses."""
        argv = [command, "--app", "calendar"]
        parser = build_parser()
        assert _gateway_config(parser.parse_args(argv)) == GatewayConfig()
        config = _gateway_config(
            parser.parse_args([*argv, "--backend", "sqlite", "--db-path", "f.db"])
        )
        assert config == GatewayConfig(backend="sqlite", db_path="f.db")
        for flags in (["--cache", "none"], ["--no-compile"], ["--no-batch"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, *flags])
            assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--request-timeout", "0"),
            ("--idle-timeout", "0"),
            ("--idle-timeout", "-1"),
            ("--mine-interval", "0"),
            ("--mine-interval", "nan"),
        ],
    )
    def test_serve_refuses_a_timeout_or_interval_that_is_not_positive(
        self, flag, value, capsys
    ):
        """argparse refuses it with a usage message and exit 2, before
        any gateway, socket or mining thread exists."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--app", "calendar", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {flag}: must be > 0, got {value}" in err

    def test_mine_interval_zero_is_a_usage_error_not_a_traceback(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--app", "calendar", "--port", "0", "--mine", "--mine-interval", "0"])
        assert exit_info.value.code == 2
        assert "argument --mine-interval: must be > 0" in capsys.readouterr().err

    def test_there_is_no_shard_subcommand(self, capsys):
        """A shard is ``repro serve --shard-id N``; nothing else runs one."""
        with pytest.raises(SystemExit) as exit_info:
            main(["shard", "--app", "calendar", "--shard-id", "0"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["serve", "--app", "calendar", "--shard-id", "3", "--audit-log", "f.jsonl"]
        )
        assert (args.shard_id, args.audit_log) == (3, "f.jsonl")


def serve_subprocess(port: int, *flags: str) -> subprocess.Popen:
    """``python -m repro serve --port <port>`` with stdout+stderr captured."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--app", "calendar",
         "--size", "10", "--port", str(port), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


class ServeProcess:
    """``repro serve --port 0`` as a subprocess; ``port`` is parsed from
    its ready line."""

    def __init__(self, *flags: str):
        self.process = serve_subprocess(0, *flags)
        assert self.process.stdout is not None
        ready = self.process.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", ready)
        assert match, f"no ready line: {ready!r}"
        self.port = int(match.group(1))

    def wait(self) -> tuple[int, str]:
        """After a signal: (exit status, the rest of stdout)."""
        output, _ = self.process.communicate(timeout=15.0)
        return self.process.returncode, output

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


class TestServeSignals:
    def test_sigterm_drains_a_busy_server(self):
        """SIGTERM is what every supervisor sends: the statement in flight
        finishes and is answered, then BYE, the drain summary, exit 0."""
        from repro.net import NetClientConnection, protocol

        server = ServeProcess()
        try:
            connection = NetClientConnection("127.0.0.1", server.port, user=1)
            sock = connection._sock
            burst, count = bytearray(), 3000
            for request_id in range(1, count + 1):
                protocol.encode_frame_into(
                    {
                        "type": protocol.QUERY,
                        "id": request_id,
                        "sql": "SELECT EId FROM Attendance WHERE UId = ?",
                        "args": [1],
                    },
                    burst,
                )
            sock.sendall(burst)  # most of a second of work, all in flight
            answered = []
            while True:
                reply = protocol.read_frame(sock)
                if reply["type"] == protocol.BYE:
                    break
                assert reply["id"] == len(answered) + 1
                answered.append(reply.get("code", reply["type"]))
                if len(answered) == 1:
                    # The first replies leave at the 64 KiB flush, a third
                    # of the way in: the server is mid-burst for certain.
                    server.process.terminate()
            sock.close()
            assert reply == {"type": protocol.BYE, "reason": "shutting down"}
            # A gap-free prefix of what was sent: results up to the drain
            # (the statement in flight when the signal landed included),
            # then refusals for what the server had already received.
            results = answered.count(protocol.RESULT)
            assert results >= 1
            assert answered == [protocol.RESULT] * results + [
                protocol.ERR_SHUTTING_DOWN
            ] * (len(answered) - results)
            status, output = server.wait()
            assert status == 0
            assert "drained; net counters:" in output
        finally:
            server.kill()

    def test_sigterm_stops_an_idle_server_promptly(self):
        server = ServeProcess()
        try:
            started = time.monotonic()
            server.process.terminate()
            status, output = server.wait()
            assert status == 0
            assert "drained; net counters:" in output
            assert time.monotonic() - started < 5.0
        finally:
            server.kill()

    def test_failed_bind_does_not_report_a_drain(self):
        """A supervisor that watches for ``drained`` must not read a server
        that never started as one that drained cleanly."""
        with socket.create_server(("127.0.0.1", 0)) as taken:
            process = serve_subprocess(taken.getsockname()[1])
            try:
                output, _ = process.communicate(timeout=30.0)
            finally:
                process.kill()  # only matters if it unexpectedly serves
        assert process.returncode != 0
        assert "Address already in use" in output
        assert "drained" not in output
        assert "listening on" not in output


def listening_ports_of_group(pgid: int) -> set[int]:
    """TCP ports that some process of group ``pgid`` listens on (/proc)."""
    port_of_inode = {}
    with open("/proc/net/tcp", encoding="ascii") as handle:
        next(handle)
        for line in handle:
            fields = line.split()
            if fields[3] == "0A":  # TCP_LISTEN
                port_of_inode[fields[9]] = int(fields[1].rsplit(":", 1)[1], 16)
    ports = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getpgid(int(pid)) != pgid:
                continue
            for fd in os.listdir(f"/proc/{pid}/fd"):
                link = os.readlink(f"/proc/{pid}/fd/{fd}")
                if link.startswith("socket:[") and link[8:-1] in port_of_inode:
                    ports.add(port_of_inode[link[8:-1]])
        except OSError:
            continue  # the process (or the fd) went away while we looked
    return ports


class TestServeAsAShard:
    def test_shard_id_and_audit_log_on_plain_serve(self, tmp_path):
        """What ``repro cluster`` spawns per shard: ``repro serve`` told its
        shard id and where to log decisions. With ``--mine`` the miner
        subscribes to that same stream instead of opening a second one."""
        from repro.enforce.decision import PolicyViolation
        from repro.enforce.trace import fact_from_wire, fact_to_wire
        from repro.net import AdminClient, NetClientConnection

        log = tmp_path / "f.jsonl"
        server = ServeProcess("--shard-id", "3", "--audit-log", str(log), "--mine")
        try:
            connection = NetClientConnection("127.0.0.1", server.port, user=1)
            assert connection.server_shard_id == 3
            with pytest.raises(PolicyViolation):
                connection.query("SELECT COUNT(*) FROM Events")
            attended = connection.query(
                "SELECT EId FROM Attendance WHERE UId = ?", [1]
            )
            connection.query("SELECT * FROM Events WHERE EId = ?", [attended.rows[0][0]])
            connection.close()
            with AdminClient("127.0.0.1", server.port) as admin:
                stats = admin.stats()
                stream = admin.mine_status()["stream"]
            assert stats["shard_id"] == 3
            counters = stats["gateway"]["counters"]
            assert counters["audit_subscribers"] == 1
            assert counters["audit_records"] == counters["audit_sink_records"] == 3
            assert (stream["records"], stream["sink_records"]) == (3, 3)
            server.process.terminate()
            status, _ = server.wait()
            assert status == 0
        finally:
            server.kill()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [record["allowed"] for record in records] == [False, True, True]
        assert {record["shard"] for record in records} == {3}
        assert {record["policy_version"] for record in records} == {1}
        assert any(record["facts"] for record in records)
        for record in records:
            for fact in record["facts"]:
                assert fact_to_wire(fact_from_wire(fact)) == fact


class TestClusterSignals:
    def test_sigterm_to_the_cluster_drains_the_whole_fleet(self):
        """SIGTERM to the ``repro cluster`` pid alone — what systemd and
        docker send — stops the router *and* every shard subprocess: exit
        0, and nothing of its process group is left running. While up, the
        fleet listens on the router port and one port per shard, nothing
        else: there is no side channel between shards to write to."""
        src = Path(__file__).resolve().parents[1] / "src"
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "cluster", "--app", "calendar",
             "--size", "10", "--shards", "2", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            start_new_session=True,  # its own process group: pgid == pid
        )
        try:
            assert process.stdout is not None
            ready = ""
            while "drains the fleet" not in ready:
                line = process.stdout.readline()
                assert line, f"cluster exited before it was ready: {ready!r}"
                ready += line
            shard_ports = re.search(r"\(ports (\d+), (\d+)\)", ready)
            assert shard_ports, ready
            for port in shard_ports.groups():  # both shards are really up
                socket.create_connection(("127.0.0.1", int(port)), timeout=5.0).close()
            router_port = re.search(r"router listening on [\d.]+:(\d+)", ready)
            assert router_port, ready
            assert listening_ports_of_group(process.pid) == {
                int(port) for port in (*shard_ports.groups(), router_port.group(1))
            }
            os.kill(process.pid, signal.SIGTERM)
            process.communicate(timeout=30.0)
            assert process.returncode == 0
            with pytest.raises(ProcessLookupError):
                os.killpg(process.pid, 0)  # no member of the group survives
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=5.0)
            process.stdout.close()
