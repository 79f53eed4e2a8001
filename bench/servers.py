"""``repro serve`` / ``repro cluster`` as subprocesses that cannot hang a run.

Each server is started with ``--port 0`` in its own process group; the
port is read from its ready line with a timeout; at the end the whole
group gets SIGTERM (then SIGKILL), is waited for, and the group is
checked to be empty, so neither the server nor a cluster's shard
processes outlive the benchmark.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")
_SHARD_PORTS = re.compile(r"\(ports ([\d, ]+)\)")


class ServerError(RuntimeError):
    """The server subprocess did not come up (or died early)."""


def _group_members(pgid: int) -> list[int]:
    """Pids of live, non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                # comm may contain spaces/parens; fields resume after the last ')'.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class ServerProcess:
    """One ``python -m repro serve|cluster`` subprocess on a free port."""

    def __init__(self, kind: str, app: str, size: int, seed: int):
        argv = [
            sys.executable, "-u", "-m", "repro", kind,
            "--app", app, "--size", str(size), "--seed", str(seed),
            "--host", "127.0.0.1", "--port", "0",
        ]
        if kind == "cluster":
            argv += ["--shards", "2"]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED="0")
        self.host = "127.0.0.1"
        self.port = 0
        self.shard_ports: list[int] = []
        self._process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        self._pgid = self._process.pid
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        assert self._process.stdout is not None
        fd = self._process.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen = ""
        while True:
            match = _LISTENING.search(seen)
            if match and seen.endswith("\n"):
                self.port = int(match.group(2))
                ports = _SHARD_PORTS.search(seen)
                if ports:
                    self.shard_ports = [int(p) for p in ports.group(1).split(",")]
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(f"server not ready in {READY_TIMEOUT_S}s: {seen!r}")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 65536)
                if not chunk:
                    code = self._process.wait()
                    raise ServerError(f"server exited with {code} before ready: {seen!r}")
                seen += chunk.decode(errors="replace")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of every process of this server."""
        total_kb = 0
        for pid in _group_members(self._pgid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the group, wait, escalate to SIGKILL; assert it is empty."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self._pgid, signum)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + STOP_TIMEOUT_S
            try:
                self._process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                continue
            while _group_members(self._pgid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if not _group_members(self._pgid):
                break
        if self._process.stdout is not None:
            self._process.stdout.close()
        left = _group_members(self._pgid)
        if left:
            raise ServerError(f"server processes left behind: {left}")
