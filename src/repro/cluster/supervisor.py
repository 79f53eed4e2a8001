"""Parent-side cluster supervision: shard subprocesses + the router.

A shard is a ``repro serve`` process, nothing more: its own database
replica, gateway, decision store and lifecycle manager, told its place in
the fleet by ``--shard-id``. Shards share nothing with each other — every
decision a shard serves from its store, that shard's own checker derived.

:class:`ShardProcess` supervises one: it spawns the command (with
``PYTHONPATH`` propagated so the child finds the same checkout), waits —
with a real deadline — for the ``listening on host:port`` line ``repro
serve`` prints once its socket is bound, keeps draining the child's
stdout so it can never block on a full pipe, and stops the shard with
``SIGTERM`` (graceful drain) escalating to ``SIGKILL``.

:class:`BackgroundCluster` is the synchronous façade tests and ``repro
cluster`` use, mirroring :class:`~repro.net.server.BackgroundServer`:
``with BackgroundCluster(ClusterConfig(app="calendar", shards=4)) as
cluster:`` brings up the shard fleet and the router (on a dedicated
event-loop thread), exposes ``cluster.port`` for any wire client, and
tears everything down (router → shards) on exit.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.router import ClusterRouter, RouterConfig

#: The line ``repro serve`` announces itself with, socket already bound.
_LISTENING = re.compile(r"listening on \S+:(\d+)\s")


def _pythonpath_for_child() -> dict[str, str]:
    """The child environment, with this checkout's ``src`` on the path."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


class ShardProcess:
    """One supervised shard subprocess (``command`` is its full argv)."""

    def __init__(self, shard_id: int, command: list[str], ready_timeout_s: float = 30.0):
        self.shard_id = shard_id
        self.port: int | None = None
        self._process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_pythonpath_for_child(),
        )
        try:
            self._await_ready(ready_timeout_s)
        except BaseException:
            # Never ready, so nothing in flight to drain.
            self.kill()
            assert self._process.stdout is not None
            self._process.stdout.close()
            raise
        self._drainer = threading.Thread(
            target=self._drain, name=f"shard-{shard_id}-stdout", daemon=True
        )
        self._drainer.start()

    def _await_ready(self, timeout_s: float) -> None:
        """Read the child's output until the ready line, the deadline, or EOF.

        ``select`` on the raw pipe, so a child that prints nothing costs
        exactly ``timeout_s`` — a blocking ``readline`` would wait forever.
        """
        assert self._process.stdout is not None
        fd = self._process.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        seen = ""
        while True:
            match = _LISTENING.search(seen)
            if match:
                self.port = int(match.group(1))
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(
                    f"shard {self.shard_id} did not become ready in {timeout_s}s;"
                    f" output so far: {seen[-2000:]!r}"
                )
            chunk = os.read(fd, 65536)
            if not chunk:
                code = self._process.wait()
                raise RuntimeError(
                    f"shard {self.shard_id} exited (code {code}) before ready;"
                    f" output: {seen[-2000:]!r}"
                )
            seen += chunk.decode(errors="replace")

    def _drain(self) -> None:
        """Discard the rest of the child's output so its pipe never fills."""
        assert self._process.stdout is not None
        while self._process.stdout.read(65536):
            pass

    @property
    def alive(self) -> bool:
        return self._process.poll() is None

    def stop(self, grace_s: float = 10.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL after ``grace_s``."""
        if self._process.poll() is not None:
            return
        try:
            self._process.send_signal(signal.SIGTERM)
            self._process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait(timeout=5.0)
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        """Immediate SIGKILL, no drain: a shard that never became ready,
        or a test taking one down under the router."""
        if self._process.poll() is None:
            self._process.kill()
            self._process.wait(timeout=5.0)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything :class:`BackgroundCluster` needs to bring a fleet up.

    ``backend`` / ``db_path`` are handed to every shard unchanged, so
    ``backend="sqlite", db_path=F`` points the whole fleet at one file:
    shards start one at a time, the first seeds ``F`` and the rest find
    its rows (WAL mode, so they read it concurrently). Writes remain
    **single-writer**: route all mutations for a table through one shard
    (or keep the workload read-only); see docs/cluster.md.
    """

    app: str
    shards: int = 2
    size: int | None = None
    seed: int = 7
    backend: str | None = None
    db_path: str | None = None
    #: Directory for per-shard decision audit JSONL logs (None = off).
    audit_dir: str | None = None
    request_timeout_s: float = 30.0
    ready_timeout_s: float = 60.0
    router: RouterConfig = field(default_factory=lambda: RouterConfig(health_interval_s=0.5))


class BackgroundCluster:
    """A whole cluster (shards + router); the router runs on a loop thread."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.shards: list[ShardProcess] = []
        self.router: ClusterRouter | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "BackgroundCluster":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="cluster-loop", daemon=True
        )
        self._thread.start()
        try:
            self._spawn_shards()
            self.router = ClusterRouter(
                [("127.0.0.1", shard.port) for shard in self.shards],
                self.config.router,
            )
            self._call(self.router.start())
            self.port = self.router.port
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        if self.router is not None:
            self._call(self.router.stop())
            self.router = None
        for shard in self.shards:
            shard.stop()
        self.shards = []
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "BackgroundCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- pieces -------------------------------------------------------------------

    def _spawn_shards(self) -> None:
        config = self.config
        if config.audit_dir is not None:
            Path(config.audit_dir).mkdir(parents=True, exist_ok=True)
        for shard_id in range(config.shards):
            argv = [
                sys.executable, "-u", "-m", "repro", "serve",
                "--app", config.app,
                "--shard-id", str(shard_id),
                "--port", "0",
                "--seed", str(config.seed),
                "--request-timeout", str(config.request_timeout_s),
            ]
            if config.size is not None:
                argv += ["--size", str(config.size)]
            if config.backend is not None:
                argv += ["--backend", config.backend]
            if config.db_path is not None:
                argv += ["--db-path", config.db_path]
            if config.audit_dir is not None:
                argv += [
                    "--audit-log",
                    str(Path(config.audit_dir) / f"shard-{shard_id}.jsonl"),
                ]
            self.shards.append(
                ShardProcess(shard_id, argv, ready_timeout_s=config.ready_timeout_s)
            )

    def audit_paths(self) -> list[Path]:
        if self.config.audit_dir is None:
            return []
        return [
            Path(self.config.audit_dir) / f"shard-{shard.shard_id}.jsonl"
            for shard in self.shards
        ]

    def _call(self, coroutine):
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(
            timeout=180.0
        )

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
