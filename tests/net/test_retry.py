"""Bounded-backoff connect retry (`connect_with_retry`)."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.net import client
from repro.net.client import NetClientConnection, connect_with_retry
from repro.net.server import BackgroundServer, ServerConfig
from tests.net.test_client_server import make_gateway


def schedule(monkeypatch, retries: int, base_s: float) -> None:
    """Retry ``retries`` times, backing off from ``base_s``."""
    monkeypatch.setattr(client, "CONNECT_RETRIES", retries)
    monkeypatch.setattr(client, "RETRY_BASE_S", base_s)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConnectWithRetry:
    def test_rides_out_a_late_starting_listener(self):
        """The exact race a shard subprocess loses: client dials first."""
        port = _free_port()
        listener = socket.socket()
        accepted = threading.Event()

        def open_late():
            time.sleep(0.15)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            listener.accept()
            accepted.set()

        thread = threading.Thread(target=open_late, daemon=True)
        thread.start()
        try:
            sock = connect_with_retry("127.0.0.1", port, timeout_s=5.0)
            sock.close()
            thread.join(timeout=5)
            assert accepted.is_set()
        finally:
            listener.close()

    def test_exhausted_retries_reraise_the_original_error(self, monkeypatch):
        port = _free_port()  # nothing listens here
        schedule(monkeypatch, retries=2, base_s=0.01)
        started = time.monotonic()
        with pytest.raises(OSError):
            connect_with_retry("127.0.0.1", port, timeout_s=1.0)
        # 2 retries at ~10/20 ms: the whole schedule stays fast.
        assert time.monotonic() - started < 2.0

    def test_zero_retries_fail_immediately(self, monkeypatch):
        port = _free_port()
        attempts = []
        dial = socket.create_connection

        def counting(address, timeout=None):
            attempts.append(address)
            return dial(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", counting)
        schedule(monkeypatch, retries=0, base_s=0.05)
        with pytest.raises(OSError):
            connect_with_retry("127.0.0.1", port, timeout_s=1.0)
        assert len(attempts) == 1

    def test_malformed_address_fails_fast_without_retrying(self, monkeypatch):
        """gaierror (name resolution) is misconfiguration, not a race:
        one attempt, no backoff sleeps, error type preserved."""
        attempts = []

        def refuse_resolution(address, timeout=None):
            attempts.append(address)
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "create_connection", refuse_resolution)
        schedule(monkeypatch, retries=4, base_s=0.2)
        started = time.monotonic()
        with pytest.raises(socket.gaierror):
            connect_with_retry("no-such-host.invalid", 1, timeout_s=1.0)
        assert len(attempts) == 1
        # No retry schedule was consumed (4 retries at 0.2s base would
        # have slept well over a second).
        assert time.monotonic() - started < 0.2

    def test_transient_connection_errors_still_retry(self, monkeypatch):
        attempts = []

        def refuse_then_accept(address, timeout=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise ConnectionRefusedError("nobody home yet")
            return object()  # stands in for the socket

        monkeypatch.setattr(socket, "create_connection", refuse_then_accept)
        schedule(monkeypatch, retries=4, base_s=0.001)
        assert connect_with_retry("127.0.0.1", 1, timeout_s=1.0) is not None
        assert len(attempts) == 3

    def test_client_connects_through_retry_to_real_server(self):
        """NetClientConnection inherits the retry patience end to end."""
        gateway = make_gateway()
        port = _free_port()
        holder = {}

        def start_late():
            time.sleep(0.15)
            holder["server"] = BackgroundServer(
                gateway, ServerConfig(port=port)
            ).start()

        thread = threading.Thread(target=start_late, daemon=True)
        thread.start()
        try:
            connection = NetClientConnection("127.0.0.1", port, user=1)
            connection.ping()
            connection.close()
        finally:
            thread.join(timeout=5)
            if "server" in holder:
                holder["server"].stop()
            gateway.close()
