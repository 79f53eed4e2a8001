"""One gateway shard: the ``repro shard`` subprocess entry point.

A shard is nothing new — it is exactly the ``repro serve`` stack (one
:class:`~repro.serve.gateway.EnforcementGateway` behind one
:class:`~repro.net.server.NetServer` with a
:class:`~repro.lifecycle.reload.LifecycleManager`) plus three
cluster-specific attachments:

* a **ready handshake**: after binding its socket the shard prints
  ``SHARD-READY shard=<i> port=<port>`` on stdout, which is how the
  supervisor learns an ephemeral port and knows the shard is serving;
* an optional :class:`~repro.cluster.exchange.TemplateExchangeClient`
  (``--exchange-port``) publishing fresh decision templates and write
  invalidations to the cluster bus, and applying its peers';
* an optional **decision audit log** (``--audit-log``): one JSON line
  per decision with the bound SQL, bindings, verdict, deciding policy
  version, and the certified trace facts at decision time — the E16
  benchmark's instrument for cross-shard fidelity and torn-version
  checks.

``SIGTERM`` triggers the server's graceful drain (finish in-flight
statements, then close), so a supervisor shutdown never truncates a
decision mid-flight.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass

from repro.cluster.exchange import TemplateExchangeClient, _serialize_fact
from repro.serve.gateway import GatewayConfig


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard subprocess needs to come up."""

    app: str
    shard_id: int
    host: str = "127.0.0.1"
    port: int = 0
    size: int | None = None
    seed: int = 7
    #: Cache / compile / batch / backend settings, exactly as `repro serve`
    #: reads them from the same flags.
    gateway: GatewayConfig = GatewayConfig()
    exchange_host: str = "127.0.0.1"
    exchange_port: int | None = None
    audit_log: str | None = None
    max_in_flight: int = 16
    request_timeout_s: float = 30.0


class _AuditLog:
    """Append-only JSONL decision log (thread-safe; decisions are hot)."""

    def __init__(self, path: str, shard_id: int):
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._shard_id = shard_id

    def __call__(self, record) -> None:
        line = json.dumps(
            {
                "shard": self._shard_id,
                "sql": record.sql,
                "bindings": record.bindings,
                "allowed": record.allowed,
                "policy_version": record.policy_version,
                "from_cache": record.from_cache,
                "trace_len": record.trace_len,
                "facts": [_serialize_fact(fact) for fact in record.facts],
            },
            separators=(",", ":"),
            default=str,
        )
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


def run_shard(spec: ShardSpec) -> int:
    """Bring the shard up, announce readiness, serve until drained."""
    from repro.lifecycle import LifecycleManager
    from repro.net import NetServer, ServerConfig
    from repro.serve import EnforcementGateway
    from repro.workloads import calendar_app, employees, hospital, social

    modules = {
        "calendar": calendar_app,
        "hospital": hospital,
        "employees": employees,
        "social": social,
    }
    app = modules[spec.app].make_app()
    db = app.make_database(
        spec.size or app.default_size,
        spec.seed,
        backend=spec.gateway.backend,
        db_path=spec.gateway.db_path,
    )
    policy = app.ground_truth_policy()
    gateway = EnforcementGateway(db, policy, spec.gateway)
    audit = None
    if spec.audit_log:
        audit = _AuditLog(spec.audit_log, spec.shard_id)
        gateway.decision_audit = audit
    lifecycle = LifecycleManager(gateway)
    server = NetServer(
        gateway,
        ServerConfig(
            host=spec.host,
            port=spec.port,
            shard_id=spec.shard_id,
            max_in_flight=spec.max_in_flight,
            request_timeout_s=spec.request_timeout_s,
        ),
        lifecycle=lifecycle,
    )
    exchange: TemplateExchangeClient | None = None

    def announce() -> None:
        nonlocal exchange
        if spec.exchange_port is not None:
            exchange = TemplateExchangeClient(
                spec.exchange_host,
                spec.exchange_port,
                gateway,
                spec.shard_id,
            )
            exchange.attach()
        # The supervisor blocks on this exact line (and its flush).
        print(f"SHARD-READY shard={spec.shard_id} port={server.port}", flush=True)

    try:
        server.serve_until_signalled(announce)
    finally:
        if exchange is not None:
            exchange.close()
        gateway.close()
        if audit is not None:
            audit.close()
        print(f"SHARD-STOPPED shard={spec.shard_id}", flush=True)
    return 0


def spec_from_args(args, gateway: GatewayConfig) -> ShardSpec:
    """Build a :class:`ShardSpec` from the ``repro shard`` CLI namespace
    and the gateway config the CLI derived from it."""
    return ShardSpec(
        app=args.app,
        shard_id=args.shard_id,
        host=args.host,
        port=args.port,
        size=args.size,
        seed=args.seed,
        gateway=gateway,
        exchange_host=args.exchange_host,
        exchange_port=args.exchange_port,
        audit_log=args.audit_log,
        max_in_flight=args.max_in_flight,
        request_timeout_s=args.request_timeout,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via `repro shard`
    sys.exit(run_shard(ShardSpec(app="calendar", shard_id=0)))
