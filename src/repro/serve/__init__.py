"""The serving layer: a multi-session enforcement gateway.

Scales the paper's per-session enforcement proxy to a deployment shape:
one :class:`EnforcementGateway` per process owns one
:class:`~repro.enforce.cache.DecisionCache` per policy epoch (decision
templates learned in any session serve every session, without ever
over-allowing), write-driven template invalidation, per-stage latency
metrics, and a worker-pool driver that replays the bundled application
workloads from N concurrent simulated users. See ``docs/serving.md`` and
the E11 benchmark.
"""

from repro.serve.driver import DriveReport, WorkloadDriver, no_op_write_for
from repro.serve.gateway import (
    DecisionAuditRecord,
    EnforcementGateway,
    GatewayConfig,
    GatewayConnection,
    PolicyEpoch,
)
from repro.serve.metrics import GatewayMetrics, LatencyHistogram, MetricsSnapshot

__all__ = [
    "DecisionAuditRecord",
    "DriveReport",
    "EnforcementGateway",
    "GatewayConfig",
    "GatewayConnection",
    "GatewayMetrics",
    "PolicyEpoch",
    "LatencyHistogram",
    "MetricsSnapshot",
    "WorkloadDriver",
    "no_op_write_for",
]
