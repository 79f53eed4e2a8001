"""The serving layer: a multi-session enforcement gateway.

Scales the paper's per-session enforcement proxy to a deployment shape:
one :class:`EnforcementGateway` per process owns one
:class:`~repro.enforce.cache.DecisionCache` per policy epoch (decision
templates learned in any session serve every session, without ever
over-allowing), serialized writes that retire the facts they falsify,
and per-stage latency metrics. See ``docs/serving.md``; ``bench/run.py`` replays the bundled
workloads through it.
"""

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
    "EnforcementGateway",
    "GatewayConfig",
    "GatewayConnection",
    "GatewayMetrics",
    "PolicyEpoch",
    "LatencyHistogram",
    "MetricsSnapshot",
]
