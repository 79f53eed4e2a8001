"""The network tier: the enforcement gateway behind a real socket.

``repro.net`` puts the multi-session :class:`EnforcementGateway` where
Blockaid's proxy lives — between remote application clients and the
database, over TCP — speaking a versioned, length-prefixed JSON protocol
(:mod:`repro.net.protocol`). The thread-per-connection blocking server
(:mod:`repro.net.server`) runs each statement on its connection's own
thread and adds the production concerns a policy tier needs under heavy
traffic: admission control with load shedding, per-statement deadlines,
idle reaping, frame hygiene, graceful drain, and a STATS command
exposing net + gateway metrics. The blocking client
(:mod:`repro.net.client`) implements the standard ``Connection``
protocol so workloads replay over the wire unmodified, plus the hit-path
extras: ``prepare``/``execute`` (server-side prepared handles) and
``pipeline`` (windowed in-flight requests over one socket). See
``docs/networking.md``, ``docs/prepared.md``, and the ``wire_hit`` /
``wire_pipelined`` workloads of ``bench/run.py``.
"""

from repro.net.client import (
    AdminClient,
    NetClientConnection,
    PreparedWireStatement,
    connect_with_retry,
)
from repro.net.metrics import NetMetrics
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameTooLarge,
    NetError,
)
from repro.net.server import BackgroundServer, NetServer, ServerConfig

__all__ = [
    "PROTOCOL_VERSION",
    "AdminClient",
    "BackgroundServer",
    "ConnectionClosed",
    "FrameTooLarge",
    "NetClientConnection",
    "NetError",
    "NetMetrics",
    "NetServer",
    "PreparedWireStatement",
    "ServerConfig",
    "connect_with_retry",
]
