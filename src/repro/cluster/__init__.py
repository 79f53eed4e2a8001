"""The cluster tier: many gateways behind one wire-protocol front door.

``repro.cluster`` scales the serving stack horizontally the way a real
policy-enforcement deployment would: N independent **gateway shards**
(each an ordinary ``repro serve`` process: a full
:class:`~repro.net.server.NetServer` wrapping its own
:class:`~repro.serve.gateway.EnforcementGateway`) sit behind one
:class:`~repro.cluster.router.ClusterRouter` speaking the *same*
length-prefixed JSON protocol, so every existing client — the blocking
``NetClientConnection``, the ``AdminClient``, the workload driver —
talks to a cluster without changing a byte.

The pieces:

* :mod:`repro.cluster.router` — the front end, thread per connection
  like :class:`~repro.net.server.NetServer`. It hashes each HELLO's
  session bindings to a shard (deterministically, so a principal always
  lands on the same shard), then splices bytes between client and
  shard. Pre-session PING/STATS/admin verbs are
  handled at the router: STATS fans out and *merges* shard metrics,
  RELOAD rolls shard-by-shard.
* :mod:`repro.cluster.aggregate` — cluster-wide STATS: merges per-shard
  counters and raw latency-histogram buckets via
  :meth:`~repro.serve.metrics.LatencyHistogram.merge`.
* :mod:`repro.cluster.supervisor` — the parent-side process supervisor
  (:class:`~repro.cluster.supervisor.BackgroundCluster` is the
  test/benchmark façade that brings a whole cluster up and down).

The shards share nothing but the router: a session, trace included,
lives on its home shard for one connection, and every decision a shard
serves — fresh or from its template store — its own checker derived
under its own policy epoch.

See ``docs/cluster.md`` for the full design, and
``tests/cluster/test_supervisor.py`` for the fidelity and rolling-reload
checks on a real fleet.
"""

from repro.cluster.aggregate import aggregate_stats
from repro.cluster.router import ClusterRouter, RouterConfig, shard_index_for
from repro.cluster.supervisor import BackgroundCluster, ClusterConfig, ShardProcess

__all__ = [
    "BackgroundCluster",
    "ClusterConfig",
    "ClusterRouter",
    "RouterConfig",
    "ShardProcess",
    "aggregate_stats",
    "shard_index_for",
]
