"""Cluster-wide STATS: merging per-shard metrics into one document.

Each shard's STATS reply carries raw histogram buckets (see
:meth:`~repro.serve.metrics.LatencyHistogram.to_stage_wire`), so the
router can merge latency distributions *exactly* — summed bucket counts,
not averaged percentiles — via the same
:meth:`~repro.serve.metrics.LatencyHistogram.merge` the in-process
metrics use. Counters sum; gauges (active connections, in-flight) sum;
the cluster cache hit rate is recomputed from the summed shared-cache
hit/miss counters rather than averaging per-shard rates (which would
weight an idle shard equally with a busy one).
"""

from __future__ import annotations

from repro.serve.metrics import LatencyHistogram


def _merge_counters(totals: dict[str, float], counters: dict) -> None:
    for name, value in (counters or {}).items():
        if isinstance(value, (int, float)):
            totals[name] = totals.get(name, 0) + value


def _merge_stages(
    collected: dict[str, list[dict]], stages: dict
) -> None:
    for stage, doc in (stages or {}).items():
        if isinstance(doc, dict):
            collected.setdefault(stage, []).append(doc)


def _combine_stage(docs: list[dict]) -> dict:
    """Merge one stage's per-shard documents into a cluster document."""
    merged = LatencyHistogram()
    exact = True
    for doc in docs:
        histogram = LatencyHistogram.from_stage_wire(doc)
        if histogram is None:
            exact = False
            break
        merged.merge(histogram)
    if exact:
        return merged.to_stage_wire()
    # Pre-buckets shard document: the best mergeable summary is a
    # count-weighted mean and worst-case tails.
    count = sum(float(doc.get("count", 0)) for doc in docs)
    mean = (
        sum(float(doc.get("count", 0)) * float(doc.get("mean_us", 0.0)) for doc in docs)
        / count
        if count
        else 0.0
    )
    summary: dict[str, object] = {"count": count, "mean_us": mean, "approximate": True}
    for tail in ("p50_us", "p95_us", "p99_us", "max_us"):
        summary[tail] = max(float(doc.get(tail, 0.0)) for doc in docs)
    return summary


def aggregate_stats(shard_replies: list[dict]) -> dict:
    """Fold per-shard STATS replies into one cluster-level STATS body.

    The result keeps the single-server shape (``net`` / ``gateway`` /
    ``cache_hit_rate`` / ``policy``) so existing STATS consumers read a
    cluster exactly like one big server, and adds a ``cluster`` section
    with per-shard identity, uptime, and policy versions.
    """
    gateway_counters: dict[str, float] = {}
    view_checks: dict[str, float] = {}
    gateway_stages: dict[str, list[dict]] = {}
    net_counters: dict[str, float] = {}
    net_stages: dict[str, list[dict]] = {}
    active_connections = 0
    in_flight = 0
    shards = []
    versions: set = set()

    for reply in shard_replies:
        gateway = reply.get("gateway") or {}
        _merge_counters(gateway_counters, gateway.get("counters"))
        _merge_counters(view_checks, gateway.get("view_checks"))
        _merge_stages(gateway_stages, gateway.get("stages"))
        net = reply.get("net") or {}
        _merge_counters(net_counters, net.get("counters"))
        _merge_stages(net_stages, net.get("stages"))
        active_connections += int(net.get("active_connections", 0))
        in_flight += int(net.get("in_flight", 0))
        policy = reply.get("policy") or {}
        version = policy.get("active_version")
        if version is not None:
            versions.add(version)
        shards.append(
            {
                "shard_id": reply.get("shard_id"),
                "uptime_s": reply.get("uptime_s"),
                "active_version": version,
                "cache_hit_rate": reply.get("cache_hit_rate"),
            }
        )

    hits = gateway_counters.get("shared_cache_hits", 0)
    misses = gateway_counters.get("shared_cache_misses", 0)
    total = hits + misses
    hit_rate = hits / total if total else 0.0

    # policy_version and pre-computed rates sum like any counter, which
    # is meaningless for a cluster; drop the version (the shard consensus
    # lives under "policy") and recompute the rate from summed hit/miss.
    gateway_counters.pop("policy_version", None)
    if "shared_cache_hit_rate" in gateway_counters:
        shared_total = gateway_counters.get(
            "shared_cache_hits", 0
        ) + gateway_counters.get("shared_cache_misses", 0)
        gateway_counters["shared_cache_hit_rate"] = (
            gateway_counters.get("shared_cache_hits", 0) / shared_total
            if shared_total
            else 0.0
        )

    return {
        "net": {
            "counters": net_counters,
            "stages": {name: _combine_stage(docs) for name, docs in net_stages.items()},
            "active_connections": active_connections,
            "in_flight": in_flight,
        },
        "gateway": {
            "counters": gateway_counters,
            "view_checks": view_checks,
            "stages": {
                name: _combine_stage(docs) for name, docs in gateway_stages.items()
            },
        },
        "cache_hit_rate": hit_rate,
        "policy": {
            "active_versions": sorted(versions),
            "consistent": len(versions) <= 1,
        },
        "cluster": {"shards": shards, "shard_count": len(shard_replies)},
    }
