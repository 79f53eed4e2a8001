"""LatencyHistogram bucket-boundary behavior and NetMetrics accounting."""

from __future__ import annotations

from repro.net.metrics import NetMetrics
from repro.serve.metrics import _BUCKET_BOUNDS_US, GatewayMetrics, LatencyHistogram

TOP_BOUND_US = _BUCKET_BOUNDS_US[-1]
OVERFLOW_INDEX = len(_BUCKET_BOUNDS_US)


def buckets_hit(histogram: LatencyHistogram) -> list[int]:
    return [index for index, count in enumerate(histogram._counts) if count]


class TestBucketBoundaries:
    def test_exactly_the_top_bound_lands_in_the_last_bounded_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(TOP_BOUND_US / 1e6)
        assert buckets_hit(histogram) == [OVERFLOW_INDEX - 1]

    def test_above_the_top_bound_lands_in_the_overflow_bucket(self):
        """Regression: must not be folded into the last *bounded* bucket."""
        histogram = LatencyHistogram()
        for factor in (1.0000001, 1.5, 2.0, 1000.0):
            histogram.observe(TOP_BOUND_US * factor / 1e6)
        assert buckets_hit(histogram) == [OVERFLOW_INDEX]
        assert histogram._counts[OVERFLOW_INDEX - 1] == 0

    def test_exactly_an_interior_bound_lands_in_that_bucket(self):
        for index, bound in enumerate(_BUCKET_BOUNDS_US):
            histogram = LatencyHistogram()
            histogram.observe(bound / 1e6)
            assert buckets_hit(histogram) == [index], f"bound {bound}"

    def test_just_above_an_interior_bound_moves_one_bucket_up(self):
        histogram = LatencyHistogram()
        histogram.observe((_BUCKET_BOUNDS_US[3] * 1.01) / 1e6)
        assert buckets_hit(histogram) == [4]

    def test_zero_lands_in_the_first_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0)
        assert buckets_hit(histogram) == [0]

    def test_overflow_percentile_reports_the_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(TOP_BOUND_US * 3 / 1e6)
        assert histogram.percentile_us(99) == TOP_BOUND_US * 3

    def test_merge_preserves_overflow_counts(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        left.observe(TOP_BOUND_US * 2 / 1e6)
        right.observe(TOP_BOUND_US * 4 / 1e6)
        left.merge(right)
        assert left._counts[OVERFLOW_INDEX] == 2
        assert left.count == 2


class TestNetMetrics:
    def test_connection_gauge_tracks_open_and_close(self):
        metrics = NetMetrics()
        assert metrics.connection_opened() == 1
        assert metrics.connection_opened() == 2
        assert metrics.connection_closed() == 1
        assert metrics.active_connections == 1
        assert metrics.counter("connections_opened") == 2
        assert metrics.counter("connections_closed") == 1

    def test_in_flight_gauge(self):
        metrics = NetMetrics()
        assert metrics.request_started(limit=2)
        assert metrics.request_started(limit=2)
        assert metrics.in_flight == 2
        # The gauge is the admission counter: at the bound, no slot.
        assert not metrics.request_started(limit=2)
        assert metrics.in_flight == 2
        metrics.request_finished()
        assert metrics.in_flight == 1
        assert metrics.counter("requests") == 2

    def test_to_wire_is_json_shaped(self):
        import json

        metrics = NetMetrics()
        metrics.observe_request(0.001)
        metrics.increment("requests_shed")
        document = metrics.to_wire()
        assert json.loads(json.dumps(document)) == document
        assert document["counters"]["requests_shed"] == 1
        assert "net_request" in document["stages"]


class TestGatewayMetricsStillAggregate:
    def test_stage_histograms_accumulate(self):
        metrics = GatewayMetrics()
        metrics.observe_stage("check", 0.002)
        metrics.observe_stage("check", 0.004)
        snapshot = metrics.snapshot()
        assert snapshot.stages["check"]["count"] == 2.0
        assert snapshot.stages["check"]["mean_us"] == 3000.0
