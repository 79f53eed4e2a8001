"""Every declared metric comes out, with its unit, for every workload."""

import argparse
import json
from pathlib import Path

import pytest

from bench import replay, run, tracing
from bench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_declared_metrics_are_emitted(tiny, capsys, tmp_path, workload, trace):
    out = tmp_path / "result.json"
    args = argparse.Namespace(
        workload=workload, seed=2, seconds=0.0, trace=trace, out=str(out), spans=None
    )
    run.run_workload(args)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and last["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = last["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]  # end-to-end is never 0
    document = json.loads(out.read_text())
    assert document["unsafe_allows"] == 0 and document["stream_digest"]
    assert {"commit", "python", "cpus", "seed"} <= set(document["provenance"])


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    root = tracer.new_id()
    tracer.add("child", 1.0, 1.3, root, 0)
    tracer.add("child", 1.4, 1.5, root, 0)
    tracer.root(root, 0, 1.0, 2.0)
    durations = tracer.durations()
    assert durations["child"] == pytest.approx([0.3, 0.1])
    assert durations[tracing.ROOT] == pytest.approx([0.6])
    assert tracing.percentile(list(range(1, 101)), 0.99) == 99


def test_end_to_end_numbers_are_the_rounds_own():
    """n / wall and nearest-rank percentiles of one round's latencies:
    a slow 2 % of statements must show in p99 and in throughput."""
    from bench.replay import Round

    latencies = [100e-6] * 98 + [1000e-6] * 2
    nominal = replay.CALIBRATION_NOMINAL_MS
    r = Round(
        wall_s=sum(latencies), latencies=latencies, direct=[50e-6] * 100, calib_ms=nominal
    )
    numbers = run.end_to_end_of(r)
    assert numbers["stmt_p50_us"] == pytest.approx(100.0)
    assert numbers["stmt_p99_us"] == pytest.approx(1000.0)
    assert numbers["stmt_per_s"] == pytest.approx(100 / sum(latencies))
    assert numbers["overhead_ratio"] == pytest.approx(2.0)
    # A box that ran the spins twice as slowly ran the round twice as
    # slowly: same program cost. The same-round ratio is left alone.
    r.calib_ms = 2 * nominal
    slow_box = run.end_to_end_of(r)
    assert slow_box["stmt_p99_us"] == pytest.approx(500.0)
    assert slow_box["stmt_per_s"] == pytest.approx(2 * numbers["stmt_per_s"])
    assert slow_box["overhead_ratio"] == pytest.approx(2.0)


def test_summary_is_median_and_quartiles_of_the_rounds():
    summary = run.summarize({"a": [4.0, 1.0, 2.0, 3.0, 100.0]}, {"a": "us"})
    assert summary["a"] == {"value": 3.0, "unit": "us", "q1": 2.0, "q3": 4.0, "rounds": 5}


def test_a_declared_metric_nobody_measured_is_an_error():
    with pytest.raises(KeyError, match="b_us"):
        run.summarize({"a_us": [1.0]}, {"a_us": "us", "b_us": "us"})


def test_off_path_sets_name_declared_metrics_only():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracing.OFF_PATH) == set(WORKLOADS)
    for workload, names in tracing.OFF_PATH.items():
        assert names <= declared, (workload, names - declared)
    # Every declared metric is on some workload's path, bar the one whose
    # absence everywhere is explained where it is listed.
    everywhere = frozenset.intersection(*tracing.OFF_PATH.values())
    assert everywhere == tracing._BLOCK_REPLAY


def test_a_dead_connection_fails_its_statements_without_latencies():
    from bench.replay import on_connection
    from bench.workloads import Session

    class Connection:
        server_shard_id = None
        closed = False

        def close(self):
            self.closed = True

    def body(connection, latencies, answers):
        latencies.append(1e-4)
        answers.append(1)
        latencies.append(2e-4)  # the reply never came
        raise ConnectionError("gone")

    connection = Connection()
    session = Session(1, (("SELECT 1", ()),) * 3)
    latencies, answers, _ = on_connection(lambda: connection, session, body)
    assert latencies == [1e-4] and connection.closed
    assert answers[0] == 1 and len(answers) == 3
    assert all(isinstance(answer, ConnectionError) for answer in answers[1:])
