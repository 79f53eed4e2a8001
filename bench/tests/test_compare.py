"""compare.py calls regressions, noise and unresolved pairs correctly."""

import copy
import json
from pathlib import Path

from bench import compare

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def document(scale: dict[str, float] | None = None, spread: float = 0.01) -> dict:
    scale = scale or {}
    results = {}
    for workload in SPEC["workloads"]:
        sides = {}
        for kind in ("end_to_end", "per_layer"):
            metrics = {}
            for metric in SPEC[kind]:
                value = 100.0 * scale.get(metric["name"], 1.0)
                metrics[metric["name"]] = {
                    "value": value,
                    "unit": metric["unit"],
                    "q1": value * (1 - spread / 2),
                    "q3": value * (1 + spread / 2),
                }
            sides[kind] = {"metrics": metrics, "correct": True}
        results[workload["name"]] = sides
    return {"results": results}


def verdicts(a: dict, b: dict, spec: dict = SPEC) -> dict[str, set[str]]:
    lines, _ = compare.compare(a, b, spec)
    found: dict[str, set[str]] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 6 and parts[-1] in (
            "regressed", "improved", "unchanged", "unresolved"
        ):
            found.setdefault(parts[1], set()).add(parts[-1])
    return found


#: BENCHMARK.json with ISSUE 11's bounds (10 % on every statement
#: timing): what compare.py must do with them, whatever this box's
#: measured noise made of the stored ones.
ISSUE_SPEC = {
    **SPEC,
    "end_to_end": [
        {**m, "bound": 0.25 if m["name"] == "setup_s" else 0.10}
        for m in SPEC["end_to_end"]
    ],
}


def test_twenty_percent_slower_is_a_regression():
    slower = document({"stmt_p50_us": 1.20, "stmt_per_s": 0.80})
    found = verdicts(document(), slower, ISSUE_SPEC)
    assert found["stmt_p50_us"] == {"regressed"}
    assert found["stmt_per_s"] == {"regressed"}  # higher is better
    assert found["overhead_ratio"] == {"unchanged"}
    _, regressed = compare.compare(document(), slower, ISSUE_SPEC)
    assert regressed == 2 * len(SPEC["workloads"])


def test_three_percent_is_unchanged_and_faster_is_improved():
    changed = document({"stmt_p50_us": 1.03, "stmt_p99_us": 0.5})
    for spec in (ISSUE_SPEC, SPEC):
        found = verdicts(document(), changed, spec)
        assert found["stmt_p50_us"] == {"unchanged"}
        assert found["stmt_p99_us"] == {"improved"}


def test_the_stored_bounds_are_the_ones_applied():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    slower = document(
        {
            "stmt_p50_us": 1 + bound["stmt_p50_us"] + 0.02,
            "stmt_p99_us": 1 + bound["stmt_p99_us"] - 0.02,
        }
    )
    found = verdicts(document(), slower)
    assert found["stmt_p50_us"] == {"regressed"}
    assert found["stmt_p99_us"] == {"unchanged"}


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = document(spread=0.6)
    found = verdicts(document(), noisy)
    assert found["stmt_p50_us"] == {"unresolved"}


def test_per_layer_metrics_get_no_verdict():
    lines, _ = compare.compare(document(), document(), SPEC)
    layer = [line for line in lines if " enforce.check_full_us " in line]
    assert len(layer) == len(SPEC["workloads"])
    assert all(line.split()[-1] == "1.000" for line in layer)


def test_cli_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document()))
    worse = copy.deepcopy(document({"stmt_p99_us": 1.5}))
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
