"""Compare two result documents of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

For every (workload, end-to-end metric) prints both medians, the ratio
B/A (base: A) and one verdict, using the bounds stored in
``BENCHMARK.json``:

* ``regressed``  — B is worse than A by more than the metric's bound;
* ``improved``   — B is better than A by more than the bound;
* ``unchanged``  — the medians differ by no more than the bound;
* ``unresolved`` — on either side the spread across rounds (q3 - q1 over
  the median) is wider than the bound, so the pair cannot be called.

Per-layer metrics are listed with their ratio and no verdict. Exits 1
when anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def spread(entry: dict) -> float:
    """Quartile distance across rounds as a share of the median."""
    value = entry["value"]
    return abs(entry.get("q3", value) - entry.get("q1", value)) / abs(value) if value else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base = a["value"]
    if not base:
        return "unchanged" if not b["value"] else "unresolved"
    worse_by = (b["value"] - base) / abs(base)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressed pairs."""
    lines: list[str] = []
    regressed = 0
    header = f"{'workload':20} {'metric':36} {'A':>12} {'B':>12} {'B/A':>7}  verdict"
    for kind in ("end_to_end", "per_layer"):
        lines.append(f"-- {kind} (ratio base: A)")
        lines.append(header)
        for workload in spec["workloads"]:
            name = workload["name"]
            side_a = a["results"].get(name, {}).get(kind)
            side_b = b["results"].get(name, {}).get(kind)
            if side_a is None or side_b is None:
                lines.append(f"{name:20} missing on one side")
                continue
            for metric in spec[kind]:
                entry_a = side_a["metrics"].get(metric["name"])
                entry_b = side_b["metrics"].get(metric["name"])
                if entry_a is None or entry_b is None:
                    continue
                ratio = entry_b["value"] / entry_a["value"] if entry_a["value"] else float("nan")
                call = ""
                if kind == "end_to_end":
                    call = verdict(entry_a, entry_b, metric["better"], metric["bound"])
                    regressed += call == "regressed"
                lines.append(
                    f"{name:20} {metric['name']:36} {entry_a['value']:12.4f}"
                    f" {entry_b['value']:12.4f} {ratio:7.3f}  {call}"
                )
            if kind == "end_to_end":
                for label, side in (("A", side_a), ("B", side_b)):
                    if not side.get("correct", False):
                        lines.append(
                            f"{name:20} {label} is not correct: failed_share"
                            f" {side.get('failed_share')}, allow-where-reference-blocks"
                            f" {side.get('unsafe_allows')}"
                        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, regressed = compare(documents[0], documents[1], spec)
    print("\n".join(lines))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
