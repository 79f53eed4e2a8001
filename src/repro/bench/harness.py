"""Table/figure rendering for the experiment suite.

Each benchmark module prints its experiment's table or figure series in a
stable plain-text format so EXPERIMENTS.md can quote results verbatim.
Results are also appended to ``bench_results/`` as tab-separated files
when the directory exists, for post-processing.
"""

from __future__ import annotations

import os
import platform
import subprocess
from collections.abc import Sequence

_RESULTS_DIR = os.environ.get("DBAC_BENCH_RESULTS", "bench_results")


def provenance_lines() -> list[str]:
    """``#``-comment header lines stamped into every recorded TSV.

    Benchmark numbers are meaningless without knowing what produced
    them: the commit, the interpreter, and how many cores the machine
    had.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return [
        f"# commit: {commit}",
        f"# python: {platform.python_version()}",
        f"# cpus: {os.cpu_count()}",
    ]


def format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def print_table(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Print one experiment table and optionally record it."""
    rendered = [[format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered else len(str(headers[i]))
        for i in range(len(headers))
    ]
    print()
    print(f"== {experiment}: {title} ==")
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(header_line)
    print("-" * len(header_line))
    for row in rendered:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    record_result(experiment, headers, rendered)


def print_figure_series(
    experiment: str,
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[object]],
) -> None:
    """Print a figure as aligned columns: x plus one column per series."""
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(values[i] for values in series.values())]
        for i, x in enumerate(x_values)
    ]
    print_table(experiment, title + " (figure series)", headers, rows)


def record_result(
    experiment: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> None:
    """Append the table to bench_results/<experiment>.tsv if possible."""
    if not os.path.isdir(_RESULTS_DIR):
        return
    path = os.path.join(_RESULTS_DIR, f"{experiment}.tsv")
    with open(path, "w", encoding="utf-8") as handle:
        for line in provenance_lines():
            handle.write(line + "\n")
        handle.write("\t".join(str(h) for h in headers) + "\n")
        for row in rows:
            handle.write("\t".join(str(c) for c in row) + "\n")
