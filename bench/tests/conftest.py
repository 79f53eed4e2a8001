"""Path set-up and tiny streams for the benchmark's own tests.

Run with ``python -m pytest bench/tests -q`` from the repo root.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
# What run.py pins before it imports anything; servers inherit it.
os.environ.setdefault("PYTHONHASHSEED", "0")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every stream so a full run of a workload takes a moment."""
    from bench import replay, run, workloads

    monkeypatch.setattr(workloads, "HIT_SESSION_LEN", 12)
    monkeypatch.setattr(workloads, "HIT_SESSIONS", 4)
    monkeypatch.setattr(workloads, "MISS_WARMUP_SESSIONS", 2)
    monkeypatch.setattr(workloads, "MISS_TIMED_SESSIONS", 6)
    monkeypatch.setattr(workloads, "CHURN_RELOAD_EVERY", 20)
    monkeypatch.setattr(workloads, "LONG_SESSION_LEN", 30)
    monkeypatch.setattr(workloads, "LONG_WARMUP_SESSIONS", 1)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    monkeypatch.setattr(replay, "CALIBRATION_ITERATIONS", 1000)
