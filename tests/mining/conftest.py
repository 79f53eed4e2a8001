"""Shared mining-test fixtures: a calendar gateway wired for mining."""

from __future__ import annotations

import pytest

from repro.lifecycle import LifecycleManager
from repro.lifecycle.promote import GateConfig
from repro.mining import MiningConfig
from repro.mining import config as mining_config
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway
from repro.workloads import calendar_app


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    """Mine from 4 audit entries: these tests drive a handful of statements."""
    monkeypatch.setattr(mining_config, "MIN_WINDOW", 4)


@pytest.fixture
def calendar_pair():
    """(app, db) with the Example 2.1 attendance row guaranteed present."""
    app = calendar_app.make_app()
    db = app.make_database(size=10, seed=3)
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    return app, db


def make_mining_stack(
    app,
    db,
    mode: str = "auto_promote",
    min_shadow_checks: int = 5,
    **config_overrides,
):
    """Gateway + LifecycleManager with an attached MiningService."""
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    manager = LifecycleManager(
        gateway, gates=GateConfig(min_shadow_checks=min_shadow_checks)
    )
    service = manager.enable_mining(
        MiningConfig(mode=mode, **config_overrides)
    )
    return gateway, manager, service


def without_view(policy: Policy, name: str) -> Policy:
    return Policy(
        [v for v in policy.views if v.name != name], name=f"minus-{name}"
    )
