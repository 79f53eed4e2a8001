"""Shared benchmark fixtures and helpers.

Each benchmark module regenerates one experiment from DESIGN.md §3 and
prints its table/figure series (visible with ``pytest benchmarks/
--benchmark-only``; tables bypass capture so they always show).
"""

from __future__ import annotations

import random

import pytest

from repro.workloads import APPS

#: Opaque-identifier hints per app, used by the mining experiments.
OPAQUE_HINTS = {
    "calendar": frozenset(
        {
            ("Attendance", "EId"),
            ("Attendance", "UId"),
            ("Events", "EId"),
            ("Users", "UId"),
        }
    ),
    "hospital": frozenset(
        {
            ("Patients", "PId"),
            ("Doctors", "DId"),
            ("DoctorDiseases", "DId"),
            ("Patients", "DId"),
        }
    ),
    "employees": frozenset({("Employees", "EId")}),
    "social": frozenset(
        {
            ("Posts", "PId"),
            ("Posts", "Author"),
            ("Users", "UId"),
            ("Friendships", "UId1"),
            ("Friendships", "UId2"),
            ("Comments", "PId"),
        }
    ),
}


@pytest.fixture(scope="session")
def rng():
    return random.Random(2026)


def fresh_app(
    name: str,
    size: int | None = None,
    seed: int = 3,
    backend: str | None = None,
    db_path: str | None = None,
):
    module = APPS[name]
    app = module.make_app()
    db = app.make_database(
        size or app.default_size, seed, backend=backend, db_path=db_path
    )
    return app, db
