"""E19 — Continuous policy mining from the live decision audit.

Three questions about the ``repro.mining`` subsystem, each answered
end-to-end through the real serving stack (gateway → audit stream →
miner → shadow → promotion gates):

1. **E19a — seeded gaps are found and healed, safely.** A calendar and
   a hospital deployment each start on their ground-truth policy, take
   live traffic, then suffer an operator mistake: a hot reload to a
   policy missing one view. Subsequent traffic hits the gap (blocked
   queries the old policy allowed). The mining service, tapping the
   decision audit, mines a gap-filling candidate from the pre-reload
   allows, auto-submits it to shadow, and promotes it through the
   gates. The oracle replays **every** audited allow against the
   promoted policy with a fresh checker: zero may flip to block.

2. **E19b — unexercised views are tightened.** Traffic that only ever
   exercises a subset of the policy's views. The miner proposes
   dropping the unused views; the strongest candidate shadows the same
   live traffic (zero divergences, because nothing used the view) and
   is promoted under the tightening gates. The same replay oracle
   certifies zero over-blocking.

3. **E19c — a regressive candidate never goes live.** A deliberately
   bad tightening candidate (dropping the view every live query needs)
   is submitted to the service. Shadow traffic flips allow→block, the
   gates reject it with §5 diagnoses attached to the candidate's
   disposition record, and the active epoch never changes.

``E19_QUICK=1`` shrinks sizes for CI smoke runs. Marked ``slow``.
"""

import os

import pytest

from repro.bench.harness import print_table
from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.lifecycle import GateConfig, LifecycleManager
from repro.mining import MinedCandidate, MiningConfig
from repro.policy.policy import Policy
from repro.serve import EnforcementGateway, GatewayConfig
from repro.workloads import calendar_app

from conftest import OPAQUE_HINTS, fresh_app

pytestmark = pytest.mark.slow

QUICK = os.environ.get("E19_QUICK", "") not in ("", "0")


# Per-app live-traffic shapes: (allowed probes, the gap view to seed,
# one query only that view justifies).
SCENARIOS = {
    "calendar": {
        "gap_view": "V2",
        "probes": [
            "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = {i}",
            "SELECT Name FROM Users WHERE UId = 1",
        ],
        "gap_query": "SELECT * FROM Events WHERE EId = 2",
    },
    "hospital": {
        "gap_view": "VT",
        "probes": [
            "SELECT PId, Name, DId FROM Patients WHERE PId = {i}",
            "SELECT DId, Name FROM Doctors WHERE DId = {i}",
        ],
        "gap_query": "SELECT DId, Disease FROM DoctorDiseases WHERE DId = 1",
    },
}


def without_view(policy: Policy, name: str) -> Policy:
    return Policy([v for v in policy.views if v.name != name], name=f"minus-{name}")


def make_mining_stack(name: str, mode: str, shadow_checks: int):
    app, db = fresh_app(name, size=10)
    if name == "calendar" and db.query(
        "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"
    ).is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(
        db,
        app.ground_truth_policy(),
        GatewayConfig(
            mining=MiningConfig(
                min_window=4, mode=mode, opaque_columns=OPAQUE_HINTS[name]
            )
        ),
    )
    manager = LifecycleManager(
        gateway, gates=GateConfig(min_shadow_checks=shadow_checks)
    )
    return app, db, gateway, manager, manager.mining


def drive(connection, scenario, indices, with_gap_query=False):
    """Live traffic; returns how many queries the policy blocked."""
    blocked = 0
    for index in indices:
        for shape in scenario["probes"]:
            try:
                connection.query(shape.format(i=index))
            except PolicyViolation:
                blocked += 1
    if with_gap_query:
        try:
            connection.query(scenario["gap_query"])
        except PolicyViolation:
            blocked += 1
    return blocked


def replay_allows(db, policy, records):
    """The safety oracle: every audited allow, re-checked under
    ``policy`` with a fresh checker and the facts as of decision time.
    Returns (allows replayed, over-blocked)."""
    checker = ComplianceChecker(db.schema, policy)
    replayed = over_blocked = 0
    for record in records:
        if not record.allowed:
            continue
        replayed += 1
        fresh = checker.check(
            db.parse(record.sql), record.bindings, Trace.from_facts(record.facts)
        )
        if not fresh.allowed:
            over_blocked += 1
    return replayed, over_blocked


# --------------------------------------------------------------------------
# E19a — seeded gap mined from live audit, promoted, zero over-blocking
# --------------------------------------------------------------------------


def heal_seeded_gap(name: str, shadow_checks: int):
    scenario = SCENARIOS[name]
    app, db, gateway, manager, service = make_mining_stack(
        name, "auto_promote", shadow_checks
    )
    oracle = service.stream.subscribe(cap=1_000_000)
    truth = app.ground_truth_policy()
    connection = gateway.connect(1)

    # Live traffic under v1 — includes the gap-view-justified query.
    drive(connection, scenario, range(1, 6), with_gap_query=True)
    # The operator mistake: a reload that silently loses one view.
    manager.reload(without_view(truth, scenario["gap_view"]), label="ops-mistake")
    blocked = drive(connection, scenario, range(1, 4), with_gap_query=True)
    assert blocked >= 1  # the gap is live: old allows now block

    # The cycle may also propose tightening unused views; the gap-fill
    # (mined first) takes the single shadow slot.
    first = service.run_once()
    gap_fills = [
        service.candidates[f]
        for f in first["mined"]
        if service.candidates[f].kind == "gap-fill"
    ]
    assert len(gap_fills) == 1, first
    candidate = gap_fills[0]
    fingerprint = candidate.fingerprint
    assert candidate.status == "shadowing"  # auto-submitted

    # Shadow traffic: fresh statement shapes, enough for the gate floor.
    drive(connection, scenario, range(20, 20 + shadow_checks + 4))
    second = service.run_once()
    assert second["progressed"]["action"] == "promoted", second

    healed = gateway.connect(1).query(scenario["gap_query"])
    replayed, over_blocked = replay_allows(db, gateway.policy, [
        entry.record for entry in oracle.drain()
    ])
    row = (
        name,
        scenario["gap_view"],
        second["window"],
        fingerprint[:8],
        round(candidate.support, 3),
        round(candidate.confidence, 2),
        gateway.policy_version,
        replayed,
        over_blocked,
    )
    result = {
        "row": row,
        "promoted": service.promoted,
        "version": gateway.policy_version,
        "provenance": gateway.policy.meta.get("provenance"),
        "healed_rows": len(healed),
        "over_blocked": over_blocked,
        "actions": [
            e["action"]
            for e in service.disposition_audit()
            if e["fingerprint"] == fingerprint
        ],
    }
    service.close()
    gateway.close()
    return result


# --------------------------------------------------------------------------
# E19b — unused views tightened away, zero over-blocking
# --------------------------------------------------------------------------


def tighten_unused_views(shadow_checks: int):
    app, db, gateway, manager, service = make_mining_stack(
        "calendar", "auto_promote", shadow_checks
    )
    oracle = service.stream.subscribe(cap=1_000_000)
    truth = app.ground_truth_policy()
    used = {"V1", "V3"}  # the only views this deployment's traffic needs
    connection = gateway.connect(1)
    scenario = SCENARIOS["calendar"]

    drive(connection, scenario, range(1, 8))
    first = service.run_once()
    tightens = [
        service.candidates[f]
        for f in first["mined"]
        if service.candidates[f].kind == "tighten"
    ]
    assert tightens, first
    shadowing = [c for c in tightens if c.status == "shadowing"]
    assert len(shadowing) == 1  # one shadow slot: strongest goes first
    dropped = shadowing[0].view_name
    assert dropped not in used

    drive(connection, scenario, range(20, 20 + shadow_checks + 4))
    second = service.run_once()
    assert second["progressed"]["action"] == "promoted", second
    assert len(gateway.policy) == len(truth) - 1

    replayed, over_blocked = replay_allows(db, gateway.policy, [
        entry.record for entry in oracle.drain()
    ])
    proposed = sorted(c.view_name for c in tightens)
    row = (
        "calendar",
        ",".join(proposed),
        dropped,
        round(shadowing[0].support, 3),
        gateway.policy_version,
        replayed,
        over_blocked,
    )
    result = {
        "row": row,
        "dropped": dropped,
        "proposed": proposed,
        "version": gateway.policy_version,
        "over_blocked": over_blocked,
        "policy_len": len(gateway.policy),
        "truth_len": len(truth),
    }
    service.close()
    gateway.close()
    return result


# --------------------------------------------------------------------------
# E19c — a regressive candidate is rejected and never reaches the epoch
# --------------------------------------------------------------------------


def reject_regressive_candidate(shadow_checks: int):
    app, db, gateway, manager, service = make_mining_stack(
        "calendar", "propose_only", shadow_checks
    )
    truth = app.ground_truth_policy()
    regressive = without_view(truth, "V1")  # every live probe needs V1
    candidate = MinedCandidate(
        kind="tighten",
        policy=regressive,
        view_name="V1",
        view_sql=truth.view("V1").sql,
        fingerprint=regressive.fingerprint(),
        support=1.0,
        confidence=1.0,
        window=(1, 1),
        examples=(),
        miner_fingerprint=service.config.fingerprint(),
        source_version=1,
    )
    service.submit(candidate)
    connection = gateway.connect(1)
    drive(connection, SCENARIOS["calendar"], range(1, shadow_checks + 5))
    progressed = service.run_once()["progressed"]
    rejected_entries = [
        entry
        for entry in service.disposition_audit()
        if entry["action"] == "rejected"
    ]
    row = (
        "tighten minus-V1 (live traffic needs V1)",
        progressed["action"],
        len(candidate.diagnoses),
        str(candidate.diagnoses[0]).splitlines()[0] if candidate.diagnoses else "-",
        gateway.policy_version,
    )
    result = {
        "row": row,
        "action": progressed["action"],
        "diagnoses": candidate.diagnoses,
        "version": gateway.policy_version,
        "status": candidate.status,
        "audited": bool(rejected_entries and rejected_entries[0]["diagnoses"]),
    }
    service.close()
    gateway.close()
    return result


def test_e19_mining(benchmark, capsys):
    shadow_checks = 6 if QUICK else 24

    gap_results = [
        heal_seeded_gap(name, shadow_checks) for name in ("calendar", "hospital")
    ]
    tighten_result = tighten_unused_views(shadow_checks)
    reject_result = reject_regressive_candidate(shadow_checks)

    # The measured pass: one full mining cycle (drain → mine → disposition)
    # over a settled window on an idle service.
    app, db, gateway, manager, service = make_mining_stack(
        "calendar", "propose_only", shadow_checks
    )
    connection = gateway.connect(1)
    drive(connection, SCENARIOS["calendar"], range(1, 10))
    benchmark.pedantic(service.run_once, rounds=5, iterations=1)
    service.close()
    gateway.close()

    with capsys.disabled():
        print_table(
            "E19a",
            "seeded policy gap mined from live audit and healed (replay oracle)",
            [
                "app",
                "gap view",
                "window",
                "candidate",
                "support",
                "confidence",
                "active ver",
                "allows replayed",
                "over-blocked",
            ],
            [r["row"] for r in gap_results],
        )
        print_table(
            "E19b",
            "unexercised views tightened away (replay oracle)",
            [
                "app",
                "proposed drops",
                "promoted drop",
                "support",
                "active ver",
                "allows replayed",
                "over-blocked",
            ],
            [tighten_result["row"]],
        )
        print_table(
            "E19c",
            "regressive candidate rejected with diagnoses, epoch untouched",
            ["candidate", "disposition", "diagnoses", "first diagnosis", "active ver"],
            [reject_result["row"]],
        )

    # E19a: both apps mined exactly the gap, promoted it through the
    # gates, healed live traffic, and over-blocked nothing.
    for result in gap_results:
        assert result["promoted"] == 1
        assert result["version"] == 3
        assert result["provenance"] == "mined"
        assert result["healed_rows"] >= 1
        assert result["over_blocked"] == 0
        assert result["actions"] == ["mined", "shadowing", "promoted"]
    # E19b: a tightening candidate for an unused view was mined and
    # promoted with zero over-blocking.
    assert tighten_result["dropped"] in tighten_result["proposed"]
    assert tighten_result["policy_len"] == tighten_result["truth_len"] - 1
    assert tighten_result["over_blocked"] == 0
    # E19c: the regressive candidate was rejected with §5 diagnoses in
    # the disposition audit and never reached the active epoch.
    assert reject_result["action"] == "rejected"
    assert reject_result["status"] == "rejected"
    assert reject_result["diagnoses"]
    assert reject_result["audited"]
    assert reject_result["version"] == 1
