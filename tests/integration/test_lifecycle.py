"""The full life-cycle the paper argues for, as one integration flow:

extraction (§3) → evaluation (§4) → enforcement (§2.2) → diagnosis (§5).
"""

import random

import pytest

from repro.diagnose import diagnose
from repro.enforce import PolicyViolation
from repro.evaluate.nqi import check_nqi
from repro.evaluate.pqi import check_pqi
from repro.extract.symbolic import SymbolicExtractor
from repro.policy import compare_policies, policy_from_text, policy_to_text
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.workloads import calendar_app
from repro.workloads.runner import AppRunner


def test_extract_then_enforce_then_diagnose():
    app = calendar_app.make_app()
    db = app.make_database(12, seed=5)

    # 1. Policy creation (§3): extract a policy from the handlers.
    extractor = SymbolicExtractor(db.schema)
    extracted, _ = extractor.extract(list(app.handlers.values()))
    assert compare_policies(extracted, app.ground_truth_policy()).exact

    # 2. Policy evaluation (§4): check a sensitive query before deploying.
    views = extracted.view_defs({"MyUId": 1})
    sensitive = translate_select(
        parse_select("SELECT EId, Title, Time, Loc FROM Events"), db.schema
    ).disjuncts[0]
    # Attended events' details are disclosed by design (PQI), but the
    # policy places no bound on all events (no NQI).
    assert check_pqi(sensitive, views).holds
    assert not check_nqi(sensitive, views).holds

    # 3. Enforcement (§2.2): run the app behind the proxy with the
    # extracted policy — zero false blocks.
    requests = app.request_stream(db, random.Random(3), 40)
    gateway = EnforcementGateway(db, extracted)
    outcomes = AppRunner(app, db, mode="gateway", gateway=gateway).run_all(requests)
    assert all(not o.blocked for o in outcomes)

    # 4. A code update introduces an unchecked query; it gets blocked...
    proxy = gateway.connect(1)
    with pytest.raises(PolicyViolation):
        proxy.query("SELECT * FROM Events WHERE EId = 2")

    # ... and diagnosis (§5) produces validated patches.
    stmt = bind_parameters(
        parse_select("SELECT * FROM Events WHERE EId = ?"), [2]
    )
    report = diagnose(stmt, {"MyUId": 1}, extracted, db.schema)
    assert report.counterexample is not None
    assert report.access_check_patches or report.narrowing_patches


def test_policy_survives_serialization_roundtrip():
    app = calendar_app.make_app()
    db = app.make_database(10, seed=5)
    extractor = SymbolicExtractor(db.schema)
    extracted, _ = extractor.extract(list(app.handlers.values()))
    text = policy_to_text(extracted)
    restored = policy_from_text(text, db.schema)
    assert compare_policies(restored, extracted).exact

    # The restored policy enforces identically.
    gateway = EnforcementGateway(db, restored)
    proxy = gateway.connect(1)
    uid, eid = db.query("SELECT UId, EId FROM Attendance WHERE UId = 1").first()
    proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [uid, eid])
    proxy.query("SELECT * FROM Events WHERE EId = ?", [eid])
    assert gateway.metrics.counter("decisions_blocked") == 0


def test_patched_policy_unblocks_query():
    app = calendar_app.make_app()
    db = app.make_database(10, seed=5)
    policy = app.ground_truth_policy()
    stmt = bind_parameters(parse_select("SELECT * FROM Users WHERE UId = ?"), [1])
    gapped = type(policy)([v for v in policy.views if v.name != "V3"], name="gapped")
    report = diagnose(stmt, {"MyUId": 1}, gapped, db.schema)
    assert report.policy_patches
    patched = report.policy_patches[0].apply(gapped)
    proxy = EnforcementGateway(db, patched).connect(1)
    result = proxy.query("SELECT * FROM Users WHERE UId = ?", [1])
    assert len(result) == 1
