"""dbac — Access Control for Database Applications, Beyond Policy Enforcement.

A full reproduction of the HotOS '23 paper by Zhang, Panda, and Shenker:
a Blockaid-style view-based enforcement proxy (§2.2) plus working
implementations of the paper's three "beyond enforcement" proposals —
policy extraction (§3), prior-agnostic policy evaluation (§4), and
violation diagnosis (§5) — over an in-memory relational engine and a
from-scratch conjunctive-query reasoning stack.

Quickstart::

    from repro import EnforcementGateway
    from repro.workloads import calendar_app

    db = calendar_app.make_database(size=20, seed=7)
    policy = calendar_app.ground_truth_policy()
    proxy = EnforcementGateway(db, policy).connect(1)
    proxy.query("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", [1, 2])
    proxy.query("SELECT * FROM Events WHERE EId = ?", [2])  # allowed via history

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment results.
"""

from repro.engine import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Result,
    Schema,
    TableSchema,
    available_backends,
    open_database,
)
from repro.enforce import (
    ComplianceChecker,
    Decision,
    DecisionCache,
    DirectConnection,
    EnforcementProxy,
    PolicyViolation,
    RowLevelSecurityProxy,
    Session,
    Trace,
)
from repro.policy import Policy, View, compare_policies, policy_from_text, policy_to_text
from repro.serve import EnforcementGateway
from repro.util.errors import DbacError

__version__ = "0.1.0"

__all__ = [
    "Column",
    "ColumnType",
    "ComplianceChecker",
    "Database",
    "DbacError",
    "Decision",
    "DecisionCache",
    "DirectConnection",
    "EnforcementGateway",
    "EnforcementProxy",
    "ForeignKey",
    "Policy",
    "PolicyViolation",
    "Result",
    "RowLevelSecurityProxy",
    "Schema",
    "Session",
    "TableSchema",
    "Trace",
    "View",
    "available_backends",
    "compare_policies",
    "open_database",
    "policy_from_text",
    "policy_to_text",
    "__version__",
]
