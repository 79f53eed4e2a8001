"""Blockaid-style access-control enforcement (the paper's concrete setting).

An :class:`EnforcementProxy` — one request's session, opened by
:meth:`repro.serve.EnforcementGateway.connect` — wraps a database
connection; each SELECT is
intercepted and either executed as-is or blocked outright — never modified
(§2.2, first trait). Compliance is decided against a view-based policy,
taking the history of prior queries and their results into account
(Example 2.1), with a decision-template cache to amortize repeated
decisions.
"""

from repro.enforce.decision import Decision, PolicyViolation
from repro.enforce.trace import Trace
from repro.enforce.checker import ComplianceChecker
from repro.enforce.cache import DecisionCache
from repro.enforce.proxy import EnforcementProxy, Session
from repro.enforce.baselines import DirectConnection, RowLevelSecurityProxy

__all__ = [
    "ComplianceChecker",
    "Decision",
    "DecisionCache",
    "DirectConnection",
    "EnforcementProxy",
    "PolicyViolation",
    "RowLevelSecurityProxy",
    "Session",
    "Trace",
]
