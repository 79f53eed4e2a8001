"""Blockaid-style access-control enforcement (the paper's concrete setting).

The :class:`EnforcementProxy` wraps a database connection; each SELECT is
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
from repro.enforce.proxy import EnforcementProxy, ProxyConfig, ProxyStats, Session
from repro.enforce.baselines import DirectConnection, RowLevelSecurityProxy

__all__ = [
    "ComplianceChecker",
    "Decision",
    "DecisionCache",
    "DirectConnection",
    "EnforcementProxy",
    "PolicyViolation",
    "ProxyConfig",
    "ProxyStats",
    "RowLevelSecurityProxy",
    "Session",
    "Trace",
]
