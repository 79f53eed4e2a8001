"""Decision objects and the violation exception."""

from __future__ import annotations

from dataclasses import dataclass

from repro.relalg.rewrite import Rewriting
from repro.sqlir import ast
from repro.sqlir.printer import to_sql
from repro.util.errors import DbacError

#: How the reason of a Block starts when the check ran out of search
#: budget (``repro.enforce.checker.CHECK_STEP_BUDGET``) instead of
#: deciding: fail closed, never templated.
BUDGET_REASON = "budget:"


@dataclass
class Decision:
    """The outcome of vetting one query.

    ``rewritings`` holds, for an allowed query, one witnessing equivalent
    rewriting per disjunct — the machine-checkable justification that the
    query's answer is computable from the policy views and trace facts.

    ``sql`` reads as the decided statement's SQL text. It may be given as
    the bound statement itself, which is then printed on first read: a
    cache hit builds a decision per request, and most are never printed.
    """

    allowed: bool
    sql: str
    reason: str
    rewritings: tuple[Rewriting, ...] = ()
    #: Every trace fact the justification conjoined into the query — the
    #: decision is only valid while these facts are certified, so the
    #: cache template requires them all.
    facts_used: tuple = ()
    from_cache: bool = False
    duration_s: float = 0.0
    #: Certified facts in the relations that bear on the check (its
    #: relevant relations) when it ran.
    facts_considered: int = 0
    #: Of those, the facts that could help — they survived the checker's
    #: pruning (docs/compliance.md, "Which facts can help a check"). A
    #: Block with none is the Block an empty trace gets.
    facts_kept: int = 0
    #: Which policy generation decided this statement (stamped by the
    #: gateway; ``None`` for bare-proxy decisions, which have no epochs).
    policy_version: int | None = None

    @property
    def over_budget(self) -> bool:
        """A Block because the check ran out of search budget."""
        return not self.allowed and self.reason.startswith(BUDGET_REASON)

    def describe(self) -> str:
        verdict = "ALLOW" if self.allowed else "BLOCK"
        origin = " (cached)" if self.from_cache else ""
        return f"{verdict}{origin}: {self.sql} — {self.reason}"

    def explain(self) -> str:
        """A multi-line justification an operator can audit.

        For an allowed query, shows the witnessing rewriting per disjunct
        (which views compute the answer) and the certified trace facts it
        leaned on; for a blocked one, restates what was missing.
        """
        lines = [self.describe()]
        for position, rewriting in enumerate(self.rewritings):
            prefix = f"  disjunct {position}: " if len(self.rewritings) > 1 else "  "
            lines.append(f"{prefix}answer = {rewriting.describe()}")
        if self.facts_used:
            lines.append("  certified trace facts relied upon:")
            for fact in self.facts_used:
                lines.append(f"    {fact!r}")
        if not self.allowed and not self.from_cache and "fragment" not in self.reason:
            lines.append(
                "  (no combination of policy views — together with certified"
                " trace facts, if any — computes this query's answer)"
            )
        return "\n".join(lines)


def _sql(self: Decision) -> str:
    sql = self._sql
    if isinstance(sql, ast.Statement):
        sql = self._sql = to_sql(sql)
    return sql


def _set_sql(self: Decision, sql: str | ast.Statement) -> None:
    self._sql = sql


# Installed after the class body: inside it, ``sql = property(...)`` would
# read to @dataclass as the field's default value.
Decision.sql = property(_sql, _set_sql)  # type: ignore[assignment]


class PolicyViolation(DbacError):
    """Raised by the proxy when a query is blocked.

    Carries the :class:`Decision` so diagnosis tooling (§5) can pick up
    exactly where enforcement left off.
    """

    def __init__(self, decision: Decision):
        super().__init__(decision.describe())
        self.decision = decision
