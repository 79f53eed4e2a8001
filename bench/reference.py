"""Reference outcomes: the one slow path every round is checked against.

Per statement the reference is ``(allowed, digest of the answer)``,
computed with the in-process checker on its own database copy with every
fast path off — no compiled templates (``allow_compiled=False``), no
decision cache, ``relalg.memo`` disabled — replaying each session's own
history. A round's outcome that differs in allow/block or in the row
digest is a failure; an Allow where the reference Blocks is counted
separately because it is the one unsafe direction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.enforce.checker import ComplianceChecker
from repro.enforce.decision import PolicyViolation
from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.relalg import memo
from repro.sqlir import ast
from repro.sqlir.params import bind_parameters

from bench.workloads import Stream

#: (allowed, answer digest); blocked statements have an empty digest.
Outcome = tuple[bool, str]
BLOCKED: Outcome = (False, "")


def digest_answer(answer: Result | int) -> str:
    """Digest of a SELECT's columns+rows or a write's row count. JSON
    first, so tuples (in-process) and lists (off the wire) agree."""
    if isinstance(answer, Result):
        body = json.dumps([list(answer.columns), answer.rows], separators=(",", ":"))
    else:
        body = f"rowcount:{answer}"
    return hashlib.md5(body.encode()).hexdigest()[:12]


def outcome_of(answer: object) -> Outcome | None:
    """Map what a connection returned (or raised) to an outcome; ``None``
    for anything that is neither an answer nor a policy block."""
    if isinstance(answer, (Result, int)):
        return (True, digest_answer(answer))
    if isinstance(answer, PolicyViolation):
        return BLOCKED
    return None


@dataclass(frozen=True)
class Reference:
    """Reference outcomes for a stream's timed statements, in replay order."""

    outcomes: tuple[Outcome, ...]
    #: Certified trace facts at the end of each timed session.
    facts_at_end: tuple[int, ...]
    #: Most trace facts any blocked check had to consider.
    blocked_facts: int = 0

    @property
    def blocked_share(self) -> float:
        return sum(1 for allowed, _ in self.outcomes if not allowed) / len(self.outcomes)


def compute_reference(stream: Stream) -> Reference:
    db = stream.make_database()
    checker = ComplianceChecker(db.schema, stream.make_app().ground_truth_policy())
    outcomes: list[Outcome] = []
    facts_at_end: list[int] = []
    blocked_facts = 0
    memo_was_on = memo.set_memoization(False)
    try:
        for session in stream.timed:
            trace = Trace()
            for sql, args in session.statements:
                stmt = db.parse(sql)
                if not isinstance(stmt, ast.Select):
                    outcomes.append((True, digest_answer(db.sql(stmt, args))))
                    continue
                bound = bind_parameters(stmt, args, None)
                decision = checker.check(
                    bound, session.bindings, trace, allow_compiled=False
                )
                if not decision.allowed:
                    outcomes.append(BLOCKED)
                    blocked_facts = max(blocked_facts, decision.facts_considered)
                    continue
                result = db.sql(bound)
                query = checker.translate(bound)
                single = (
                    query.disjuncts[0]
                    if query is not None and len(query.disjuncts) == 1
                    else None
                )
                trace.record(decision.sql, single, result)
                outcomes.append((True, digest_answer(result)))
            facts_at_end.append(len(trace.facts))
    finally:
        memo.set_memoization(memo_was_on)
    return Reference(tuple(outcomes), tuple(facts_at_end), blocked_facts)


@dataclass
class Verdict:
    """How one round's outcomes compare with the reference."""

    attempted: int = 0
    failed: int = 0
    #: Allowed by the program, blocked by the reference: the unsafe direction.
    unsafe_allows: int = 0

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unsafe_allows += other.unsafe_allows


def judge(answers: list[object], reference: Reference) -> Verdict:
    """Compare raw per-statement answers (results, row counts, raised
    exceptions) with the reference; errors and refusals count as failed."""
    verdict = Verdict(attempted=len(reference.outcomes))
    verdict.failed = abs(len(answers) - len(reference.outcomes))
    for answer, expected in zip(answers, reference.outcomes):
        outcome = outcome_of(answer)
        if outcome != expected:
            verdict.failed += 1
            if outcome is not None and outcome[0] and not expected[0]:
                verdict.unsafe_allows += 1
    return verdict
