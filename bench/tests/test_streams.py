"""Streams are a pure function of the seed and keep their shape."""

from collections import Counter

import pytest

from bench import workloads
from bench.reference import BLOCKED, Reference, compute_reference, judge


@pytest.mark.parametrize("build", ["hit_stream", "churn_stream", "miss_stream", "long_stream"])
def test_same_seed_same_stream(tiny, build):
    first = getattr(workloads, build)(3)
    again = getattr(workloads, build)(3)
    other = getattr(workloads, build)(4)
    assert first.digest == again.digest and first == again
    assert first.digest != other.digest
    # Another seed is another order (and other literals), never another
    # amount of work.
    assert first.statements == other.statements


def test_seed_permutes_the_hit_stream(tiny):
    def multiset(stream):
        return Counter(s for session in stream.timed for s in session.statements)

    assert multiset(workloads.hit_stream(1)) == multiset(workloads.hit_stream(2))


def test_miss_literals_never_repeat(tiny):
    stream = workloads.miss_stream(5)
    statements = [
        s for session in stream.warmup + stream.timed for s in session.statements
    ]
    assert len(set(statements)) == len(statements)
    reference = compute_reference(stream)
    per_session = workloads.MISS_SESSION_LEN
    for index, (allowed, _) in enumerate(reference.outcomes):
        # Blocked probes sit at positions 0 and 2 of every session only.
        assert allowed == (index % per_session not in (0, 2))
    assert reference.blocked_facts == 1  # the second probe sees the guard's fact


def test_churn_interleaves_identity_writes(tiny):
    stream = workloads.churn_stream(1)
    writes = [
        sql for session in stream.timed for sql, _ in session.statements
        if sql.startswith("UPDATE")
    ]
    assert writes and stream.reload_every > 0
    reference = compute_reference(stream)
    plain = compute_reference(workloads.hit_stream(1))
    selects = [
        outcome
        for outcome, (sql, _) in zip(
            reference.outcomes, (s for x in stream.timed for s in x.statements)
        )
        if sql.startswith("SELECT")
    ]
    assert selects == list(plain.outcomes)  # identity writes change no answer


def test_judge_counts_the_unsafe_direction():
    from repro.engine.executor import Result

    allowed = (True, "x")
    reference = Reference((BLOCKED, allowed, allowed), (0,))
    leaked = Result(columns=["a"], rows=[(1,)])
    verdict = judge([leaked, leaked, RuntimeError("boom")], reference)
    assert verdict.attempted == 3
    assert verdict.failed == 3  # leak, wrong digest, error
    assert verdict.unsafe_allows == 1
