"""Mining candidate policies out of a decision-audit window.

Two candidate kinds, both derived purely from what the gateway audited:

* **gap-filling** — an allowed decision the *current* policy version
  cannot re-derive (it was allowed under an earlier version, and the gap
  appeared when the policy changed). Matching observations are grouped
  by query skeleton and generalized through the §3 trace miner
  (:class:`repro.extract.miner.TraceMiner` over synthetic single-event
  traces; active discovery is off — an audit record cannot be re-run);
  each generalized view yields one candidate ``current ∪ {view}``.
* **tightening** — a view of the current policy that no audited allow's
  justification ever leaned on, over a window with enough
  current-version traffic to mean something; the candidate is
  ``current ∖ {view}``.

Every candidate carries aumai-style ``support``/``confidence`` scores in
[0, 1], the source window bounds, example decision ids, and the
miner-config fingerprint — stamped both on the dataclass and into the
candidate policy's ``# @…`` provenance annotations so the metadata
survives text serialization and the wire.

Mining is deterministic: the window is canonically ordered before
grouping, so the same entries produce byte-identical candidates (and
fingerprints) regardless of ingest order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.enforce.trace import Trace
from repro.engine.executor import Result
from repro.extract.miner import MinerConfig, QueryEvent, RequestTrace, TraceMiner
from repro.mining.config import MiningConfig
from repro.mining.stream import AuditEntry
from repro.policy.policy import Policy
from repro.policy.serialize import policy_to_text
from repro.policy.view import View
from repro.sqlir import ast
from repro.sqlir.skeleton import skeletonize
from repro.util.errors import DbacError
from repro.workloads.runner import Request

#: Session-attribute prefix used when rebuilding miner sessions from
#: audit bindings (the trace miner matches slots against session attrs).
_BINDING_ATTR = "binding:"


@dataclass
class MinedCandidate:
    """One scored candidate policy with full provenance."""

    kind: str  # "gap-fill" | "tighten"
    policy: Policy
    view_name: str  # the view added (gap-fill) or removed (tighten)
    view_sql: str
    fingerprint: str  # Policy.fingerprint() of the candidate
    support: float
    confidence: float
    window: tuple[int, int]  # first/last audit decision id considered
    examples: tuple[int, ...]  # example decision ids evidencing it
    miner_fingerprint: str
    source_version: int  # the active policy version mined against
    status: str = "proposed"  # proposed|parked|shadowing|promoted|rejected
    disposition: str = ""  # why the status is what it is
    diagnoses: tuple[str, ...] = ()  # §5 diagnoses attached on rejection

    def to_wire(self) -> dict:
        """JSON-able summary for MINE/CANDIDATES and the STATS section."""
        return {
            "kind": self.kind,
            "view": self.view_name,
            "view_sql": self.view_sql,
            "fingerprint": self.fingerprint,
            "support": round(self.support, 4),
            "confidence": round(self.confidence, 4),
            "window": list(self.window),
            "examples": list(self.examples),
            "miner_fingerprint": self.miner_fingerprint,
            "source_version": self.source_version,
            "status": self.status,
            "disposition": self.disposition,
            "diagnoses": list(self.diagnoses),
            "views": len(self.policy),
            "text": policy_to_text(self.policy),
        }


@dataclass
class MiningPassReport:
    """What one mining pass saw (for STATS)."""

    window: int = 0
    allows: int = 0
    blocks: int = 0
    underivable_allows: int = 0
    skipped_unparseable: int = 0
    gap_groups: int = 0
    candidates: list[MinedCandidate] = field(default_factory=list)


class AuditMiner:
    """Stateless candidate extraction over one audit window."""

    def __init__(self, db, config: MiningConfig | None = None):
        self.db = db
        self.config = config or MiningConfig()

    # -- the mining pass ----------------------------------------------------------

    def mine(
        self,
        current: Policy,
        current_version: int,
        window: list[AuditEntry],
    ) -> MiningPassReport:
        report = MiningPassReport(window=len(window))
        if not window:
            return report
        # Canonical order: grouping and view naming must not depend on
        # ingest order (the determinism property in tests/properties).
        entries = sorted(
            window,
            key=lambda e: (
                e.record.sql,
                repr(sorted(e.record.bindings.items())),
                not e.record.allowed,
                e.id,
            ),
        )
        first_id = min(e.id for e in entries)
        last_id = max(e.id for e in entries)
        span = (first_id, last_id)
        miner_fp = self.config.fingerprint()

        checker = self._checker_for(current)
        gap_groups: dict[object, list[AuditEntry]] = {}
        uses: dict[str, int] = {view.name: 0 for view in current}
        current_version_allows = 0
        for entry in entries:
            record = entry.record
            if not record.allowed:
                report.blocks += 1
                continue
            report.allows += 1
            for name in getattr(record, "views", ()):
                if name in uses:
                    uses[name] += 1
            if record.policy_version == current_version:
                current_version_allows += 1
                continue  # the current policy itself allowed it: no gap
            parsed = self._parse_select(record.sql)
            if parsed is None:
                report.skipped_unparseable += 1
                continue
            if self._derivable(checker, parsed, record):
                continue
            report.underivable_allows += 1
            gap_groups.setdefault(skeletonize(parsed).statement, []).append(entry)
        report.gap_groups = len(gap_groups)

        candidates: list[MinedCandidate] = []
        seen = {current.fingerprint()}
        for group in sorted(
            gap_groups.values(), key=lambda g: min(e.record.sql for e in g)
        ):
            candidate = self._gap_candidate(
                current, current_version, group, len(entries), span, miner_fp
            )
            if candidate is not None and candidate.fingerprint not in seen:
                seen.add(candidate.fingerprint)
                candidates.append(candidate)

        if current_version_allows >= self.config.min_window and len(current) > 1:
            example_ids = tuple(
                sorted(
                    e.id
                    for e in entries
                    if e.record.allowed
                    and e.record.policy_version == current_version
                )[: self.config.max_examples]
            )
            for view in sorted(current, key=lambda v: v.name):
                if uses.get(view.name, 0) > 0:
                    continue
                candidate = self._tighten_candidate(
                    current,
                    current_version,
                    view,
                    current_version_allows,
                    len(entries),
                    span,
                    example_ids,
                    miner_fp,
                )
                if candidate.fingerprint not in seen:
                    seen.add(candidate.fingerprint)
                    candidates.append(candidate)

        report.candidates = candidates[: self.config.max_candidates_per_cycle]
        return report

    # -- gap-filling --------------------------------------------------------------

    def _gap_candidate(
        self,
        current: Policy,
        current_version: int,
        group: list[AuditEntry],
        window_size: int,
        span: tuple[int, int],
        miner_fp: str,
    ) -> MinedCandidate | None:
        mined = self._generalize(group)
        if mined is None:
            return None
        name = self._fresh_view_name(current)
        view = View(
            name,
            mined.ast,
            self.db.schema,
            f"mined gap-fill from audit window {span[0]}..{span[1]}",
        )
        policy = current.with_view(view)
        # Confidence: how cleanly the generalized view re-derives its own
        # source observations (a sloppy generalization scores below 1.0).
        candidate_checker = self._checker_for(policy)
        rederived = 0
        for entry in group:
            parsed = self._parse_select(entry.record.sql)
            if parsed is not None and self._derivable(
                candidate_checker, parsed, entry.record
            ):
                rederived += 1
        support = len(group) / window_size
        confidence = rederived / len(group)
        examples = tuple(sorted(e.id for e in group)[: self.config.max_examples])
        return self._finalize(
            kind="gap-fill",
            policy=policy,
            view_name=name,
            view_sql=view.sql,
            support=support,
            confidence=confidence,
            span=span,
            examples=examples,
            miner_fp=miner_fp,
            source_version=current_version,
        )

    def _generalize(self, group: list[AuditEntry]) -> View | None:
        """Run the §3 trace miner over one skeleton group of audit allows.

        Each audit record becomes a synthetic single-event trace: guards
        cannot be reconstructed from audit (no per-request grouping, no
        result rows), and active discovery is off (records cannot be
        re-run) — both conservative: the generalized view covers exactly
        the observed shape, slot by slot.
        """
        traces = []
        attrs: dict[str, str] = {}
        for entry in group:
            record = entry.record
            parsed = self._parse_select(record.sql)
            if parsed is None:
                continue
            session = {}
            for key in sorted(record.bindings):
                attr = f"{_BINDING_ATTR}{key}"
                attrs[attr] = key
                session[attr] = record.bindings[key]
            skeleton = skeletonize(parsed)
            traces.append(
                RequestTrace(
                    request=Request(handler="audit", params={}, session=session),
                    events=[
                        QueryEvent(
                            index=0,
                            sql_skeleton=skeleton,
                            values=skeleton.values,
                            result=Result(columns=[], rows=[]),
                            statement=parsed,
                        )
                    ],
                )
            )
        if not traces:
            return None
        miner = TraceMiner(
            None,
            self.db,
            MinerConfig(
                opaque_columns=self.config.opaque_columns,
                size_budget=None,
                active_discovery=False,
                session_params=attrs,
            ),
        )
        try:
            mined = miner.mine_traces(traces)
        except DbacError:
            return None
        views = mined.views
        return views[0] if views else None

    # -- tightening ---------------------------------------------------------------

    def _tighten_candidate(
        self,
        current: Policy,
        current_version: int,
        view: View,
        current_version_allows: int,
        window_size: int,
        span: tuple[int, int],
        examples: tuple[int, ...],
        miner_fp: str,
    ) -> MinedCandidate:
        policy = Policy(
            [v for v in current.views if v.name != view.name],
            name=current.name,
            meta=current.meta,
        )
        support = current_version_allows / window_size
        return self._finalize(
            kind="tighten",
            policy=policy,
            view_name=view.name,
            view_sql=view.sql,
            support=support,
            # No audited justification ever leaned on the view, so every
            # observed allow is explained without it.
            confidence=1.0,
            span=span,
            examples=examples,
            miner_fp=miner_fp,
            source_version=current_version,
        )

    # -- shared plumbing ----------------------------------------------------------

    def _finalize(
        self,
        kind: str,
        policy: Policy,
        view_name: str,
        view_sql: str,
        support: float,
        confidence: float,
        span: tuple[int, int],
        examples: tuple[int, ...],
        miner_fp: str,
        source_version: int,
    ) -> MinedCandidate:
        fingerprint = policy.fingerprint()
        policy.name = f"mined-{kind}-{fingerprint[:8]}"
        policy.meta = dict(policy.meta)
        policy.meta.update(
            {
                "provenance": "mined",
                "kind": kind,
                "window": f"{span[0]}..{span[1]}",
                "examples": ",".join(str(i) for i in examples),
                "miner": miner_fp,
                "support": f"{support:.4f}",
                "confidence": f"{confidence:.4f}",
                "source-version": str(source_version),
            }
        )
        return MinedCandidate(
            kind=kind,
            policy=policy,
            view_name=view_name,
            view_sql=view_sql,
            fingerprint=fingerprint,
            support=support,
            confidence=confidence,
            window=span,
            examples=examples,
            miner_fingerprint=miner_fp,
            source_version=source_version,
        )

    @staticmethod
    def _fresh_view_name(current: Policy) -> str:
        index = 1
        while f"G{index}" in current:
            index += 1
        return f"G{index}"

    def _checker_for(self, policy: Policy):
        from repro.enforce.checker import ComplianceChecker

        return ComplianceChecker(self.db.schema, policy, history_enabled=True)

    def _parse_select(self, sql: str) -> ast.Select | None:
        try:
            parsed = self.db.parse(sql)
        except DbacError:
            return None
        return parsed if isinstance(parsed, ast.Select) else None

    def _derivable(self, checker, parsed: ast.Select, record) -> bool:
        """Replay one audited decision against ``checker``."""
        try:
            return checker.check(
                parsed, record.bindings, Trace.from_facts(record.facts)
            ).allowed
        except DbacError:
            return False


def clears_floor(candidate: MinedCandidate, config: MiningConfig) -> bool:
    """Does the candidate meet the auto-submission score floor?"""
    return (
        candidate.support >= config.min_support
        and candidate.confidence >= config.min_confidence
    )


def reconcile_by_fingerprint(candidate_lists: list[list[dict]]) -> list[dict]:
    """Merge per-shard MINE/CANDIDATES replies by content fingerprint.

    Shards of a cluster mine from their own audit streams; the same
    traffic shape mined on two shards produces candidates with the same
    content fingerprint (``Policy.fingerprint()`` is ingest- and
    shard-independent). The router merges them into one entry carrying
    the per-shard supports and the union of example ids.
    """
    merged: dict[str, dict] = {}
    for shard_index, candidates in enumerate(candidate_lists):
        for candidate in candidates:
            fingerprint = candidate.get("fingerprint", "")
            entry = merged.get(fingerprint)
            if entry is None:
                entry = dict(candidate)
                entry["shards"] = []
                merged[fingerprint] = entry
            entry["shards"].append(
                {
                    "shard": shard_index,
                    "support": candidate.get("support", 0.0),
                    "confidence": candidate.get("confidence", 0.0),
                    "status": candidate.get("status", ""),
                }
            )
            # Headline score: the strongest shard's evidence.
            if candidate.get("support", 0.0) > entry.get("support", 0.0):
                for key in ("support", "confidence", "status", "disposition"):
                    if key in candidate:
                        entry[key] = candidate[key]
            examples = set(entry.get("examples", ())) | set(
                candidate.get("examples", ())
            )
            entry["examples"] = sorted(examples)
    return sorted(
        merged.values(),
        key=lambda c: (-c.get("support", 0.0), c.get("fingerprint", "")),
    )


__all__ = [
    "AuditMiner",
    "MinedCandidate",
    "MiningPassReport",
    "clears_floor",
    "reconcile_by_fingerprint",
]
