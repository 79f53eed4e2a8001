"""Mining-service configuration (import-light: the gateway embeds it)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: The two operating modes of the service. ``propose_only`` mines and
#: parks candidates for an operator's MINE/APPROVE; ``auto_promote``
#: additionally submits floor-clearing candidates to shadow mode and
#: promotes them once the gates pass.
MODES = ("propose_only", "auto_promote")


@dataclass(frozen=True)
class MiningConfig:
    """Tuning knobs for the background mining service.

    ``min_support`` / ``min_confidence`` are the aumai-policyminer-style
    score floor in [0, 1]: *support* is the share of the audit window
    that directly evidences a candidate, *confidence* is how cleanly the
    candidate explains that evidence (gap-fill: fraction of its source
    observations the generalized view re-derives; tightening: fraction
    of current-version allows justified without the removed view). A
    candidate below either floor is parked, never auto-submitted.
    """

    #: Seconds between background mining cycles (``MiningService.start``).
    interval_s: float = 30.0
    #: Most recent audit entries the miner considers (the window).
    window_cap: int = 4096
    #: Entries required before the first mining pass runs.
    min_window: int = 8
    #: Score floor (see class docstring).
    min_support: float = 0.01
    min_confidence: float = 0.9
    #: ``propose_only`` or ``auto_promote``.
    mode: str = "propose_only"
    #: New candidates emitted per mining cycle, most-supported first.
    max_candidates_per_cycle: int = 4
    #: Example decision ids stamped into each candidate's provenance.
    max_examples: int = 8
    #: (table, column) opacity hints forwarded to the trace miner.
    opaque_columns: frozenset = frozenset()
    #: Bound on each in-process audit subscription queue; overflow is
    #: counted (``audit_dropped``), never silent.
    subscription_cap: int = 8192

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mining mode {self.mode!r}; expected {MODES}")
        for name in ("min_support", "min_confidence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.window_cap < 1 or self.min_window < 1:
            raise ValueError("window_cap and min_window must be >= 1")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")

    def fingerprint(self) -> str:
        """A stable hash of every knob that shapes mining *output*.

        Stamped into each candidate's provenance so an auditor can tell
        whether two candidate sets came from the same miner settings.
        Queue plumbing is excluded: it cannot change what is mined.
        """
        payload = json.dumps(
            {
                "window_cap": self.window_cap,
                "min_window": self.min_window,
                "min_support": self.min_support,
                "min_confidence": self.min_confidence,
                "max_candidates_per_cycle": self.max_candidates_per_cycle,
                "max_examples": self.max_examples,
                "opaque_columns": sorted(map(list, self.opaque_columns)),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]
