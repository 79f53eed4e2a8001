"""Mining-service configuration (import-light: the gateway embeds it).

The settings below shape what the miner emits; they are module
constants, read at call time, and :meth:`MiningConfig.fingerprint`
hashes them into every candidate's provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: The two operating modes of the service. ``propose_only`` mines and
#: parks candidates for an operator's MINE/APPROVE; ``auto_promote``
#: additionally submits floor-clearing candidates to shadow mode and
#: promotes them once the gates pass.
MODES = ("propose_only", "auto_promote")

#: Most recent audit entries the miner considers (the window).
WINDOW_CAP = 4096
#: Entries required before the first mining pass runs, and current-version
#: allows required before a tightening candidate is proposed.
MIN_WINDOW = 8
#: The aumai-policyminer-style score floor in [0, 1]: *support* is the
#: share of the audit window that directly evidences a candidate,
#: *confidence* is how cleanly the candidate explains that evidence
#: (gap-fill: fraction of its source observations the generalized view
#: re-derives; tightening: fraction of current-version allows justified
#: without the removed view). A candidate below either floor is parked,
#: never auto-submitted.
MIN_SUPPORT = 0.01
MIN_CONFIDENCE = 0.9
#: New candidates emitted per mining cycle, most-supported first.
MAX_CANDIDATES_PER_CYCLE = 4
#: Example decision ids stamped into each candidate's provenance.
MAX_EXAMPLES = 8
#: Bound on the service's audit subscription queue; overflow is counted
#: (``audit_dropped``), never silent.
SUBSCRIPTION_CAP = 8192


@dataclass(frozen=True)
class MiningConfig:
    """How the background mining service runs: how often, and whether
    it may promote on its own (``repro serve --mine-interval``,
    ``--mine-auto``)."""

    #: Seconds between background mining cycles (``MiningService.start``).
    interval_s: float = 30.0
    #: ``propose_only`` or ``auto_promote``.
    mode: str = "propose_only"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mining mode {self.mode!r}; expected {MODES}")
        if not self.interval_s > 0:
            raise ValueError("interval_s must be > 0")

    def fingerprint(self) -> str:
        """A stable hash of every setting that shapes mining *output*.

        Stamped into each candidate's provenance so an auditor can tell
        whether two candidate sets came from the same miner settings.
        The cycle interval and the mode are excluded: they cannot change
        what is mined. ``opaque_columns`` stays in the payload, empty
        (the audit miner passes no opacity hints), so the fingerprint of
        a default miner is unchanged.
        """
        payload = json.dumps(
            {
                "window_cap": WINDOW_CAP,
                "min_window": MIN_WINDOW,
                "min_support": MIN_SUPPORT,
                "min_confidence": MIN_CONFIDENCE,
                "max_candidates_per_cycle": MAX_CANDIDATES_PER_CYCLE,
                "max_examples": MAX_EXAMPLES,
                "opaque_columns": [],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]
