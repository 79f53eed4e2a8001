"""The versioned policy registry.

Every policy a deployment has ever run (or considered running) gets a
monotonic version id, a content fingerprint, and a provenance tag saying
where it came from — hand-written by an operator, extracted from traces
by the §3 miner, patched by the §5 diagnosis tooling, or mined from the
live decision audit by the background mining service. The registry
also remembers the *activation* order, which is what makes rollback
well-defined: the rollback target is the previously-activated version,
not merely the previously-registered one.

History is bounded (``HISTORY_CAP``): a long-lived deployment reloading
policies for months should not grow memory without limit. Eviction
skips versions that are still activation targets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.policy.policy import Policy
from repro.policy.serialize import policy_to_text
from repro.util.errors import DbacError

#: The provenance tags the lifecycle tooling understands. ``mined`` marks
#: candidates the background mining service derived from the live
#: decision audit (repro.mining); ``extracted`` stays reserved for the
#: offline §3 pipeline run by an operator.
PROVENANCES = ("hand-written", "extracted", "patched", "mined")

#: Registered versions kept; eviction skips activation targets, so the
#: active version and its rollback target always survive.
HISTORY_CAP = 32


class RegistryError(DbacError):
    """Raised for unknown versions, bad provenance, or empty rollback."""


@dataclass(frozen=True)
class PolicyVersion:
    """One registered policy: the policy plus its lifecycle metadata.

    ``fingerprint`` is :meth:`repro.policy.policy.Policy.fingerprint` —
    a hash of the normalized view set, so re-registering a cosmetically
    different rendering of the same policy is detectable. ``text`` keeps
    the serialized form for audit trails and for shipping over the wire.
    """

    version: int
    policy: Policy
    fingerprint: str
    provenance: str
    label: str = ""
    text: str = field(default="", repr=False)

    def describe(self) -> str:
        label = f" ({self.label})" if self.label else ""
        return (
            f"v{self.version}{label}: {len(self.policy)} views,"
            f" fingerprint {self.fingerprint}, {self.provenance}"
        )


class PolicyRegistry:
    """Monotonic version ids over policies, with activation history.

    Thread-safe: the net server's admin verbs and an operator CLI can
    race a reload. Registration and activation are separate steps —
    a shadow candidate is registered the moment it starts shadowing, but
    only activated if it survives promotion.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._versions: dict[int, PolicyVersion] = {}
        self._next_version = 1
        # Activation order, newest last; duplicates allowed (activating
        # v1, v2, then v1 again makes v2 the rollback target of v1).
        self._activations: list[int] = []

    # -- registration -------------------------------------------------------------

    def register(
        self, policy: Policy, provenance: str = "hand-written", label: str = ""
    ) -> PolicyVersion:
        """Assign the next version id to ``policy``.

        Same-content policies still get distinct versions (an operator
        may deliberately re-push), but the shared fingerprint makes the
        duplication visible in ``describe()`` and the STATS output.
        """
        if provenance not in PROVENANCES:
            raise RegistryError(
                f"unknown provenance {provenance!r}; expected one of {PROVENANCES}"
            )
        with self._lock:
            version = PolicyVersion(
                version=self._next_version,
                policy=policy,
                fingerprint=policy.fingerprint(),
                provenance=provenance,
                label=label,
                text=policy_to_text(policy),
            )
            self._next_version += 1
            self._versions[version.version] = version
            self._evict_locked()
            return version

    def get(self, version: int) -> PolicyVersion:
        with self._lock:
            found = self._versions.get(version)
        if found is None:
            raise RegistryError(f"no registered policy version {version}")
        return found

    def __contains__(self, version: int) -> bool:
        with self._lock:
            return version in self._versions

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def versions(self) -> list[PolicyVersion]:
        with self._lock:
            return [self._versions[v] for v in sorted(self._versions)]

    def find_fingerprint(self, fingerprint: str) -> list[PolicyVersion]:
        """Every registered version with this content fingerprint."""
        with self._lock:
            return [
                self._versions[v]
                for v in sorted(self._versions)
                if self._versions[v].fingerprint == fingerprint
            ]

    # -- activation & rollback ----------------------------------------------------

    def record_activation(self, version: int) -> None:
        """Note that ``version`` became the gateway's deciding policy."""
        with self._lock:
            if version not in self._versions:
                raise RegistryError(f"cannot activate unregistered version {version}")
            self._activations.append(version)

    @property
    def active_version(self) -> int | None:
        with self._lock:
            return self._activations[-1] if self._activations else None

    def rollback_target(self) -> PolicyVersion:
        """The most recently activated version before the current one.

        Skips over repeated activations of the current version (a
        re-push of the live policy does not change what rollback means).
        """
        with self._lock:
            if not self._activations:
                raise RegistryError("no activations recorded; nothing to roll back to")
            current = self._activations[-1]
            for version in reversed(self._activations[:-1]):
                if version != current:
                    found = self._versions.get(version)
                    if found is None:
                        raise RegistryError(
                            f"rollback target v{version} was evicted from history"
                        )
                    return found
        raise RegistryError("no earlier policy version to roll back to")

    def activation_history(self) -> list[int]:
        with self._lock:
            return list(self._activations)

    # -- internals ----------------------------------------------------------------

    def _evict_locked(self) -> None:
        """Drop oldest versions beyond the cap; keep activation targets.

        A version still appearing in the activation history is pinned:
        evicting it would silently break ``rollback_target``.
        """
        if len(self._versions) <= HISTORY_CAP:
            return
        pinned = set(self._activations)
        for version in sorted(self._versions):
            if len(self._versions) <= HISTORY_CAP:
                break
            if version in pinned:
                continue
            del self._versions[version]

    def describe(self) -> str:
        lines = ["policy registry:"]
        active = self.active_version
        for pv in self.versions():
            marker = " *active*" if pv.version == active else ""
            lines.append(f"  {pv.describe()}{marker}")
        return "\n".join(lines)
