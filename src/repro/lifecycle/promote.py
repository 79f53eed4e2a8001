"""Promotion gates: what a candidate policy must prove before going live.

A candidate (mined, patched, or hand-edited) is promoted only when every
configured gate passes:

* **shadow** — at least ``min_shadow_checks`` live statements were
  shadow-checked and at most ``max_divergences`` diverged. This is the
  empirical gate: the candidate decides real traffic the same way the
  active policy does.
* **compare** — :func:`repro.policy.compare.compare_policies` precision
  and recall of the candidate against the active policy meet thresholds.
  This is the semantic gate: it catches divergences live traffic never
  exercised (precision < 1 means the candidate reveals something the
  active policy does not; recall < 1 means it lost a view's worth of
  information).
* **disclosure** — a declared suite of sensitive queries is re-checked
  with the §4 criteria: the candidate must not make PQI or NQI *newly*
  hold on any of them. Regression, not absolute, by design — the active
  policy's accepted disclosures stay accepted.

When a gate fails, each logged divergence is run through
:func:`repro.diagnose.diagnose` (under the policy that *blocks* the
statement), so the operator gets §5-style patch suggestions instead of a
bare rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnose import diagnose
from repro.enforce.trace import Trace
from repro.evaluate import check_nqi, check_pqi
from repro.lifecycle.shadow import Divergence, ShadowRunner
from repro.policy.compare import compare_policies, view_covered_by
from repro.policy.policy import Policy
from repro.relalg.cq import CQ


@dataclass(frozen=True)
class SensitiveCase:
    """One sensitive query the disclosure gate re-checks.

    ``query`` must be instantiated against ``bindings`` the same way the
    evaluation suite (§4) does: PQI/NQI operate on parameter-free CQs
    and view definitions.
    """

    name: str
    query: CQ
    bindings: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class GateConfig:
    """Thresholds for the three promotion gates.

    Defaults are strict (zero divergences, exact precision/recall):
    loosen deliberately, per deployment. ``min_shadow_checks`` guards
    against promoting on an idle shadow period — zero divergences over
    three statements proves nothing.
    """

    max_divergences: int = 0
    min_shadow_checks: int = 100
    min_precision: float = 1.0
    min_recall: float = 1.0
    sensitive_suite: tuple[SensitiveCase, ...] = ()
    #: A separate cap on allow→block flips; ``None`` means only the total
    #: ``max_divergences`` applies. The mining service promotes a
    #: gap-filling candidate with ``max_allow_to_block=0`` and a loosened
    #: total: block→allow flips on the gap traffic are the candidate's
    #: whole point, while a single allow→block flip would regress the
    #: application and must stay fatal.
    max_allow_to_block: int | None = None


#: Divergences a failed promotion diagnoses (§5), oldest first.
MAX_DIAGNOSES = 5


@dataclass(frozen=True)
class Gate:
    """One gate's verdict."""

    name: str
    passed: bool
    detail: str

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: {self.detail}"


@dataclass
class PromotionReport:
    """The full verdict on a candidate, plus diagnoses when it fails."""

    candidate_version: int
    gates: list[Gate] = field(default_factory=list)
    diagnoses: list[str] = field(default_factory=list)
    promoted: bool = False

    @property
    def passed(self) -> bool:
        return all(gate.passed for gate in self.gates)

    def describe(self) -> str:
        lines = [
            f"promotion of candidate v{self.candidate_version}:"
            f" {'PROMOTED' if self.promoted else ('eligible' if self.passed else 'REJECTED')}"
        ]
        lines.extend(f"  {gate.describe()}" for gate in self.gates)
        for diagnosis in self.diagnoses:
            lines.append("  diagnosis:")
            lines.extend(f"    {line}" for line in diagnosis.splitlines())
        return "\n".join(lines)


def evaluate_gates(
    active: Policy,
    candidate: Policy,
    shadow: ShadowRunner | None,
    config: GateConfig,
    schema,
    candidate_version: int = 0,
) -> PromotionReport:
    """Run every gate; never swaps anything (pure evaluation)."""
    report = PromotionReport(candidate_version=candidate_version)
    report.gates.append(_shadow_gate(shadow, config))
    report.gates.append(_compare_gate(active, candidate, config))
    report.gates.append(_disclosure_gate(active, candidate, config))
    if not report.passed and shadow is not None:
        report.diagnoses = _diagnose_divergences(
            shadow.log.entries(), active, candidate, schema
        )
    return report


# -- the individual gates ----------------------------------------------------------


def _shadow_gate(shadow: ShadowRunner | None, config: GateConfig) -> Gate:
    if shadow is None:
        return Gate(
            "shadow",
            False,
            "no shadow run: candidate was never trialed against live traffic",
        )
    stats = shadow.stats()
    checks, divergences = stats["checks"], stats["divergences"]
    if checks < config.min_shadow_checks:
        return Gate(
            "shadow",
            False,
            f"only {checks} shadow checks (< {config.min_shadow_checks} required)",
        )
    if divergences > config.max_divergences:
        return Gate(
            "shadow",
            False,
            f"{divergences} divergences over {checks} checks"
            f" (> {config.max_divergences} allowed;"
            f" {stats['allow_to_block']} allow→block,"
            f" {stats['block_to_allow']} block→allow)",
        )
    cap = config.max_allow_to_block
    if cap is not None and stats["allow_to_block"] > cap:
        return Gate(
            "shadow",
            False,
            f"{stats['allow_to_block']} allow→block flips"
            f" over {checks} checks (> {cap} allowed for this kind)",
        )
    return Gate(
        "shadow",
        True,
        f"{divergences} divergences over {checks} checks"
        f" (≤ {config.max_divergences} allowed)",
    )


def _compare_gate(active: Policy, candidate: Policy, config: GateConfig) -> Gate:
    comparison = compare_policies(candidate, active)
    precision, recall = comparison.precision, comparison.recall
    passed = precision >= config.min_precision and recall >= config.min_recall
    detail = (
        f"precision {precision:.2f} (≥ {config.min_precision:.2f}),"
        f" recall {recall:.2f} (≥ {config.min_recall:.2f}) vs active"
    )
    if comparison.unmatched_candidate:
        detail += f"; candidate-only views: {sorted(comparison.unmatched_candidate)}"
    if comparison.unmatched_truth:
        detail += f"; lost active views: {sorted(comparison.unmatched_truth)}"
    return Gate("compare", passed, detail)


def _disclosure_gate(active: Policy, candidate: Policy, config: GateConfig) -> Gate:
    """The §4 regression check over the declared sensitive suite."""
    if not config.sensitive_suite:
        return Gate("disclosure", True, "no sensitive suite declared (gate vacuous)")
    regressions: list[str] = []
    for case in config.sensitive_suite:
        bindings = dict(case.bindings)
        active_views = active.view_defs(bindings)
        candidate_views = candidate.view_defs(bindings)
        for criterion, check in (("PQI", check_pqi), ("NQI", check_nqi)):
            if not check(case.query, candidate_views).holds:
                continue
            if not check(case.query, active_views).holds:
                regressions.append(f"{case.name}: {criterion} newly holds")
    if regressions:
        return Gate("disclosure", False, "; ".join(regressions))
    return Gate(
        "disclosure",
        True,
        f"no new PQI/NQI disclosure over {len(config.sensitive_suite)} sensitive queries",
    )


def _diagnose_divergences(
    divergences: list[Divergence],
    active: Policy,
    candidate: Policy,
    schema,
) -> list[str]:
    """A §5 diagnosis per divergence, under whichever policy blocks.

    An allow→block flip is diagnosed under the candidate (it would break
    the application); a block→allow flip under the active policy (the
    candidate discloses what the deployment currently withholds — the
    diagnosis shows which views would have to exist to justify it).
    """
    reports: list[str] = []
    for divergence in divergences[:MAX_DIAGNOSES]:
        blocking = candidate if divergence.kind == "allow_to_block" else active
        try:
            diagnosis = diagnose(
                divergence.stmt,
                dict(divergence.bindings),
                blocking,
                schema,
                trace=Trace.from_facts(divergence.facts),
            )
            rendered = diagnosis.describe()
        except Exception as error:  # diagnosis is best-effort advice
            rendered = f"(diagnosis failed: {error})"
        reports.append(f"{divergence.describe()}\n{rendered}")
    return reports


def subsumption_matrix(candidate: Policy, truth: Policy) -> list[tuple[str, str, bool]]:
    """Per-view coverage verdicts for the ``policy-diff`` CLI.

    Rows: ``(direction, view_name, covered)`` — candidate views checked
    against the truth policy and vice versa.
    """
    rows: list[tuple[str, str, bool]] = []
    for view in candidate:
        rows.append(("candidate→truth", view.name, view_covered_by(view, truth)))
    for view in truth:
        rows.append(("truth→candidate", view.name, view_covered_by(view, candidate)))
    return rows
