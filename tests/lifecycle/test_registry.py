"""PolicyRegistry: version ids, fingerprints, provenance, rollback targets."""

import pytest

from repro.lifecycle import registry as registry_module
from repro.lifecycle.registry import PolicyRegistry, RegistryError
from repro.policy.policy import Policy


@pytest.fixture
def registry():
    return PolicyRegistry()


class TestRegistration:
    def test_version_ids_are_monotonic(self, registry, calendar_policy):
        first = registry.register(calendar_policy)
        second = registry.register(calendar_policy)
        assert (first.version, second.version) == (1, 2)
        assert len(registry) == 2

    def test_fingerprint_and_text_recorded(self, registry, calendar_policy):
        version = registry.register(calendar_policy, label="truth")
        assert version.fingerprint == calendar_policy.fingerprint()
        assert "view V1" in version.text
        assert version.label == "truth"

    def test_same_content_shares_fingerprint(self, registry, calendar_policy):
        registry.register(calendar_policy)
        registry.register(Policy(calendar_policy.views, name="copy"))
        matches = registry.find_fingerprint(calendar_policy.fingerprint())
        assert [pv.version for pv in matches] == [1, 2]

    def test_provenance_is_validated(self, registry, calendar_policy):
        registry.register(calendar_policy, provenance="extracted")
        registry.register(calendar_policy, provenance="patched")
        with pytest.raises(RegistryError, match="provenance"):
            registry.register(calendar_policy, provenance="downloaded")

    def test_unknown_version_raises(self, registry):
        with pytest.raises(RegistryError, match="version 7"):
            registry.get(7)


class TestActivationAndRollback:
    def test_rollback_target_is_previous_distinct_activation(
        self, registry, calendar_policy
    ):
        v1 = registry.register(calendar_policy)
        v2 = registry.register(calendar_policy)
        registry.record_activation(v1.version)
        registry.record_activation(v2.version)
        assert registry.active_version == 2
        assert registry.rollback_target().version == 1

    def test_repeated_activation_of_current_is_skipped(self, registry, calendar_policy):
        v1 = registry.register(calendar_policy)
        v2 = registry.register(calendar_policy)
        registry.record_activation(v1.version)
        registry.record_activation(v2.version)
        registry.record_activation(v2.version)
        assert registry.rollback_target().version == 1

    def test_rollback_without_history_raises(self, registry, calendar_policy):
        with pytest.raises(RegistryError):
            registry.rollback_target()
        v1 = registry.register(calendar_policy)
        registry.record_activation(v1.version)
        with pytest.raises(RegistryError):
            registry.rollback_target()

    def test_activating_unregistered_version_raises(self, registry):
        with pytest.raises(RegistryError):
            registry.record_activation(3)


class TestBoundedHistory:
    def test_old_unactivated_versions_are_evicted(self, calendar_policy, monkeypatch):
        monkeypatch.setattr(registry_module, "HISTORY_CAP", 3)
        registry = PolicyRegistry()
        versions = [registry.register(calendar_policy).version for _ in range(6)]
        assert len(registry) == 3
        assert versions[0] not in registry
        assert versions[-1] in registry

    def test_activation_targets_survive_eviction(self, calendar_policy, monkeypatch):
        monkeypatch.setattr(registry_module, "HISTORY_CAP", 2)
        registry = PolicyRegistry()
        v1 = registry.register(calendar_policy)
        registry.record_activation(v1.version)
        for _ in range(5):
            last = registry.register(calendar_policy)
        registry.record_activation(last.version)
        assert v1.version in registry  # pinned by the activation history
        assert registry.rollback_target().version == v1.version
