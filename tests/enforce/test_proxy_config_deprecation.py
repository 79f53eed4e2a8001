"""EnforcementProxy is configured through :class:`ProxyConfig` only.

The individual ``history_enabled`` / ``cache`` / ``record_decisions``
constructor keywords predate :class:`ProxyConfig` (which has since lost
``record_decisions`` too); their deprecation cycle is over, so a stale
call site gets Python's own ``TypeError`` for an unknown keyword, like
any other misspelt argument.
"""

from __future__ import annotations

import warnings

import pytest

from repro.enforce import DecisionCache, EnforcementProxy, ProxyConfig, Session


@pytest.fixture
def make_proxy(calendar_db, calendar_policy):
    def factory(config=None, **kwargs):
        return EnforcementProxy(
            calendar_db, calendar_policy, Session.for_user(1), config, **kwargs
        )

    return factory


class TestLegacyKwargsAreHardErrors:
    def test_legacy_kwarg_rejected_even_alongside_config(self, make_proxy):
        with pytest.raises(TypeError, match="record_decisions"):
            make_proxy(ProxyConfig(history_enabled=False), record_decisions=True)

    def test_unknown_kwargs_still_rejected(self, make_proxy):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_proxy(frobnicate=True)


class TestModernPath:
    def test_config_object_carries_all_fields(self, make_proxy, calendar_policy):
        cache = DecisionCache(calendar_policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proxy = make_proxy(ProxyConfig(history_enabled=False, cache=cache))
        assert proxy.config.history_enabled is False
        assert proxy.checker.history_enabled is False
        assert proxy.config.cache is cache

    def test_defaults_emit_no_warning(self, make_proxy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_proxy()
