"""Construction-time validation: every numeric knob rejects bad values with a
``ValueError`` that names the offending field.

Covers :class:`CacheConfig`, :class:`ServiceConfig` and
:class:`AdmissionController` — misconfiguration must fail at construction,
not as a confusing runtime error deep inside a search.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheConfig
from repro.service.admission import AdmissionController
from repro.service.server import ServiceConfig


class TestCacheConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_entries": 0}, "max_entries"),
            ({"max_entries": -3}, "max_entries"),
            ({"max_entries": 2.5}, "max_entries"),
            ({"max_entries": True}, "max_entries"),
            ({"promote_after": 0}, "promote_after"),
            ({"promote_after": -1}, "promote_after"),
            ({"promote_after": 1.5}, "promote_after"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CacheConfig(**kwargs)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CacheConfig(mode="speculative")

    def test_accepts_defaults(self):
        config = CacheConfig()
        assert config.max_entries >= 1 and config.promote_after >= 1


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"batch_window_ms": -1.0}, "batch_window_ms"),
            ({"max_batch": 0}, "max_batch"),
            ({"max_pending": 0}, "max_pending"),
            ({"max_inflight_batches": 0}, "max_inflight_batches"),
            ({"default_deadline_ms": 0.0}, "default_deadline_ms"),
            ({"default_deadline_ms": -10.0}, "default_deadline_ms"),
            ({"client_timeout_seconds": 0.0}, "client_timeout_seconds"),
            ({"drain_timeout_seconds": -1.0}, "drain_timeout_seconds"),
            ({"max_body_bytes": 0}, "max_body_bytes"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.port == 0 and config.host == "127.0.0.1"


class TestAdmissionController:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": -1}, "max_pending"),
            ({"max_inflight_batches": 0}, "max_inflight_batches"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        defaults = {"max_pending": 8, "max_inflight_batches": 2}
        with pytest.raises(ValueError, match=field):
            AdmissionController(**{**defaults, **kwargs})

