"""Docs that cannot drift: link integrity and the metrics-doc contract.

Two checks keep ``docs/`` honest in tier-1:

* every relative markdown link in the repo resolves (the same check CI's
  lint job runs via ``scripts/check_docs.py``);
* ``docs/OPERATIONS.md`` documents **every** field a live single-process
  service emits on ``/metrics`` and ``/readyz`` — asserted against a real
  scrape, not a hardcoded field list, so adding a metric without
  documenting it fails here.  (``tests/test_shard_router.py`` holds the
  router-topology half of the same contract.)
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
from pathlib import Path

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import assert_fields_documented, get, post_query, query_body

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestLinkIntegrity:
    def test_every_relative_markdown_link_resolves(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_checker_catches_a_broken_link(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)

        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](page.md) [gone](missing.md) [ext](https://example.com/x.md) "
            "[anchor](#here) [escape](../outside.md)"
        )
        problems = check_docs.broken_links(page)
        assert [target for target, _why in problems] == ["missing.md"]


class TestMetricsDocCoverage:
    def test_live_single_process_scrape_is_fully_documented(self, example_itgraph, example_points):
        doc_text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()

        async def scenario():
            engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
            service = ITSPQService(
                {"example": engine}, ServiceConfig(port=0, batch_window_ms=1)
            )
            await service.start()
            try:
                # One answered query populates last_execution_report and the
                # per-venue cache section before the scrape.
                status, payload = await post_query(
                    service.host,
                    service.port,
                    query_body(example_points["p3"], example_points["p4"]),
                )
                assert status == 200, payload
                status, metrics = await get(service.host, service.port, "/metrics")
                assert status == 200
                status, ready = await get(service.host, service.port, "/readyz")
                assert status == 200
            finally:
                await service.aclose()
            return metrics, ready

        metrics, ready = asyncio.run(scenario())
        assert metrics["venues"]["example"]["last_execution_report"] is not None
        assert_fields_documented(metrics, doc_text, "single-process /metrics")
        assert_fields_documented(ready, doc_text, "single-process /readyz")

    def test_operations_md_names_every_http_status(self):
        doc_text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
        for status in (200, 400, 404, 405, 408, 411, 429, 431, 502, 503, 504):
            assert f"| {status} |" in doc_text, f"status {status} missing from the error table"
        for error_type in (
            "ServiceOverloadedError",
            "ServiceUnavailableError",
            "DeadlineExceededError",
            "ShardTimeoutError",
            "ShardConnectionError",
        ):
            assert f"`{error_type}`" in doc_text, f"{error_type} missing from the error table"
