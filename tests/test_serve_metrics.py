"""Tests for ``GET /metrics`` and the registry-backed serve counters."""

import json
import urllib.request

import pytest

from repro.decomposition.dpar2 import dpar2
from repro.obs.metrics import MetricsRegistry
from repro.serve.service import MicroBatcher, start_server_in_thread
from repro.serve.store import FactorStore
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

#: Exact key layout of /healthz — the schema operators' dashboards parse.
#: Neither codec may change it (same key layout and values under both).
HEALTHZ_KEYS = ["status", "version", "uptime_seconds", "connections",
                "requests_served", "batches", "batched_requests", "batching",
                "faults", "engine", "codec"]
BATCHER_KEYS = ["batches", "requests", "shed", "queue_depth", "last_batch",
                "ewma_depth", "window_cap_ms", "current_window_ms"]
FAULT_KEYS = ["timeouts", "shed", "drains", "draining", "worker_restarts",
              "checkpoint_resumes", "quarantined"]
TRANSFER_KEYS = ["h2d_calls", "h2d_bytes", "d2h_calls", "d2h_bytes"]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    tensor = low_rank_irregular_tensor(
        [25, 30, 20, 35], n_columns=14, rank=3, noise=0.02, random_state=3
    )
    config = DecompositionConfig(rank=3, max_iterations=5, random_state=0)
    result = dpar2(tensor, config)
    registry = FactorStore(tmp_path_factory.mktemp("registry"))
    registry.publish(result, config=config)
    return registry


def _get(base_url, path):
    with urllib.request.urlopen(base_url + path, timeout=15) as response:
        return response.headers, response.read()


def _post(base_url, path, body):
    request = urllib.request.Request(
        base_url + path, data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.loads(response.read())


def _sample_value(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix) and not line.startswith("#"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample starting with {prefix!r}")


class TestMetricsEndpoint:
    def test_scrape_over_http(self, store):
        with start_server_in_thread(store) as handle:
            headers, body = _get(handle.base_url, "/metrics")
            assert headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            text = body.decode()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_request_seconds_bucket{path="/metrics",le="+Inf"}' in text

    def test_counters_move_between_scrapes(self, store):
        with start_server_in_thread(store) as handle:
            _, first = _get(handle.base_url, "/metrics")
            _post(handle.base_url, "/v1/similar", {"index": 0, "k": 2})
            _get(handle.base_url, "/healthz")
            _, second = _get(handle.base_url, "/metrics")
        before = _sample_value(first.decode(), "repro_serve_requests_total")
        after = _sample_value(second.decode(), "repro_serve_requests_total")
        assert after >= before + 2  # the similar POST and the healthz GET
        batched = _sample_value(
            second.decode(), 'repro_serve_batched_requests_total{batcher="similar"}'
        )
        assert batched >= 1
        healthz_count = _sample_value(
            second.decode(), 'repro_serve_request_seconds_count{path="/healthz"}'
        )
        assert healthz_count >= 1

    def test_every_line_parses_as_exposition(self, store):
        with start_server_in_thread(store) as handle:
            _get(handle.base_url, "/healthz")
            _, body = _get(handle.base_url, "/metrics")
        for line in body.decode().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                assert len(line.split(" ", 3)) == 4
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part
            float(value)  # every sample value is a number

    def test_apps_have_isolated_registries(self, store):
        with start_server_in_thread(store) as one, start_server_in_thread(store) as two:
            _post(one.base_url, "/v1/similar", {"index": 0, "k": 2})
            assert one.app.metrics is not two.app.metrics
            similar = 'repro_serve_batched_requests_total{batcher="similar"}'
            _, busy = _get(one.base_url, "/metrics")
            _, idle = _get(two.base_url, "/metrics")
        assert _sample_value(busy.decode(), similar) >= 1
        assert _sample_value(idle.decode(), similar) == 0


@pytest.mark.usefixtures("wire_codec")
class TestHealthzSchema:
    def test_golden_key_layout(self, store):
        with start_server_in_thread(store) as handle:
            _post(handle.base_url, "/v1/similar", {"index": 0, "k": 2})
            _, body = _get(handle.base_url, "/healthz")
        health = json.loads(body)
        assert list(health) == HEALTHZ_KEYS
        assert list(health["batching"]) == ["similar", "fold_in"]
        assert list(health["batching"]["similar"]) == BATCHER_KEYS
        assert list(health["batching"]["fold_in"]) == BATCHER_KEYS
        assert list(health["faults"]) == FAULT_KEYS
        assert list(health["engine"]) == ["compute_backend", "transfers"]
        assert list(health["engine"]["transfers"]) == TRANSFER_KEYS

    def test_healthz_counters_read_from_registry(self, store):
        with start_server_in_thread(store) as handle:
            _post(handle.base_url, "/v1/similar", {"index": 0, "k": 2})
            _, body = _get(handle.base_url, "/healthz")
            registry = handle.app.metrics
        health = json.loads(body)
        snap = registry.snapshot()
        similar = next(
            sample
            for sample in snap["repro_serve_batched_requests_total"]["samples"]
            if sample["labels"] == {"batcher": "similar"}
        )
        assert health["batching"]["similar"]["requests"] == similar["value"]
        # /healthz counted itself into the request counter before rendering.
        served = snap["repro_serve_requests_total"]["samples"][0]["value"]
        assert health["requests_served"] == served

    def test_counter_types_stay_ints(self, store):
        with start_server_in_thread(store) as handle:
            _, body = _get(handle.base_url, "/healthz")
        health = json.loads(body)
        for key in ("connections", "requests_served", "batches", "batched_requests"):
            assert isinstance(health[key], int)
        for key in ("timeouts", "shed", "drains"):
            assert isinstance(health["faults"][key], int)


class TestMicroBatcherMetrics:
    def test_standalone_batchers_stay_isolated(self):
        first = MicroBatcher(lambda payloads: payloads)
        second = MicroBatcher(lambda payloads: payloads)
        first._m_batches.inc()
        assert first.batches == 1
        assert second.batches == 0

    def test_registry_backed_batcher_publishes_counters(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(
            lambda payloads: payloads, metrics=registry, name="similar"
        )
        batcher._m_requests.inc(4)
        sample = registry.snapshot()["repro_serve_batched_requests_total"]["samples"]
        assert sample[0]["labels"] == {"batcher": "similar"}
        assert sample[0]["value"] == 4
        assert batcher.requests == 4
