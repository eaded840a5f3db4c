"""Tests for the asyncio HTTP service: routing, micro-batching, hot swap."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.decomposition.dpar2 import dpar2
from repro.serve.queries import QueryEngine
from repro.serve.service import MicroBatcher, ModelHost, ServiceError, start_server_in_thread
from repro.serve.store import FactorStore
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture(scope="module")
def tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40, 35], n_columns=16, rank=3, noise=0.02, random_state=4
    )


@pytest.fixture(scope="module")
def config():
    return DecompositionConfig(rank=4, max_iterations=6, random_state=0)


@pytest.fixture(scope="module")
def result(tensor, config):
    return dpar2(tensor, config)


@pytest.fixture
def store(result, config, tmp_path):
    registry = FactorStore(tmp_path / "registry")
    registry.publish(result, config=config)
    return registry


def _call(base_url, method, path, body=None, timeout=15):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base_url + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


class TestModelHost:
    def test_refresh_and_current(self, store):
        host = ModelHost(store)
        engine = host.refresh()
        assert engine.version == 1
        assert host.current_version == 1
        assert host.engine() is engine  # no reload between publishes

    def test_lru_eviction_spares_current(self, store, result):
        host = ModelHost(store, lru_size=1)
        host.refresh()
        store.publish(result)
        store.publish(result)
        host.refresh()
        assert host.current_version == 3
        host.engine(1)  # load a pinned old version into the cache
        assert host.current_version == 3
        assert 3 in host.cached_versions()  # the live engine never evicts
        assert len(host.cached_versions()) == 1

    def test_unknown_version_maps_to_404(self, store):
        host = ModelHost(store)
        with pytest.raises(ServiceError) as err:
            host.engine(42)
        assert err.value.status == 404

    def test_empty_registry_maps_to_503(self, tmp_path):
        host = ModelHost(FactorStore(tmp_path / "empty"))
        with pytest.raises(ServiceError) as err:
            host.refresh()
        assert err.value.status == 503


class TestMicroBatcher:
    def test_coalesces_concurrent_submits(self):
        import asyncio

        calls = []

        def runner(payloads):
            calls.append(list(payloads))
            return [p * 10 for p in payloads]

        async def scenario():
            batcher = MicroBatcher(runner, window=0.01)
            return await asyncio.gather(*[batcher.submit(i) for i in range(5)])

        results = asyncio.run(scenario())
        assert results == [0, 10, 20, 30, 40]
        assert len(calls) == 1  # five submissions, one kernel call
        assert calls[0] == [0, 1, 2, 3, 4]

    def test_max_batch_flushes_immediately(self):
        import asyncio

        calls = []

        def runner(payloads):
            calls.append(list(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(runner, window=60.0, max_batch=2)
            return await asyncio.gather(*[batcher.submit(i) for i in range(4)])

        assert asyncio.run(scenario()) == [0, 1, 2, 3]
        assert [len(c) for c in calls] == [2, 2]  # never waited for the window

    def test_runner_failure_propagates(self):
        import asyncio

        def runner(payloads):
            raise RuntimeError("kernel exploded")

        async def scenario():
            batcher = MicroBatcher(runner, window=0.0)
            await batcher.submit(1)

        with pytest.raises(RuntimeError, match="exploded"):
            asyncio.run(scenario())

    def test_per_slot_exception_does_not_poison_batch(self):
        """A runner can fail one payload (an Exception in its slot) without
        failing the co-batched ones."""
        import asyncio

        def runner(payloads):
            return [
                ValueError(f"bad {p}") if p == 1 else p * 10 for p in payloads
            ]

        async def scenario():
            batcher = MicroBatcher(runner, window=0.01)
            return await asyncio.gather(
                *[batcher.submit(i) for i in range(3)],
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert results[0] == 0
        assert isinstance(results[1], ValueError)
        assert results[2] == 20


class TestHttpEndpoints:
    def test_health_model_versions(self, store):
        with start_server_in_thread(store) as handle:
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["version"] == 1
            model = _call(handle.base_url, "GET", "/v1/model")
            assert model["rank"] == 4
            assert model["n_slices"] == 5
            versions = _call(handle.base_url, "GET", "/v1/versions")
            assert versions == {
                "versions": [1], "latest": 1, "serving": 1, "cached": [1],
            }

    def test_query_endpoints_match_engine(self, store, result, config, tensor):
        engine = QueryEngine(result, config=config, version=1)
        with start_server_in_thread(store) as handle:
            sim = _call(handle.base_url, "POST", "/v1/similar",
                        {"index": 0, "k": 3})
            neighbors, scores = engine.similar([0], k=3)
            assert [n["index"] for n in sim["neighbors"]] == neighbors[0].tolist()
            assert [n["score"] for n in sim["neighbors"]] == scores[0].tolist()

            batch = _call(handle.base_url, "POST", "/v1/similar",
                          {"indices": [1, 2], "k": 2, "mode": "feature"})
            neighbors, _ = engine.similar([1, 2], k=2, mode="feature")
            assert [n["index"] for n in batch["results"][1]["neighbors"]] == \
                neighbors[1].tolist()

            rec = _call(handle.base_url, "POST", "/v1/reconstruct",
                        {"slice": 1, "rows": [0, 2]})
            np.testing.assert_array_equal(
                np.asarray(rec["values"]), engine.reconstruct(1, rows=[0, 2])
            )

            X = np.asarray(tensor[2], dtype=np.float64)
            fold = _call(handle.base_url, "POST", "/v1/fold-in",
                         {"slice": X.tolist(), "seed": 3, "neighbors": 2})
            offline = engine.fold_in(X, seed=3)
            assert fold["weights"] == offline.weights.tolist()
            assert fold["neighbors"][0]["index"] == 2

            anomaly = _call(handle.base_url, "POST", "/v1/anomaly",
                            {"slice": X.tolist(), "seed": 3})
            assert anomaly["score"] == offline.relative_residual

    def test_error_statuses(self, store, tensor):
        with start_server_in_thread(store) as handle:
            cases = [
                ("GET", "/nope", None, 404),
                ("POST", "/v1/similar", {"k": 3}, 400),
                ("POST", "/v1/similar", {"index": 99}, 400),
                ("POST", "/v1/similar", {"index": 0, "version": 42}, 404),
                ("POST", "/v1/reconstruct", {}, 400),
                ("POST", "/v1/fold-in", {"slice": "nope"}, 400),
                ("POST", "/v1/fold-in",
                 {"slice": [[1.0] * (tensor.n_columns + 1)]}, 400),
            ]
            for method, path, body, expected in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _call(handle.base_url, method, path, body)
                assert err.value.code == expected, (method, path)
                assert "error" in json.loads(err.value.read())

    def test_micro_batched_answers_bitwise_equal_sequential(self, store):
        """Acceptance: coalesced concurrent requests return bit-for-bit the
        answers of one-at-a-time execution, while sharing kernel calls."""
        indices = [0, 1, 2, 3, 4, 0, 2]
        with start_server_in_thread(
            store, batch_window=0.25, adaptive_batching=False
        ) as handle:
            barrier = threading.Barrier(len(indices))
            outcomes: dict[int, dict] = {}

            def fire(slot: int, index: int) -> None:
                barrier.wait()
                outcomes[slot] = _call(
                    handle.base_url, "POST", "/v1/similar",
                    {"index": index, "k": 3},
                )

            threads = [
                threading.Thread(target=fire, args=(slot, index))
                for slot, index in enumerate(indices)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(outcomes) == len(indices)
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["batched_requests"] == len(indices)
            assert health["batches"] < len(indices)  # actually coalesced

        # Sequential reference on a batching-free server.
        with start_server_in_thread(store, batch_window=0.0) as handle:
            for slot, index in enumerate(indices):
                solo = _call(handle.base_url, "POST", "/v1/similar",
                             {"index": index, "k": 3})
                assert outcomes[slot] == solo  # bitwise: JSON floats round-trip

    def test_hot_swap_serves_both_versions_without_drops(
        self, store, result, config
    ):
        """Acceptance: publishing v2 must not drop in-flight v1 requests."""
        stop = threading.Event()
        failures: list[Exception] = []
        versions_seen: set[int] = set()

        with start_server_in_thread(store, poll_interval=0.05) as handle:
            def hammer() -> None:
                while not stop.is_set():
                    try:
                        body = _call(handle.base_url, "POST", "/v1/similar",
                                     {"index": 1, "k": 2})
                        versions_seen.add(body["version"])
                    except Exception as exc:  # any drop fails the test
                        failures.append(exc)
                        return

            workers = [threading.Thread(target=hammer) for _ in range(4)]
            for w in workers:
                w.start()
            try:
                store.publish(result, config=config)  # v2 goes live mid-traffic
                deadline = threading.Event()
                for _ in range(100):  # wait (≤5 s) for the poller to swap
                    if 2 in versions_seen:
                        break
                    deadline.wait(0.05)
            finally:
                stop.set()
                for w in workers:
                    w.join(timeout=10)
            assert not failures, failures
            assert versions_seen == {1, 2}  # served v1 throughout, then v2

            # The old version stays queryable when pinned explicitly.
            pinned = _call(handle.base_url, "POST", "/v1/similar",
                           {"index": 1, "k": 2, "version": 1})
            assert pinned["version"] == 1

    @pytest.mark.parametrize("path", ["/v1/similar", "/v1/anomaly"],
                             ids=["similar", "anomaly"])
    def test_bad_request_never_poisons_cobatched_ones(
        self, store, result, tensor, path
    ):
        """A bad request (an out-of-range index, a negative seed) 400s on
        its own; a valid request sharing the same batching window gets the
        answer it gets when sent alone."""
        if path == "/v1/similar":
            good_body = {"index": 0, "k": 2}
            bad_body = {"index": result.n_slices + 50, "k": 2}
        else:
            unseen = np.asarray(tensor[2], dtype=np.float64).tolist()
            good_body = {"slice": unseen, "seed": 3}
            bad_body = {"slice": unseen, "seed": -1}
        with start_server_in_thread(
            store, batch_window=0.25, adaptive_batching=False
        ) as handle:
            barrier = threading.Barrier(2)
            outcomes: dict[str, object] = {}

            def good() -> None:
                barrier.wait()
                outcomes["good"] = _call(handle.base_url, "POST", path, good_body)

            def bad() -> None:
                barrier.wait()
                try:
                    _call(handle.base_url, "POST", path, bad_body)
                except urllib.error.HTTPError as exc:
                    outcomes["bad"] = exc.code

            threads = [threading.Thread(target=good),
                       threading.Thread(target=bad)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert outcomes["bad"] == 400
            assert outcomes["good"] == _call(handle.base_url, "POST", path, good_body)

    def test_explicit_reload_endpoint(self, store, result):
        with start_server_in_thread(store) as handle:  # no polling
            store.publish(result)
            reply = _call(handle.base_url, "POST", "/admin/reload", {})
            assert reply == {"version": 2, "swapped": True, "quarantined": {}}
            again = _call(handle.base_url, "POST", "/admin/reload", {})
            assert again == {"version": 2, "swapped": False, "quarantined": {}}
            assert _call(handle.base_url, "GET", "/healthz")["version"] == 2

    def test_registry_path_accepted(self, store):
        with start_server_in_thread(store.root) as handle:
            assert _call(handle.base_url, "GET", "/healthz")["status"] == "ok"

    def test_endpoint_error_paths_return_json_400(self, store, tensor):
        """Every endpoint rejects malformed payloads with a JSON 400 body."""
        n = tensor.n_columns
        with start_server_in_thread(store) as handle:
            cases = [
                ("POST", "/v1/similar", {"index": "zero"}),
                ("POST", "/v1/similar", {"index": 0, "k": 0}),
                ("POST", "/v1/similar", {"index": 0, "k": True}),
                ("POST", "/v1/similar", {"index": 0, "mode": 7}),
                ("POST", "/v1/similar", {"index": 0, "mode": "galaxy"}),
                ("POST", "/v1/similar", {"indices": "nope"}),
                ("POST", "/v1/similar", {"indices": [0, "one"]}),
                ("POST", "/v1/similar", {"index": 0, "version": "x"}),
                ("GET", "/v1/model?version=abc", None),
                # The body's integer rule: int() alone reads these three.
                ("GET", "/v1/model?version=%2B1", None),
                ("GET", "/v1/model?version=%201", None),
                ("GET", "/v1/model?version=1_0", None),
                ("POST", "/v1/reconstruct", {"slice": "one"}),
                ("POST", "/v1/reconstruct", {"slice": 1, "rows": "x"}),
                ("POST", "/v1/fold-in", {}),
                ("POST", "/v1/fold-in", {"slice": [1.0, 2.0]}),
                ("POST", "/v1/fold-in", {"slice": [[float("nan")] * n]}),
                ("POST", "/v1/fold-in", {"slice": [[1.0] * n], "sweeps": 0}),
                ("POST", "/v1/fold-in", {"slice": [[1.0] * n], "seed": "x"}),
                ("POST", "/v1/anomaly", {}),
                ("POST", "/v1/anomaly", {"slice": "nope"}),
                ("POST", "/v1/anomaly", {"slice": [[1.0] * n], "seed": -1}),
            ]
            # Integer fields take JSON integers only: no strings, no fractions.
            # "1" is a valid value of every field, so only its type is wrong.
            integer_fields = [
                ("/v1/similar", {}, "index"),
                ("/v1/similar", {"index": 0}, "k"),
                ("/v1/similar", {"index": 0}, "version"),
                ("/v1/reconstruct", {}, "slice"),
                ("/v1/fold-in", {"slice": [[1.0] * n]}, "sweeps"),
                ("/v1/fold-in", {"slice": [[1.0] * n]}, "neighbors"),
                ("/v1/anomaly", {"slice": [[1.0] * n]}, "seed"),
            ]
            cases += [
                ("POST", path, {**body, key: value})
                for path, body, key in integer_fields
                for value in ("1", 1.5)
            ]
            for method, path, body in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _call(handle.base_url, method, path, body)
                assert err.value.code == 400, (method, path, body)
                error = json.loads(err.value.read())["error"]
                if "?version=" in path:
                    assert error == "'version' must be an integer", path
            # An integral float is an integer (the codec decodes integers
            # past 64 bits as floats).
            assert _call(handle.base_url, "POST", "/v1/similar", {"index": 2.0}) == \
                _call(handle.base_url, "POST", "/v1/similar", {"index": 2})

    def test_model_follows_hot_swap(self, store, result):
        """/v1/model describes the serving engine, so a reload moves it."""
        with start_server_in_thread(store) as handle:
            assert _call(handle.base_url, "GET", "/v1/model")["version"] == 1
            store.publish(result)
            _call(handle.base_url, "POST", "/admin/reload", {})
            assert _call(handle.base_url, "GET", "/v1/model")["version"] == 2


class TestWireCodecs:
    """orjson and the stdlib json serve the same answers, bit for bit."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_answers_identical_under_both_codecs(
        self, tensor, config, dtype, tmp_path, monkeypatch
    ):
        from repro.serve import wire

        if wire._orjson is None:
            pytest.skip("orjson is not installed")
        model_config = config.with_(dtype=dtype)
        registry = FactorStore(tmp_path / "registry")
        registry.publish(dpar2(tensor, model_config), config=model_config)
        unseen = np.asarray(tensor[2], dtype=np.float64) * 1.5
        requests = [
            ("/v1/similar", {"index": 0, "k": 3}),
            ("/v1/similar", {"indices": [1, 2, 4], "k": 2, "mode": "feature"}),
            ("/v1/fold-in", {"slice": unseen.tolist(), "seed": 3, "neighbors": 2}),
            ("/v1/anomaly", {"slice": unseen.tolist(), "seed": 5}),
            ("/v1/reconstruct", {"slice": 1, "rows": [0, 2]}),
        ]
        answers = {}
        for codec, module in (("orjson", wire._orjson), ("json", None)):
            monkeypatch.setattr(wire, "_orjson", module)
            with start_server_in_thread(registry) as handle:
                # json.dumps keeps a float's bits in its repr, ints apart
                # from floats, and the key order.
                answers[codec] = [
                    json.dumps(_call(handle.base_url, "POST", path, body))
                    for path, body in requests
                ]
        assert answers["orjson"] == answers["json"]
        fold = json.loads(answers["json"][2])
        engine = QueryEngine(registry.latest().result, config=model_config, version=1)
        assert fold["weights"] == engine.fold_in(unseen, seed=3).weights.tolist()

    def test_healthz_names_the_codec(self, store, wire_codec):
        with start_server_in_thread(store) as handle:
            assert _call(handle.base_url, "GET", "/healthz")["codec"] == wire_codec


class TestAdaptiveWindow:
    def test_window_zero_when_idle_grows_under_pressure_resets(self):
        import asyncio

        def runner(payloads):
            return list(payloads)

        async def scenario():
            batcher = MicroBatcher(
                runner, window=0.01, max_batch=64, idle_reset=0.2
            )
            observed = {}
            observed["idle"] = batcher.current_window()
            # A deep burst: all submits land in one event-loop tick, so even
            # a zero window coalesces them into a single flush.
            await asyncio.gather(*[batcher.submit(i) for i in range(16)])
            observed["batches_after_burst"] = batcher.batches
            observed["after_burst"] = batcher.current_window()
            # Sustained bursts drive the EWMA toward the cap.
            for _ in range(4):
                await asyncio.gather(*[batcher.submit(i) for i in range(16)])
            observed["saturated"] = batcher.current_window()
            # A thin trickle of singles decays the pressure back down.
            for _ in range(6):
                await batcher.submit(0)
            observed["after_decay"] = batcher.current_window()
            # Past idle_reset with no flush at all, pressure is forgotten.
            await asyncio.sleep(0.25)
            observed["after_idle"] = batcher.current_window()
            return observed

        seen = asyncio.run(scenario())
        assert seen["idle"] == 0.0
        assert seen["batches_after_burst"] == 1  # same-tick coalescing at window 0
        assert seen["after_burst"] > 0.0
        assert seen["saturated"] > 0.009  # essentially at the cap
        assert seen["after_decay"] < seen["saturated"]
        assert seen["after_idle"] == 0.0

    def test_fixed_window_mode_ignores_pressure(self):
        def runner(payloads):
            return list(payloads)

        batcher = MicroBatcher(runner, window=0.25, adaptive=False)
        assert batcher.current_window() == 0.25  # idle, still the full window


class TestFoldBatching:
    def test_fold_in_and_anomaly_coalesce_bitwise_equal(
        self, store, result, config, tensor
    ):
        """Concurrent fold-in/anomaly requests share fold_in_many calls and
        still answer bit-for-bit like one-at-a-time execution."""
        engine = QueryEngine(result, config=config, version=1)
        slices = [np.asarray(tensor[i], dtype=np.float64) for i in range(4)]
        with start_server_in_thread(
            store, batch_window=0.25, adaptive_batching=False
        ) as handle:
            barrier = threading.Barrier(2 * len(slices))
            outcomes: dict[tuple, dict] = {}

            def fire(kind: str, slot: int) -> None:
                body = {"slice": slices[slot].tolist(), "seed": slot}
                barrier.wait()
                outcomes[(kind, slot)] = _call(
                    handle.base_url, "POST", f"/v1/{kind}", body
                )

            threads = [
                threading.Thread(target=fire, args=(kind, slot))
                for kind in ("fold-in", "anomaly")
                for slot in range(len(slices))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(outcomes) == 2 * len(slices)
            health = _call(handle.base_url, "GET", "/healthz")
            fold_stats = health["batching"]["fold_in"]
            assert fold_stats["requests"] == 2 * len(slices)
            assert fold_stats["batches"] < 2 * len(slices)  # actually coalesced

        for slot, X in enumerate(slices):
            offline = engine.fold_in(X, seed=slot)
            fold = outcomes[("fold-in", slot)]
            assert fold["weights"] == offline.weights.tolist()  # bitwise
            assert fold["relative_residual"] == offline.relative_residual
            anomaly = outcomes[("anomaly", slot)]
            assert anomaly["score"] == offline.relative_residual
            assert anomaly["residual_squared"] == offline.residual_squared


class TestTransport:
    def test_keep_alive_reuses_one_connection(self, store):
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                sockets = set()
                for _ in range(5):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 200
                    assert response.getheader("Connection") == "keep-alive"
                    sockets.add(id(conn.sock))
                assert len(sockets) == 1  # never re-dialed
                assert body["connections"] == 1
                assert body["requests_served"] == 5
            finally:
                conn.close()

    def test_post_over_keep_alive_connection(self, store):
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                for index in (0, 1, 0):
                    conn.request(
                        "POST", "/v1/similar",
                        body=json.dumps({"index": index, "k": 2}),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 200
                    assert body["index"] == index
            finally:
                conn.close()

    def test_connection_close_is_honored(self, store):
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                conn.request("GET", "/healthz", headers={"Connection": "close"})
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "close"
                assert response.read()  # server closes after the body
            finally:
                conn.close()

    def test_error_responses_keep_connection_alive(self, store):
        """A 400 is the client's problem, not the connection's: the next
        request on the same socket still works."""
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                conn.request(
                    "POST", "/v1/similar", body=json.dumps({"k": 2}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 400
                assert "error" in json.loads(response.read())
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            finally:
                conn.close()

    def test_malformed_framing_gets_400_and_close(self, store):
        with start_server_in_thread(store) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=15) as raw:
                raw.sendall(b"NOT-HTTP\r\n\r\n")
                reply = b""
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break  # server closed: framing is unrecoverable
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in reply

    def test_non_json_body_gets_400(self, store):
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                conn.request("POST", "/v1/similar", body=b"not json at all")
                response = conn.getresponse()
                assert response.status == 400
                assert "error" in json.loads(response.read())
            finally:
                conn.close()

    def test_healthz_counter_reference(self, store):
        """The counters documented in docs/serving.md exist and make sense."""
        with start_server_in_thread(store) as handle:
            _call(handle.base_url, "POST", "/v1/similar", {"index": 0, "k": 2})
            health = _call(handle.base_url, "GET", "/healthz")
        assert health["status"] == "ok"
        assert health["version"] == 1
        assert health["uptime_seconds"] >= 0.0
        assert health["connections"] >= 2
        assert health["requests_served"] >= 2
        # Back-compat top-level aliases of the similar batcher.
        assert health["batches"] == health["batching"]["similar"]["batches"]
        assert health["batched_requests"] == health["batching"]["similar"]["requests"]
        for name in ("similar", "fold_in"):
            stats = health["batching"][name]
            for key in (
                "batches", "requests", "queue_depth", "last_batch",
                "ewma_depth", "window_cap_ms", "current_window_ms",
            ):
                assert key in stats, (name, key)
        assert health["batching"]["similar"]["requests"] == 1

    def test_idle_latency_close_to_unbatched(self, store):
        """Adaptive batching must not tax a quiet server: sequential keep-alive
        requests at the default window cap stay close to a window-0 server."""

        def p50(handle):
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
            try:
                samples = []
                body = json.dumps({"index": 0, "k": 3})
                for _ in range(60):
                    start = time.perf_counter()
                    conn.request("POST", "/v1/similar", body=body)
                    conn.getresponse().read()
                    samples.append(time.perf_counter() - start)
            finally:
                conn.close()
            samples.sort()
            return samples[len(samples) // 2]

        with start_server_in_thread(store, batch_window=0.0) as handle:
            unbatched = p50(handle)
        with start_server_in_thread(store, batch_window=0.002) as handle:
            adaptive = p50(handle)
        # Generous bound for a shared CI box; the 2ms fixed window it
        # replaces would blow well past this.
        assert adaptive < unbatched + 0.0015, (adaptive, unbatched)
