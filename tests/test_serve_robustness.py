"""Serving-layer robustness: deadlines, shedding, body caps, drain, quarantine.

Covers the fault surface of :mod:`repro.serve.service`:

* request deadlines answer 503 + ``Retry-After`` and count under
  ``/healthz`` ``faults.timeouts``;
* an oversized ``Content-Length`` answers 413 without the body ever being
  read;
* a full micro-batch queue sheds with 503 + ``Retry-After``;
* a request asking for more work than a cap allows (fold-in sweeps,
  ``/v1/similar`` indices, ``/v1/reconstruct`` rows beyond the slice's
  height) answers 400 before it reaches a kernel;
* an error body names the bad field and its value's type, not the value,
  and never the registry's directory;
* SIGTERM triggers a graceful drain — in-flight requests are answered,
  the process exits 0 (exercised over real HTTP against a real
  ``repro serve`` subprocess);
* a published version whose engine build fails is quarantined and the
  previous version keeps serving; ``/admin/reload`` retries it;
* a body that is not JSON under the wire contract (200,000-deep nesting,
  ``NaN`` literals, a BOM, ...) answers 400 under both wire codecs, and
  the server keeps answering on the same connection.
"""

import asyncio
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.decomposition.dpar2 import dpar2
from repro.serve.service import (
    DEFAULT_MAX_BODY_BYTES,
    MAX_FOLD_IN_SWEEPS,
    MAX_SIMILAR_INDICES,
    MicroBatcher,
    ServiceError,
    start_server_in_thread,
)
from repro.serve.store import FactorStore
from repro.tensor.irregular import IrregularTensor
from repro.util import faults
from repro.util.config import DecompositionConfig
from repro.util.faults import FaultPlan, FaultSpec


def _call(base_url: str, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base_url + path, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def tensor():
    rng = np.random.default_rng(0)
    return IrregularTensor([rng.standard_normal((n, 8)) for n in (12, 15, 9, 20)])


@pytest.fixture(scope="module")
def result(tensor):
    return dpar2(
        tensor, DecompositionConfig(rank=3, max_iterations=4, random_state=0)
    )


@pytest.fixture()
def store(tmp_path, result):
    registry = FactorStore(tmp_path / "registry")
    registry.publish(result)
    return registry


# --------------------------------------------------------------------- #
# request deadlines
# --------------------------------------------------------------------- #


class TestRequestDeadline:
    def test_slow_dispatch_answers_503_with_retry_after(self, store):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="serve.dispatch", kind="slow", at=(1,), seconds=5.0
                ),
            )
        )
        with start_server_in_thread(store, request_timeout=0.3) as handle:
            with faults.injected(plan):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _call(handle.base_url, "GET", "/healthz")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.loads(excinfo.value.read())
            assert "deadline" in body["error"]
            # The connection survives a deadline (framing is intact) and
            # the counter is visible on the next request.
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["faults"]["timeouts"] == 1

    def test_fast_requests_unaffected_by_deadline(self, store):
        with start_server_in_thread(store, request_timeout=5.0) as handle:
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["faults"]["timeouts"] == 0

    def test_injected_hang_is_cancelled_not_blocking(self, store):
        # A hang must not wedge the event loop: the deadline machinery
        # itself runs on that loop, so this doubles as a regression test
        # that injection sleeps asynchronously in async context.
        plan = FaultPlan(
            specs=(FaultSpec(site="serve.dispatch", kind="hang", at=(1,)),)
        )
        with start_server_in_thread(store, request_timeout=0.2) as handle:
            started = time.monotonic()
            with faults.injected(plan):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _call(handle.base_url, "GET", "/healthz")
            assert excinfo.value.code == 503
            assert time.monotonic() - started < 10.0


# --------------------------------------------------------------------- #
# body-size cap
# --------------------------------------------------------------------- #


class TestBodyCap:
    def test_default_cap_is_8mib(self):
        assert DEFAULT_MAX_BODY_BYTES == 8 << 20

    def test_oversized_content_length_gets_413_without_body(self, store):
        with start_server_in_thread(store, max_body_bytes=1024) as handle:
            # Raw socket: declare a huge body and send none of it — the
            # server must answer from the headers alone.
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/similar HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 10000000\r\n"
                    b"\r\n"
                )
                response = http.client.HTTPResponse(sock, method="POST")
                response.begin()
                assert response.status == 413
                body = json.loads(response.read())
                assert "exceeds" in body["error"]
                # Framing is lost (unread body), so the server closes.
                assert response.getheader("Connection") == "close"

    def test_body_within_cap_is_served(self, store, result):
        with start_server_in_thread(store, max_body_bytes=1 << 20) as handle:
            reply = _call(
                handle.base_url, "POST", "/v1/similar", {"index": 0, "k": 2}
            )
            assert len(reply["neighbors"]) == 2

    def test_cap_disabled_with_none(self, store):
        with start_server_in_thread(store, max_body_bytes=None) as handle:
            payload = {"index": 0, "k": 2, "pad": "x" * 100_000}
            reply = _call(handle.base_url, "POST", "/v1/similar", payload)
            assert reply["neighbors"]


# --------------------------------------------------------------------- #
# caps on the work one request may ask for
# --------------------------------------------------------------------- #


class TestWorkCaps:
    """Kernels run on the event-loop thread, where the request deadline
    cannot stop them, so the work one request may ask for is capped."""

    def test_huge_sweeps_rejected_at_once(self, store, tensor, result):
        slice_ = tensor.slices[0].tolist()
        with start_server_in_thread(store) as handle:
            start = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", "/v1/fold-in",
                      {"slice": slice_, "sweeps": 10**9})
            assert err.value.code == 400
            health = _call(handle.base_url, "GET", "/healthz")
            assert time.monotonic() - start < 5.0
            assert health["status"] == "ok"
            assert health["batching"]["fold_in"]["requests"] == 0  # never batched
            reply = _call(handle.base_url, "POST", "/v1/fold-in",
                          {"slice": slice_, "sweeps": MAX_FOLD_IN_SWEEPS})
            assert len(reply["weights"]) == result.rank
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", "/v1/fold-in",
                      {"slice": slice_, "sweeps": MAX_FOLD_IN_SWEEPS + 1})
            assert err.value.code == 400
            assert str(MAX_FOLD_IN_SWEEPS) in json.loads(err.value.read())["error"]

    def test_similar_indices_cap_both_sides(self, store, tensor):
        indices = [i % tensor.n_slices for i in range(MAX_SIMILAR_INDICES + 1)]
        with start_server_in_thread(store) as handle:
            reply = _call(
                handle.base_url, "POST", "/v1/similar",
                {"indices": indices[:MAX_SIMILAR_INDICES], "k": 2},
            )
            assert len(reply["results"]) == MAX_SIMILAR_INDICES
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", "/v1/similar", {"indices": indices, "k": 2})
            assert err.value.code == 400
            assert str(MAX_SIMILAR_INDICES) in json.loads(err.value.read())["error"]

    def test_reconstruct_rows_capped_at_slice_height(self, store, tensor):
        k = 1
        height = tensor.slices[k].shape[0]
        rows = [0] * height  # repeated indices count toward the bound
        with start_server_in_thread(store) as handle:
            reply = _call(handle.base_url, "POST", "/v1/reconstruct",
                          {"slice": k, "rows": rows})
            assert reply["shape"] == [height, tensor.n_columns]
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", "/v1/reconstruct",
                      {"slice": k, "rows": rows + [0]})
            assert err.value.code == 400
            assert str(height) in json.loads(err.value.read())["error"]

    def test_huge_rows_rejected_at_once(self, store):
        body = {"slice": 0, "rows": [0] * 400_000}
        assert len(json.dumps(body)) < DEFAULT_MAX_BODY_BYTES
        with start_server_in_thread(store) as handle:
            codes = []

            def fire():
                try:
                    _call(handle.base_url, "POST", "/v1/reconstruct", body)
                except urllib.error.HTTPError as err:
                    codes.append(err.code)

            start = time.monotonic()
            sender = threading.Thread(target=fire)
            sender.start()
            health = _call(handle.base_url, "GET", "/healthz")
            health_seconds = time.monotonic() - start
            sender.join(timeout=30)
            assert codes == [400]
            assert time.monotonic() - start < 5.0
            assert health["status"] == "ok" and health_seconds < 5.0


# --------------------------------------------------------------------- #
# what an error body echoes
# --------------------------------------------------------------------- #


class TestErrorBodies:
    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/v1/similar", {"index": list(range(200_000))}, "'index'"),
            ("/v1/similar", {"index": 0, "mode": [1.0] * 100_000}, "'mode'"),
            ("/v1/similar", {"index": "9" * 1_000_000}, "'index'"),
            ("/v1/anomaly", {"slice": [["x" * 1_000_000]]}, "'slice'"),
        ],
        ids=["index-array", "mode-array", "index-string", "slice-string"],
    )
    def test_bad_value_is_named_not_echoed(self, store, path, body, field):
        """A megabyte of bad value answers a 400 of under a kilobyte."""
        with start_server_in_thread(store) as handle:
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", path, body)
            reply = err.value.read()
        assert err.value.code == 400
        assert len(reply) < 1024
        assert field in json.loads(reply)["error"]

    def test_registry_path_stays_out_of_v1_errors(self, store, tmp_path):
        with start_server_in_thread(store) as handle:
            errors = []
            for method, path, body in [
                ("GET", "/v1/model?version=-1", None),
                ("POST", "/v1/similar", {"index": 0, "version": 42}),
            ]:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _call(handle.base_url, method, path, body)
                assert err.value.code == 404
                errors.append(json.loads(err.value.read())["error"])
            # Unpublish the only version: a reload finds the registry empty.
            shutil.rmtree(store.version_dir(1))
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(handle.base_url, "POST", "/admin/reload", {})
            assert err.value.code == 503
            errors.append(json.loads(err.value.read())["error"])
        assert "version -1" in errors[0] and "[1]" in errors[0]
        assert "version 42" in errors[1] and "[1]" in errors[1]
        assert "no published versions" in errors[2]
        for error in errors:
            assert str(tmp_path) not in error


# --------------------------------------------------------------------- #
# queue shedding
# --------------------------------------------------------------------- #


class TestShedding:
    def test_batcher_sheds_past_max_queue(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: [item * 2 for item in items],
                window=5.0, max_batch=16, adaptive=False, max_queue=2,
            )
            first = asyncio.ensure_future(batcher.submit(1))
            second = asyncio.ensure_future(batcher.submit(2))
            await asyncio.sleep(0.05)  # both parked behind the open window
            with pytest.raises(ServiceError) as excinfo:
                await batcher.submit(3)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 1
            assert batcher.shed == 1
            batcher._flush()  # don't sit out the 5 s window in a test
            assert await first == 2
            assert await second == 4
            assert batcher.stats()["shed"] == 1

        asyncio.run(scenario())

    def test_max_queue_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(lambda items: items, max_queue=0)

    def test_shed_counter_reported_in_healthz(self, store):
        with start_server_in_thread(store, max_queue=4) as handle:
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["faults"]["shed"] == 0
            assert health["batching"]["similar"]["shed"] == 0


# --------------------------------------------------------------------- #
# graceful drain
# --------------------------------------------------------------------- #


class TestGracefulDrain:
    def test_in_thread_drain_answers_in_flight_request(self, store):
        # A fixed 1.5 s batching window holds the query in flight long
        # enough to drain around it.
        handle = start_server_in_thread(
            store, batch_window=1.5, adaptive_batching=False, drain_timeout=10.0
        )
        outcome = {}

        def query():
            outcome["reply"] = _call(
                handle.base_url, "POST", "/v1/similar", {"index": 0, "k": 2}
            )

        thread = threading.Thread(target=query)
        thread.start()
        time.sleep(0.4)  # request is now parked in the batch window
        handle._loop.call_soon_threadsafe(handle.app.begin_drain)
        thread.join(timeout=15)
        assert outcome["reply"]["neighbors"]  # answered, not dropped
        handle._thread.join(timeout=15)
        assert not handle._thread.is_alive()  # run() returned after drain

    def test_sigterm_drains_real_server_and_exits_zero(self, store):
        # End-to-end over real HTTP: `repro serve` in a subprocess, one
        # request held in flight by a fixed batch window, SIGTERM mid-
        # flight.  The request must be answered and the exit code must
        # be 0.
        port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; sys.exit(main())",
                "serve", "--registry", str(store.root),
                "--port", str(port), "--poll-interval", "0",
                "--batch-window-ms", "1500", "--fixed-batch-window",
                "--drain-timeout", "10",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        base_url = f"http://127.0.0.1:{port}"
        try:
            _wait_for_healthz(base_url)
            outcome = {}

            def query():
                try:
                    outcome["reply"] = _call(
                        base_url, "POST", "/v1/similar", {"index": 0, "k": 2}
                    )
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    outcome["error"] = exc

            thread = threading.Thread(target=query)
            thread.start()
            time.sleep(0.4)  # in flight, parked in the 1.5 s window
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=20)
            returncode = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["reply"]["neighbors"]  # in-flight request answered
        assert returncode == 0  # graceful exit after drain

    def test_sigterm_on_idle_server_exits_zero_promptly(self, store):
        port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; sys.exit(main())",
                "serve", "--registry", str(store.root),
                "--port", str(port), "--poll-interval", "0",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _wait_for_healthz(f"http://127.0.0.1:{port}")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_healthz(base_url: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if _call(base_url, "GET", "/healthz")["status"] == "ok":
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.05)
    raise RuntimeError(f"server at {base_url} never became healthy")


# --------------------------------------------------------------------- #
# version quarantine
# --------------------------------------------------------------------- #


class TestQuarantine:
    def test_corrupt_latest_version_falls_back_to_previous(
        self, store, result, tmp_path
    ):
        version = store.publish(result)
        manifest = store.version_dir(version) / "model.json"
        good_manifest = manifest.read_text()
        manifest.write_text("{corrupt json")

        with start_server_in_thread(store) as handle:
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["version"] == 1  # previous version serves
            assert str(version) in health["faults"]["quarantined"]

            # Reload retries the quarantined version; still broken → the
            # verdict is re-recorded and v1 keeps serving.
            reply = _call(handle.base_url, "POST", "/admin/reload", {})
            assert reply["version"] == 1
            assert str(version) in reply["quarantined"]

            # Repair the payload in place; reload now adopts it.
            manifest.write_text(good_manifest)
            reply = _call(handle.base_url, "POST", "/admin/reload", {})
            assert reply == {
                "version": version, "swapped": True, "quarantined": {},
            }
            assert _call(handle.base_url, "GET", "/healthz")["version"] == version

    def test_queries_keep_answering_while_latest_is_quarantined(
        self, store, result
    ):
        version = store.publish(result)
        (store.version_dir(version) / "H.npy").write_bytes(b"not an npy file")
        with start_server_in_thread(store) as handle:
            reply = _call(
                handle.base_url, "POST", "/v1/similar", {"index": 0, "k": 2}
            )
            assert reply["version"] == 1
            assert reply["neighbors"]

    def test_all_versions_broken_fails_startup(self, tmp_path, result):
        registry = FactorStore(tmp_path / "broken")
        version = registry.publish(result)
        (registry.version_dir(version) / "model.json").write_text("{nope")
        with pytest.raises(Exception, match="failed to load"):
            start_server_in_thread(registry)


# --------------------------------------------------------------------- #
# /healthz fault counters
# --------------------------------------------------------------------- #


class TestHealthzFaults:
    def test_faults_block_shape(self, store):
        with start_server_in_thread(store) as handle:
            block = _call(handle.base_url, "GET", "/healthz")["faults"]
            assert block == {
                "timeouts": 0,
                "shed": 0,
                "drains": 0,
                "draining": False,
                "worker_restarts": 0,
                "checkpoint_resumes": 0,
                "quarantined": {},
            }

    def test_served_version_meta_counters_surface(self, store, result):
        store.publish(
            result, extra={"worker_restarts": 3, "checkpoint_resumes": 1}
        )
        with start_server_in_thread(store) as handle:
            block = _call(handle.base_url, "GET", "/healthz")["faults"]
            assert block["worker_restarts"] == 3
            assert block["checkpoint_resumes"] == 1


# --------------------------------------------------------------------- #
# the wire contract over HTTP
# --------------------------------------------------------------------- #


def _post_raw(conn: http.client.HTTPConnection, path: str, body: bytes):
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestWireContract:
    """Bodies the two JSON codecs once decoded differently answer alike."""

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 200_000 + b"]" * 200_000,
            b'{"a":' * 200_000 + b"1" + b"}" * 200_000,
        ],
        ids=["array", "object"],
    )
    def test_deeply_nested_body_answers_400(self, store, wire_codec, body):
        """Was a 500 (RecursionError); unguarded orjson segfaults on it."""
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            try:
                status, reply = _post_raw(conn, "/v1/similar", body)
                assert status == 400
                assert reply["error"].startswith("request body is not JSON")
                status, _ = _post_raw(conn, "/v1/similar", b'{"index": 0, "k": 2}')
                assert status == 200  # same keep-alive connection
            finally:
                conn.close()
            health = _call(handle.base_url, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["codec"] == wire_codec

    @pytest.mark.parametrize(
        "body",
        [
            b'{"slice": [[NaN, 1, 2, 3, 4, 5, 6, 7]]}',
            b'{"index": 0, "k": Infinity}',
            b'{"slice": [[1e400, 1, 2, 3, 4, 5, 6, 7]]}',
            b'\xef\xbb\xbf{"index": 0}',
            '{"index": 0}'.encode("utf-16"),
            b'{"index": 0, "mode": "\\ud800"}',
            b"[" * 513 + b"]" * 513,
        ],
        ids=["nan", "infinity", "overflow", "bom", "utf16", "lone-surrogate", "depth-513"],
    )
    def test_non_json_bodies_answer_400(self, store, wire_codec, body):
        path = "/v1/anomaly" if b"slice" in body else "/v1/similar"
        with start_server_in_thread(store) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            try:
                status, reply = _post_raw(conn, path, body)
                assert status == 400
                assert reply["error"].startswith("request body is not JSON")
            finally:
                conn.close()

    def test_out_of_range_integer_answers_alike(self, store, monkeypatch):
        """An integer past 64 bits decodes as a float under both codecs."""
        from repro.serve import wire

        body = b'{"index": 0, "k": 100000000000000000000000}'
        answers = []
        for module in (wire._orjson, None):
            monkeypatch.setattr(wire, "_orjson", module)
            with start_server_in_thread(store) as handle:
                conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
                try:
                    answers.append(_post_raw(conn, "/v1/similar", body))
                finally:
                    conn.close()
        assert answers[0][0] == 200
        assert answers[0] == answers[1]
