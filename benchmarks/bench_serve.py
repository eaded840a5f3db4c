"""Serving benchmark: query latency and adaptive micro-batching throughput.

Trains a small model, publishes it to a throwaway registry, starts the
asyncio service in a thread, and measures over keep-alive connections:

* **engine-level** batched vs unbatched similar-query throughput (the
  kernel-side win: one contraction for B queries vs B contractions);
* **HTTP p50/p99** latency of sequential similar queries, against both a
  coalescing-free server (``max_batch=1``) and the default adaptive
  transport — a quiet adaptive server must cost ~nothing extra;
* **HTTP throughput** under concurrent load with micro-batching enabled
  (adaptive window) vs disabled (``max_batch=1``) — the service-side win;
* **engine-level** per-call CPU time of one fold-in of an unseen 50-row
  slice, taken last, after every server has stopped.

Every response is asserted against direct QueryEngine answers along the
way, so this script doubles as the end-to-end serving smoke: train →
publish → serve → similar/reconstruct/fold-in/anomaly → hot-swap reload.

Usage::

    python benchmarks/bench_serve.py --json BENCH_serve.json \\
        --check benchmarks/baselines/bench_serve_baseline.json

``--check`` exits non-zero when the record regresses against the committed
baseline (p99 latency above ``--max-regression`` times the baseline, rps
below baseline divided by it) or when a machine-independent invariant
breaks: batched throughput must be at least unbatched throughput, the
idle-path adaptive p50 must stay within 10% of the coalescing-free p50,
and concurrent load must actually coalesce kernel calls.  The fold-in
timing is recorded, not gated.  Schema v4; a baseline of another schema
refuses the comparison.  See docs/benchmarks.md for the field reference
and baseline re-record procedure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.decomposition.dpar2 import dpar2  # noqa: E402
from repro.serve.queries import QueryEngine  # noqa: E402
from repro.serve.service import start_server_in_thread  # noqa: E402
from repro.serve.store import FactorStore  # noqa: E402
from repro.tensor.random import low_rank_irregular_tensor  # noqa: E402
from repro.util.config import DecompositionConfig  # noqa: E402

#: v3 adds the ``metrics`` registry snapshot of the adaptive server, v4
#: the ``fold_in`` timing.
SCHEMA_VERSION = 4

#: Rows of the unseen slice the fold-in timing projects.
FOLD_IN_ROWS = 50

#: Timed fold-in calls; their median is recorded.
FOLD_IN_CALLS = 400

_JSON_HEADERS = {"Content-Type": "application/json"}


def _http(base_url: str, method: str, path: str, body=None, timeout=30):
    """One-shot request (urllib sends ``Connection: close``) for smokes."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base_url + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


class _Client:
    """A persistent keep-alive connection to the served port."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: "bytes | None" = None) -> dict:
        self._conn.request(
            method, path, body=body, headers=_JSON_HEADERS if body else {}
        )
        response = self._conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise AssertionError(
                f"{method} {path} -> HTTP {response.status}: {payload[:200]!r}"
            )
        return json.loads(payload)

    def close(self) -> None:
        self._conn.close()


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"serving smoke failed: {message}")


def build_registry(root: str, *, n_slices: int, n_columns: int, rank: int,
                   seed: int) -> tuple[FactorStore, QueryEngine, object]:
    rng = np.random.default_rng(seed)
    row_counts = rng.integers(40, 90, size=n_slices).tolist()
    tensor = low_rank_irregular_tensor(
        row_counts, n_columns=n_columns, rank=rank, noise=0.05,
        random_state=seed,
    )
    config = DecompositionConfig(rank=rank, max_iterations=12, random_state=seed)
    result = dpar2(tensor, config)
    store = FactorStore(root)
    store.publish(result, config=config, extra={"dataset": "bench_serve"})
    artifact = store.latest()
    engine = QueryEngine(artifact.result, config=artifact.config,
                         version=artifact.version)
    return store, engine, tensor


def bench_engine(engine: QueryEngine, *, batch: int, repeats: int) -> dict:
    """Kernel-side batched vs unbatched similar-query throughput."""
    indices = [i % engine.n_slices for i in range(batch)]
    unbatched_best = batched_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        singles = [engine.similar([i], k=10) for i in indices]
        unbatched_best = min(unbatched_best, time.perf_counter() - start)
        start = time.perf_counter()
        neighbors, scores = engine.similar(indices, k=10)
        batched_best = min(batched_best, time.perf_counter() - start)
    for row, (n1, s1) in enumerate(singles):
        _assert(np.array_equal(neighbors[row], n1[0]), "batched != single neighbors")
        _assert(np.array_equal(scores[row], s1[0]), "batched != single scores")
    return {
        "batch": batch,
        "unbatched_qps": batch / unbatched_best,
        "batched_qps": batch / batched_best,
        "kernel_speedup": unbatched_best / batched_best,
    }


def bench_fold_in(engine: QueryEngine, *, seed: int) -> dict:
    """Median per-call CPU time of ``fold_in_many`` on one unseen slice.

    CPU time, not wall time, so a busy neighbour on the runner does not
    inflate it; no server thread is running while it is taken.
    """
    rng = np.random.default_rng(seed + 1)
    X = rng.random((FOLD_IN_ROWS, engine.n_columns))
    reference = engine.fold_in_many([X], seeds=[seed])[0]  # also warms up
    samples = []
    for _ in range(FOLD_IN_CALLS):
        start = time.process_time()
        fold = engine.fold_in_many([X], seeds=[seed])[0]
        samples.append((time.process_time() - start) * 1e6)
    _assert(np.array_equal(fold.weights, reference.weights),
            "repeated fold-in of one slice changed its answer")
    return {
        "rows": FOLD_IN_ROWS,
        "sweeps": engine.fold_in_sweeps,
        "calls": FOLD_IN_CALLS,
        "cpu_us_median": statistics.median(samples),
    }


def _percentiles(latencies: list[float], requests: int) -> dict:
    latencies = sorted(latencies)
    return {
        "requests": requests,
        "p50_ms": statistics.median(latencies),
        "p99_ms": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
    }


def bench_http_latency(store: FactorStore, engine: QueryEngine, *,
                       requests: int) -> tuple[dict, dict]:
    """Sequential p50/p99 over keep-alive connections (+ answer checks).

    Returns ``(unbatched, adaptive)``; as with the throughput axis, both
    servers run for the whole measurement and requests alternate between
    them so noise cannot bias one side.  The gate compares their p50s —
    the adaptive window must cost a quiet server ~nothing.
    """
    with start_server_in_thread(store, batch_window=0.0, max_batch=1) as plain:
        with start_server_in_thread(store) as adaptive:  # default transport
            clients = {
                "unbatched": _Client(plain.port),
                "adaptive": _Client(adaptive.port),
            }
            latencies: dict[str, list[float]] = {"unbatched": [], "adaptive": []}
            try:
                for i in range(requests):
                    index = i % engine.n_slices
                    payload = json.dumps({"index": index, "k": 10}).encode()
                    for label, client in clients.items():
                        start = time.perf_counter()
                        body = client.request("POST", "/v1/similar", payload)
                        latencies[label].append(
                            (time.perf_counter() - start) * 1000.0
                        )
                    if i < engine.n_slices:  # correctness check, first pass
                        n1, s1 = engine.similar([index], k=10)
                        _assert(
                            [n["index"] for n in body["neighbors"]]
                            == n1[0].tolist()
                            and [n["score"] for n in body["neighbors"]]
                            == s1[0].tolist(),
                            f"HTTP similar({index}) != engine answer",
                        )
            finally:
                for client in clients.values():
                    client.close()
    return (
        _percentiles(latencies["unbatched"], requests),
        _percentiles(latencies["adaptive"], requests),
    )


def _concurrent_round(port: int, bodies: list[bytes], *, per_thread: int,
                      threads: int) -> float:
    """One load round: `threads` keep-alive clients, wall-clock seconds."""
    errors: list[Exception] = []

    def worker(count: int) -> None:
        client = _Client(port)
        try:
            for i in range(count):
                client.request("POST", "/v1/similar", bodies[i % len(bodies)])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, args=(per_thread,))
            for _ in range(threads)]
    start = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    elapsed = time.perf_counter() - start
    _assert(not errors, f"concurrent requests failed: {errors[:1]}")
    return elapsed


def bench_http_concurrent(store: FactorStore, *, requests: int,
                          threads: int, repeats: int) -> tuple[dict, dict, dict]:
    """Throughput of `threads` keep-alive clients hammering ``/v1/similar``.

    Returns ``(unbatched, batched, metrics)``, where ``metrics`` is the
    adaptive server's registry snapshot taken after the measurement (the
    ``repro_serve_*`` counter state the run produced).
    The unbatched server runs with
    ``max_batch=1`` — every request its own kernel call, the true
    coalescing-free reference — the batched one with the default adaptive
    transport.  Both servers are up for the whole measurement and the
    rounds interleave (unbatched, batched, unbatched, ...), so machine
    noise lands on both configurations instead of biasing whichever
    happened to run during the quiet minute.  Best-of-``repeats`` each.
    """
    bodies = [json.dumps({"index": i, "k": 10}).encode() for i in range(7)]
    per_thread = requests // threads
    served = per_thread * threads
    best = {"unbatched": float("inf"), "batched": float("inf")}
    with start_server_in_thread(store, batch_window=0.0, max_batch=1) as plain:
        with start_server_in_thread(store) as adaptive:  # default transport
            for _ in range(repeats):
                for label, handle in (("unbatched", plain),
                                      ("batched", adaptive)):
                    elapsed = _concurrent_round(
                        handle.port, bodies,
                        per_thread=per_thread, threads=threads,
                    )
                    best[label] = min(best[label], elapsed)
            stats = {
                label: _http(handle.base_url, "GET", "/healthz")
                for label, handle in (("unbatched", plain),
                                      ("batched", adaptive))
            }
            metrics_snapshot = adaptive.app.metrics.snapshot()

    def record(label: str, window_ms: float, max_batch: int) -> dict:
        return {
            "batching": label == "batched",
            "window_ms": window_ms,
            "max_batch": max_batch,
            "threads": threads,
            "requests": served,
            "repeats": repeats,
            "rps": served / best[label],
            "kernel_batches": stats[label]["batches"],
            "batched_requests": stats[label]["batched_requests"],
        }

    return record("unbatched", 0.0, 1), record("batched", 2.0, 64), metrics_snapshot


def smoke_endpoints(store: FactorStore, engine: QueryEngine, tensor) -> None:
    """similar / reconstruct / fold-in / anomaly / hot-swap, asserted."""
    with start_server_in_thread(store, poll_interval=0.0) as handle:
        model = _http(handle.base_url, "GET", "/v1/model")
        _assert(model["rank"] == engine.rank, "model card rank mismatch")

        rec = _http(handle.base_url, "POST", "/v1/reconstruct",
                    {"slice": 0, "rows": [0, 1]})
        _assert(
            np.allclose(rec["values"], engine.reconstruct(0, rows=[0, 1])),
            "reconstruct mismatch",
        )

        X = np.asarray(tensor[1], dtype=np.float64)
        fold = _http(handle.base_url, "POST", "/v1/fold-in",
                     {"slice": X.tolist(), "seed": 2, "neighbors": 3})
        offline = engine.fold_in(X, seed=2)
        _assert(fold["weights"] == offline.weights.tolist(), "fold-in mismatch")
        _assert(fold["neighbors"][0]["index"] == 1,
                "fold-in of a training slice should rank itself first")

        anomaly = _http(handle.base_url, "POST", "/v1/anomaly",
                        {"slice": X.tolist(), "seed": 2})
        _assert(anomaly["score"] == offline.relative_residual, "anomaly mismatch")

        health = _http(handle.base_url, "GET", "/healthz")
        _assert(health["batching"]["fold_in"]["requests"] == 2,
                "fold-in/anomaly did not route through the fold batcher")

        with urllib.request.urlopen(handle.base_url + "/metrics",
                                    timeout=30) as response:
            _assert(response.headers["Content-Type"].startswith("text/plain"),
                    "/metrics served the wrong content type")
            exposition = response.read().decode()
        _assert('repro_serve_batched_requests_total{batcher="fold_in"} 2'
                in exposition, "/metrics disagrees with /healthz counters")
        _assert("repro_serve_request_seconds_bucket" in exposition,
                "/metrics is missing histogram buckets")

        # Publish v2 mid-flight and hot-swap via the admin endpoint.
        v2 = store.publish(engine.result, config=engine.config)
        reload_reply = _http(handle.base_url, "POST", "/admin/reload", {})
        _assert(reload_reply["version"] == v2 and reload_reply["swapped"],
                "hot swap failed")
        _assert(reload_reply["quarantined"] == {}, "unexpected quarantine")
        pinned = _http(handle.base_url, "POST", "/v1/similar",
                       {"index": 0, "k": 2, "version": 1})
        _assert(pinned["version"] == 1, "pinned v1 query failed after swap")


def check_against_baseline(
    record: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Return failure messages for the serving gates.

    Two layers, mirroring bench_kernels: machine-independent invariants
    checked on the record alone (batched rps at least unbatched rps; idle
    adaptive p50 within 10% of the coalescing-free p50; concurrent load
    actually coalescing), and relative regressions against the committed
    baseline (p99 latency up, or rps down, beyond ``max_regression``).
    A baseline recorded for a different workload or schema refuses the
    comparison instead of misreading it.
    """
    failures = []
    if baseline.get("schema_version") != record.get("schema_version"):
        failures.append(
            f"baseline schema v{baseline.get('schema_version')} not comparable "
            f"with record schema v{record.get('schema_version')} — re-record "
            "the baseline (see docs/benchmarks.md)"
        )
        return failures
    base_params = baseline.get("params", {})
    params = record.get("params", {})
    for key in ("n_slices", "n_columns", "rank", "requests",
                "concurrent_requests", "threads", "batch"):
        if key in base_params and base_params[key] != params.get(key):
            failures.append(
                f"workload mismatch on {key}: ran {params.get(key)} but "
                f"baseline recorded {base_params[key]} — not comparable"
            )
    if failures:
        return failures

    # Machine-independent invariants: these hold on any runner, or the
    # transport has regressed in kind, not just in degree.
    batched = record["http_batched"]
    unbatched = record["http_unbatched"]
    if batched["rps"] < unbatched["rps"]:
        failures.append(
            f"batched throughput below unbatched "
            f"({batched['rps']:.0f} < {unbatched['rps']:.0f} rps): "
            "micro-batching is a net loss again"
        )
    if batched["kernel_batches"] >= batched["batched_requests"]:
        failures.append(
            f"micro-batching never coalesced under concurrent load "
            f"({batched['kernel_batches']} kernel calls for "
            f"{batched['batched_requests']} requests)"
        )
    idle = record["latency_adaptive"]["p50_ms"]
    floor = record["latency_unbatched"]["p50_ms"]
    if idle > 1.10 * floor:
        failures.append(
            f"idle-path p50 {idle:.3f} ms exceeds 110% of the coalescing-free "
            f"p50 {floor:.3f} ms: the adaptive window is taxing quiet traffic"
        )
    speedup = record["engine"]["kernel_speedup"]
    if speedup < 2.0:
        failures.append(
            f"kernel-side batching speedup {speedup:.2f}x below 2x — "
            "batched similar lost its advantage"
        )

    # Relative gates against the committed baseline.
    for section, metric, direction in (
        ("latency_unbatched", "p99_ms", "up"),
        ("latency_adaptive", "p99_ms", "up"),
        ("http_unbatched", "rps", "down"),
        ("http_batched", "rps", "down"),
    ):
        base = baseline.get(section, {}).get(metric)
        current = record.get(section, {}).get(metric)
        if base is None or base <= 0 or current is None:
            continue
        if direction == "up" and current > base * max_regression:
            failures.append(
                f"{section}.{metric} regressed {current / base:.2f}x "
                f"({current:.3f} vs baseline {base:.3f}, "
                f"allowed {max_regression:.1f}x)"
            )
        if direction == "down" and current < base / max_regression:
            failures.append(
                f"{section}.{metric} dropped to {current / base:.2f}x of "
                f"baseline ({current:.0f} vs {base:.0f}, "
                f"allowed 1/{max_regression:.1f})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the benchmark record here")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="baseline JSON to gate the record against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="failure threshold as a factor over/under the "
                        "baseline (default: 2.0)")
    parser.add_argument("--requests", type=int, default=200,
                        help="sequential HTTP requests for the latency axis")
    parser.add_argument("--concurrent-requests", type=int, default=240)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--batch", type=int, default=64,
                        help="engine-level batch size")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        store, engine, tensor = build_registry(
            root, n_slices=60, n_columns=32, rank=8, seed=args.seed
        )
        print(f"registry: {store}")

        smoke_endpoints(store, engine, tensor)
        print("smoke   : similar/reconstruct/fold-in/anomaly/hot-swap OK")

        kernel = bench_engine(engine, batch=args.batch, repeats=args.repeats)
        print(f"engine  : {kernel['unbatched_qps']:,.0f} q/s unbatched -> "
              f"{kernel['batched_qps']:,.0f} q/s batched "
              f"({kernel['kernel_speedup']:.1f}x)")

        # Sequential latency over keep-alive connections: max_batch=1 is
        # the coalescing-free floor; the adaptive default must stay within
        # 10% of it at p50, because its window is ~0 on a quiet server.
        latency_unbatched, latency_adaptive = bench_http_latency(
            store, engine, requests=args.requests
        )
        print(f"latency : p50 {latency_unbatched['p50_ms']:.2f} ms / "
              f"p99 {latency_unbatched['p99_ms']:.2f} ms coalescing-free; "
              f"p50 {latency_adaptive['p50_ms']:.2f} ms / "
              f"p99 {latency_adaptive['p99_ms']:.2f} ms adaptive "
              f"({latency_unbatched['requests']} sequential requests)")

        unbatched, batched, metrics_snapshot = bench_http_concurrent(
            store, requests=args.concurrent_requests,
            threads=args.threads, repeats=args.repeats,
        )
        _assert(
            batched["kernel_batches"] < batched["batched_requests"],
            "micro-batching never coalesced anything under concurrent load",
        )
        print(f"http    : {unbatched['rps']:,.0f} req/s unbatched vs "
              f"{batched['rps']:,.0f} req/s adaptive-batched "
              f"({batched['rps'] / unbatched['rps']:.2f}x; "
              f"{batched['kernel_batches']} kernel calls for "
              f"{batched['batched_requests']} requests)")

        # Timed last, so no fold-in work runs ahead of the gated HTTP axes.
        fold_in = bench_fold_in(engine, seed=args.seed)
        print(f"fold-in : {fold_in['cpu_us_median']:,.0f} us CPU per call "
              f"({fold_in['rows']} rows, {fold_in['sweeps']} sweeps, "
              f"median of {fold_in['calls']})")

    record = {
        "schema_version": SCHEMA_VERSION,
        "platform": platform.platform(),
        "params": {
            "n_slices": 60, "n_columns": 32, "rank": 8,
            "requests": args.requests,
            "concurrent_requests": args.concurrent_requests,
            "threads": args.threads, "batch": args.batch,
            "repeats": args.repeats, "seed": args.seed,
        },
        "engine": kernel,
        "fold_in": fold_in,
        "latency_unbatched": latency_unbatched,
        "latency_adaptive": latency_adaptive,
        "http_unbatched": unbatched,
        "http_batched": batched,
        "metrics": metrics_snapshot,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
        print(f"record  : {args.json}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_against_baseline(record, baseline, args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"gate    : ok (<= {args.max_regression:.1f}x baseline; "
              "batched >= unbatched rps; idle p50 within 10%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
