"""serve-mixed: ``repro serve`` under a closed-loop query mix and a writer.

The server and the streaming writer (``writer.py``) each run in their own
process; this process drives the reads.  Read-only phases give the request
metrics.  A write phase follows: the writer absorbs batches, publishes them
and hot-swaps the server with ``/admin/reload`` while the reads continue;
it gives the update metrics.  Reads and writes are separate phases because
mixing them in one window made the read figures swing with the writer's
timing.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import derive_seed, median, percentile_ms, process_cpu_seconds, timed_setup
from mix import KINDS, PATHS, answer, http_view, make_requests, same_answer, time_in_process
from repro.serve.queries import QueryEngine
from repro.serve.store import FactorStore
from writer import stream_slices

HERE = Path(__file__).resolve().parent
HEADERS = {"Content-Type": "application/json"}
#: Similar and fold-in requests whose HTTP answers must equal a direct
#: QueryEngine on the served version.
PROBE_SIMILAR, PROBE_FOLD_IN = 8, 4
#: A read phase runs on until it has this many samples, so that its p99
#: has ten beyond it.
MIN_PHASE_SAMPLES = 1000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def call(port: int, method: str, path: str, body: bytes | None = None, timeout=30.0):
    """One request on a fresh connection: ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body, HEADERS)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """``python -m repro serve`` on a free port, stopped with SIGTERM."""

    def __init__(self, registry: Path, log: Path) -> None:
        self.port = free_port()
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry", str(registry),
             "--port", str(self.port), "--poll-interval", "0"],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if call(self.port, "GET", "/healthz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start; see {log}")
            time.sleep(0.02)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> list[str]:
        """Drain and stop; problems if it does not exit 0 in time."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("repro serve ignored SIGTERM")
        if self.proc.returncode != 0:
            problems.append(f"repro serve exited with {self.proc.returncode}")
        self._log.close()
        return problems


class Writer:
    """The streaming writer process and its line protocol."""

    def __init__(self, registry: Path, seed: int, fixture: dict, common: dict, log: Path) -> None:
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "writer.py"), "--registry", str(registry),
             "--seed", str(seed), "--fixture", json.dumps(fixture), "--common", json.dumps(common)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the writer exited early; see its log in the run directory")
        return json.loads(line)

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def updates(self, url: str, seconds: float, min_updates: int) -> list[dict]:
        self.send({"cmd": "updates", "url": url, "seconds": seconds, "min_updates": min_updates})
        records = []
        while "done" not in (record := self._read()):
            records.append(record)
        return records

    def fitness(self) -> float:
        self.send({"cmd": "fitness"})
        return self._read()["fitness"]

    def stop(self) -> list[str]:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return [] if self.proc.returncode == 0 else [f"writer exited with {self.proc.returncode}"]


class Readers:
    """Closed-loop clients, one keep-alive connection and thread each."""

    def __init__(self, port: int, requests, connections: int) -> None:
        self._port, self._requests, self._n = port, requests, connections
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.samples: list[tuple] = []   # (kind, seconds, problem or None)

    def start(self) -> None:
        self._stop.clear()
        self.samples = []
        self._threads = [threading.Thread(target=self._drive, args=(i,)) for i in range(self._n)]
        self._started = time.perf_counter()
        for thread in self._threads:
            thread.start()

    def run(self, seconds: float, min_samples: int) -> tuple[list[tuple], float]:
        """Drive for ``seconds``, longer if needed to collect ``min_samples``."""
        self.start()
        time.sleep(seconds)
        while len(self.samples) < min_samples and all(t.is_alive() for t in self._threads):
            time.sleep(0.01)
        return self.stop()

    def stop(self) -> tuple[list[tuple], float]:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        return self.samples, time.perf_counter() - self._started

    def _drive(self, offset: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=30.0)
        index = offset
        try:
            while not self._stop.is_set():
                request = self._requests[index % len(self._requests)]
                index += self._n
                start = time.perf_counter()
                try:
                    conn.request("POST", PATHS[request.kind], request.body, HEADERS)
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    status, data = f"error {exc!r}", b""
                elapsed = time.perf_counter() - start
                self.samples.append((request.kind, elapsed, http_view(request, status, data)[0]))
        finally:
            conn.close()


_SAMPLE = re.compile(r'^(\w+)(?:\{([^}]*)\})? (\S+)$')


def scrape(port: int) -> dict:
    """Sums from ``/metrics``: /v1 request seconds and count, batcher totals."""
    status, data = call(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = defaultdict(float)
    for line in data.decode().splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        name, labels, value = match.groups()
        if name in ("repro_serve_request_seconds_sum", "repro_serve_request_seconds_count"):
            if labels and 'path="/v1/' in labels:
                out[name] += float(value)
        elif name in ("repro_serve_batched_requests_total", "repro_serve_batches_total"):
            out[name] += float(value)
    return out


def check_probe(port: int, store: FactorStore, requests, expected: int) -> list[str]:
    """Fixed similar and fold-in probes vs a direct QueryEngine on the served version.

    The server must be serving ``expected``, the newest published version.
    """
    status, data = call(port, "GET", "/v1/versions")
    if status != 200:
        return [f"/v1/versions answered {status}"]
    version = json.loads(data)["serving"]
    if version != expected:
        return [f"serving version {version}, expected {expected}"]
    artifact = store.get(version)
    engine = QueryEngine(artifact.result, config=artifact.config, version=version)
    chosen = ([r for r in requests if r.kind == "similar"][:PROBE_SIMILAR]
              + [r for r in requests if r.kind == "fold_in"][:PROBE_FOLD_IN])
    problems = []
    for request in chosen:
        problem, body = http_view(request, *call(port, "POST", PATHS[request.kind], request.body))
        if problem is None and body["version"] != version:
            problem = f"probe answered from version {body['version']}, serving {version}"
        if problem is None and not same_answer(request, body, answer(engine, request)):
            problem = f"{request.kind} probe differs from a direct QueryEngine on version {version}"
        if problem:
            problems.append(problem)
    return problems


def run_serve(ctx) -> dict:
    """Set up, then read-only phases, then one write phase, on one server.

    Each read phase gives its own latency and throughput and a run reports
    their medians, so one burst of noise from the rest of the machine does
    not decide the run.  All reads are measured before the first hot swap:
    on a 2-vCPU VM, read throughput fell from about 720 to 410 requests/s
    over nine swaps, so reads after writes would measure how many swaps
    the writer happened to fit in.
    """
    fixture, common = ctx.params["fixture"], ctx.common
    setup, reads, server_cpu = None, [], []
    scraped = defaultdict(float)

    def build():
        registry = ctx.sandbox.scratch("registry")
        writer = Writer(registry, ctx.seed, fixture, common,
                        ctx.sandbox.own(registry.with_suffix(".writer.log")))
        try:
            server = Server(registry, ctx.sandbox.own(registry.with_suffix(".server.log")))
        except BaseException:
            writer.stop()
            raise
        return registry, writer, server

    def stop(built):
        ctx.tally.check(built[1].stop() + built[2].stop())

    def live_cpu(built):
        return sum(process_cpu_seconds(p.proc.pid) for p in built[1:])

    try:
        setup_s, setup = timed_setup(ctx, build, discard=stop, live_cpu=live_cpu)
        registry, writer, server = setup
        store = FactorStore(registry)

        pool = stream_slices(fixture, common, ctx.seed, common["unseen_pool"])
        served = store.latest()
        requests = make_requests(
            np.random.default_rng(derive_seed(ctx.seed, 2)), common["probe_requests"],
            row_counts=[q.shape[0] for q in served.result.Q], pool=pool, common=common)
        ctx.tally.check(check_probe(server.port, store, requests, served.version))

        readers = Readers(server.port, requests, fixture["connections"])
        read_s = ctx.seconds * fixture["read_share"]
        for _ in range(fixture["read_phases"]):
            before = scrape(server.port)
            cpu_before = process_cpu_seconds(server.proc.pid)
            reads.append(readers.run(read_s / fixture["read_phases"], MIN_PHASE_SAMPLES))
            server_cpu.append(process_cpu_seconds(server.proc.pid) - cpu_before)
            for name, value in scrape(server.port).items():
                scraped[name] += value - before[name]
        readers.start()
        updates = writer.updates(server.url, ctx.seconds - read_s, fixture["min_updates"])
        write_samples = readers.stop()[0]
        final_probe = check_probe(server.port, store, requests, store.latest_version())
        fitness = writer.fitness()
    finally:
        if setup is not None:
            stop(setup)

    read_samples = [sample for samples, _ in reads for sample in samples]
    for _, _, problem in read_samples + write_samples:
        ctx.tally.check(problem)
    for record in updates:
        problem = record.get("error")
        if problem is None and (record["status"] != 200 or record["served"] != record["version"]):
            problem = (f"update v{record['version']}: /admin/reload answered "
                       f"{record['status']} serving v{record['served']}")
        ctx.tally.check(problem)
    ctx.tally.check(final_probe)
    per_phase = [{"p50_ms": percentile_ms([s[1] for s in samples], 50),
                  "p99_ms": percentile_ms([s[1] for s in samples], 99),
                  "rps": len(samples) / elapsed, "samples": len(samples),
                  "server_cpu_ms": 1e3 * cpu / len(samples)}
                 for (samples, elapsed), cpu in zip(reads, server_cpu)]
    ctx.details.update({"read_phases": per_phase, "updates": updates})
    good = [u for u in updates if "freshness_s" in u]
    metrics = {
        "setup_s": setup_s,
        "decompose_s": median([u["absorb_cpu_s"] for u in good]),
        "streaming.absorb_s": median([u["absorb_s"] for u in good]),
        "freshness_s": median([u["freshness_s"] for u in good]),
        "fitness": fitness,
        "serve_cpu_ms": median([p["server_cpu_ms"] for p in per_phase]),
        "serve_p50_ms": median([p["p50_ms"] for p in per_phase]),
        "serve_p99_ms": median([p["p99_ms"] for p in per_phase]),
        "serve_rps": median([p["rps"] for p in per_phase]),
        "service.requests": len(read_samples) + len(write_samples),
        "service.failed": sum(1 for s in read_samples + write_samples if s[2] is not None),
    }
    if not ctx.trace:
        return metrics

    per_class = defaultdict(list)
    for kind, seconds, _ in read_samples:
        per_class[kind].append(seconds)
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        latest = store.latest()
        QueryEngine(latest.result, config=latest.config, version=latest.version)
        builds.append(time.perf_counter() - start)
    engine = QueryEngine(served.result, config=served.config, version=served.version)
    in_process = defaultdict(list)
    for kind, seconds in time_in_process(engine, requests):
        in_process[kind].append(seconds)
    for kind in KINDS:
        metrics[f"service.{kind}_ms"] = percentile_ms(per_class[kind], 50)
        metrics[f"queries.{kind}_ms"] = percentile_ms(in_process[kind], 50)
    metrics.update({
        "service.transport_ms": metrics["service.similar_ms"] - metrics["queries.similar_ms"],
        "service.server_ms": 1e3 * scraped["repro_serve_request_seconds_sum"]
                             / scraped["repro_serve_request_seconds_count"],
        "service.coalesce_ratio": scraped["repro_serve_batched_requests_total"]
                                  / scraped["repro_serve_batches_total"],
        "store.publish_s": median([u["publish_s"] for u in good]),
        "service.reload_s": median([u["reload_s"] for u in good]),
        "queries.engine_build_s": median(builds),
    })
    return metrics
