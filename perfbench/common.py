"""Plumbing shared by the benchmark's workloads.

Failure tally, in-memory layer spans, output checks on fitted models, the
run's sandbox (scratch directory, ``/dev/shm`` and child-process hygiene),
and the environment record.  Nothing here imports ``repro``: the workload
modules do, after ``run.py`` has pinned BLAS and put ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tally:
    """Attempted and failed operations; every failure keeps its message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, problems) -> bool:
        """Count one operation; it fails when ``problems`` is non-empty."""
        if isinstance(problems, str):
            problems = [problems]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)
            return False
        return True


class Tracer:
    """Layer spans recorded from outside the program, kept in memory.

    Each span has an id, its parent's id, a name and start/end times from
    ``time.perf_counter``.  Spans that share a root belong to one
    decomposition; ``coverage`` is the share of a root's wall time its
    direct children account for.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def split(self, parent: dict, parts, rest: str) -> None:
        """Add child spans of known durations to a closed span, in order.

        Used where the program reports its own phase times (the sharded
        call's result fields); whatever the parts leave is named ``rest``.
        """
        start = parent["start"]
        for name, seconds in parts:
            self.spans.append({"id": len(self.spans), "parent": parent["id"],
                               "name": name, "start": start, "end": start + seconds})
            start += seconds
        self.spans.append({"id": len(self.spans), "parent": parent["id"],
                           "name": rest, "start": start, "end": parent["end"]})

    @staticmethod
    def seconds(record: dict) -> float:
        return record["end"] - record["start"]

    def children(self, record: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == record["id"]]

    def coverage(self, root: dict) -> float:
        total = self.seconds(root)
        return sum(self.seconds(c) for c in self.children(root)) / total if total > 0 else 1.0

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds."""
        out: dict[str, dict] = {}
        for record in self.spans:
            entry = out.setdefault(record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            total = self.seconds(record)
            entry["count"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - sum(self.seconds(c) for c in self.children(record))
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"summary": self.summary(), "spans": self.spans}, indent=1))


def derive_seed(seed: int, *labels: int) -> int:
    """An independent 32-bit seed for one input of the run."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children.

    The gated timings use it instead of wall time: on a 2-vCPU VM whose
    host takes busy vCPUs away ("steal"), a fixed 0.6 s computation took
    0.59 to 0.85 s of wall time while its CPU time stayed within 9%.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """CPU time so far of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed_setup(ctx, build, discard=None, live_cpu=None):
    """Set up ``setup_repeats`` times, and more until ``setup_min_s`` is spent.

    Returns the median CPU seconds of one build and the last build.
    ``discard`` releases a finished build (stops its processes) before the
    next one starts; ``live_cpu`` gives the CPU time of a build's processes
    that are still running.
    """
    times, value = [], None
    while len(times) < ctx.common["setup_repeats"] or sum(times) < ctx.common["setup_min_s"]:
        if value is not None and discard is not None:
            discard(value)
        value = None  # drop the previous copy before building the next
        start = cpu_seconds()
        value = build()
        times.append(cpu_seconds() - start + (live_cpu(value) if live_cpu else 0.0))
    return median(times), value


def median(values) -> float:
    return float(statistics.median(values))


def percentile_ms(latencies_s, q: float) -> float:
    return float(np.percentile(np.asarray(latencies_s) * 1e3, q))


def factor_digest(result) -> str:
    """sha256 over H, V, S and every Qk, in order."""
    digest = hashlib.sha256()
    for array in (result.H, result.V, result.S, *result.Q):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def check_factors(result, tensor, *, floor: float, tol: float, label: str):
    """Finite factors, column-orthonormal ``Qk`` and a fitness floor.

    Returns ``(fitness, problems)``; ``problems`` is empty when the model
    passes.
    """
    problems = []
    arrays = (result.H, result.V, result.S, *result.Q)
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append(f"{label}: non-finite factors")
        return float("nan"), problems
    worst = 0.0
    for Qk in result.Q:
        gram = Qk.T @ Qk
        worst = max(worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
    if worst > tol:
        problems.append(f"{label}: Qk orthonormality error {worst:.3g} > {tol:g}")
    fitness = float(result.fitness(tensor))
    if not fitness >= floor:
        problems.append(f"{label}: fitness {fitness:.4f} below floor {floor}")
    return fitness, problems


class Sandbox:
    """A run's scratch directory inside the checkout, and its hygiene check.

    ``TMPDIR`` points here for this process and everything it spawns, so
    the program's own temporary directories land inside the checkout too.
    ``leftovers`` lists what a finished run left behind: new ``/dev/shm``
    segments and files under the scratch directory.
    """

    SHM = Path("/dev/shm")

    def __init__(self, out_dir: Path, tag: str) -> None:
        self.path = out_dir / f"tmp-{tag}-{os.getpid()}"
        self.path.mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.path)
        tempfile.tempdir = str(self.path)
        self._shm_before = self._shm_entries()
        self._owned: list[Path] = []

    def _shm_entries(self) -> set:
        return set(os.listdir(self.SHM)) if self.SHM.is_dir() else set()

    def scratch(self, name: str) -> Path:
        """A fresh directory the benchmark owns and removes in ``cleanup``."""
        return self.own(Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path)))

    def own(self, path: Path) -> Path:
        self._owned.append(path)
        return path

    def cleanup(self) -> list[str]:
        """Remove what the benchmark made; report temporaries found inside it.

        A hidden entry in a registry is a publish's staging directory or
        pointer file that the program failed to remove.
        """
        found = []
        for path in self._owned:
            if path.is_dir():
                found += [f"{entry.relative_to(self.path)} left in a registry"
                          for entry in path.rglob(".*")]
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        self._owned = []
        return found

    def leftovers(self) -> list[str]:
        """What the program left: new shm segments and scratch files."""
        found = [f"/dev/shm segment {name} left behind"
                 for name in sorted(self._shm_entries() - self._shm_before)]
        found += [f"{entry.name} left in the scratch directory" for entry in self.path.iterdir()]
        return found

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def live_children() -> list[int]:
    """Pids of processes whose parent is this process (Linux ``/proc``)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if a shard run started it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }
