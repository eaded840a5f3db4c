"""Shard-coordinator transport: planning, worker runners, byte accounting.

The sharded DPar2 solver (:mod:`repro.decomposition.sharded`) splits the K
slices of an irregular tensor across N workers and exchanges only small
Gram statistics each sweep.  This module owns the *mechanics* of that —
deliberately free of any decomposition math, so the same machinery can
carry other shardable solvers later:

* :func:`plan_shards` — two-level Algorithm-4 balancing.  Slices are first
  grouped into a fixed set of reduction *cells* by
  :func:`~repro.parallel.partition.greedy_partition` over row counts, then
  whole cells are balanced across shards the same way.  Cells are the unit
  of floating-point accumulation downstream, and their membership depends
  only on the weights and the cell count — never on the shard count —
  which is what makes sharded results shard-count-invariant.
* :class:`SerialShardRunner` / :class:`ProcessShardRunner` — the two
  transports, one per ``shard_backend`` name.  Both expose the same
  ``start`` / ``call`` / ``close`` surface and produce byte-identical
  results.  In-process parallelism is the execution backend's
  (``backend="thread"`` with ``n_threads``), not a transport's.  The process
  runner forks its workers, so each inherits its init payload (dense,
  CSR or memmap slices, or precomputed ``Ak``) as a copy-on-write
  snapshot of the parent's pages: bulk slice data is neither copied nor
  pickled, and no ``/dev/shm`` segment is created.
* byte accounting — every runner counts the ndarray bytes broadcast to
  and returned from shards (:func:`payload_nbytes`), so the coordinator
  can report the measured allreduce payload per sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import sys
import tempfile
import time
import traceback
import zlib
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Sequence

import numpy as np

from repro.obs.metrics import get_registry
from repro.parallel.partition import greedy_partition, partition_imbalance
from repro.util import faults

__all__ = [
    "ProcessShardRunner",
    "SerialShardRunner",
    "ShardPlan",
    "ShardWorkerError",
    "get_shard_runner",
    "payload_nbytes",
    "plan_shards",
]


# --------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardPlan:
    """A fixed cell layout and its assignment to shards.

    ``cells[c]`` holds the slice indices of cell ``c`` (sorted ascending);
    ``shard_cells[s]`` the cell ids owned by shard ``s`` (sorted
    ascending).  Cell membership is a function of the weights and the cell
    count only; re-planning the same weights onto a different shard count
    reassigns whole cells but never splits or reorders them.
    """

    cells: tuple[tuple[int, ...], ...]
    shard_cells: tuple[tuple[int, ...], ...]
    imbalance: float
    cell_imbalance: float

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_shards(self) -> int:
        return len(self.shard_cells)

    def shard_slices(self, shard: int) -> list[int]:
        """All slice indices owned by ``shard`` (cell order, then index)."""
        return [k for cell in self.shard_cells[shard] for k in self.cells[cell]]

    def describe(self) -> dict:
        """Diagnostics for :class:`~repro.decomposition.result.Parafac2Result` stats."""
        return {
            "shards": self.n_shards,
            "cells": self.n_cells,
            "cell_sizes": [len(cell) for cell in self.cells],
            "shard_cells": [list(cells) for cells in self.shard_cells],
            "imbalance": self.imbalance,
            "cell_imbalance": self.cell_imbalance,
        }


def plan_shards(
    weights: Sequence[float], n_shards: int, n_cells: int | None = None
) -> ShardPlan:
    """Two-level greedy balancing: slices → cells, cells → shards.

    ``n_cells`` defaults to ``n_shards`` and is clamped to the item count;
    empty cells (possible when ``n_cells`` exceeds the number of nonzero
    groups) are dropped, and ``n_shards`` is clamped to the resulting cell
    count — a shard with no cells would only idle.  The reported
    ``imbalance`` is the slice-weight imbalance of the final shard
    assignment (what actually bounds the parallel sweep time);
    ``cell_imbalance`` measures how evenly the cells themselves came out,
    i.e. how much granularity the second level had to work with.
    """
    weights = [float(w) for w in weights]
    if not weights:
        raise ValueError("cannot plan shards over zero slices")
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if n_cells is None:
        n_cells = n_shards
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    n_cells = min(n_cells, len(weights))

    cells = [
        tuple(sorted(group))
        for group in greedy_partition(weights, n_cells)
        if group
    ]
    cell_weights = [sum(weights[k] for k in cell) for cell in cells]
    n_shards = min(n_shards, len(cells))
    shard_cells = [
        tuple(sorted(group))
        for group in greedy_partition(cell_weights, n_shards)
    ]

    slice_groups = [
        [k for cell in cells_of_shard for k in cells[cell]]
        for cells_of_shard in shard_cells
    ]
    return ShardPlan(
        cells=tuple(cells),
        shard_cells=tuple(shard_cells),
        imbalance=partition_imbalance(weights, slice_groups),
        cell_imbalance=partition_imbalance(
            cell_weights, [[c] for c in range(len(cells))]
        ),
    )


# --------------------------------------------------------------------- #
# byte accounting
# --------------------------------------------------------------------- #


def payload_nbytes(obj) -> int:
    """Total ndarray bytes reachable in a message payload.

    Counts only bulk array data — the pickle framing of tuples/dicts and
    scalars is noise next to it, and the point of the measurement is to
    show the per-sweep exchange stays O(R²) per shard regardless of K.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(value) for value in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(value) for value in obj.values())
    return 0


# --------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------- #


class ShardWorkerError(RuntimeError):
    """A shard worker failed unrecoverably: which shard, which call, why.

    ``kind`` is ``"died"`` (process exited / was killed), ``"hang"``
    (per-call deadline exceeded), ``"corrupt"`` (reply failed checksum or
    unpickling), or ``"error"`` (the shard method raised — deterministic,
    so never retried).  ``stderr`` carries the tail of the worker's
    captured stderr, which is where segfault bands and C-library noise
    end up.
    """

    def __init__(
        self,
        shard: int,
        call: str,
        kind: str,
        detail: str = "",
        stderr: str = "",
    ) -> None:
        self.shard = shard
        self.call = call
        self.kind = kind
        self.stderr = stderr
        parts = [f"shard {shard} worker {kind} during {call!r}"]
        if detail:
            parts.append(detail)
        if stderr.strip():
            parts.append(f"--- worker stderr (tail) ---\n{stderr.strip()}")
        super().__init__("\n".join(parts))


class _WorkerFault(Exception):
    """Internal: a transport-level worker failure eligible for respawn."""

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail
        super().__init__(detail or kind)


_EMPTY_FAULT_STATS = {"worker_restarts": 0, "replayed_calls": 0, "events": []}


class ShardRunner:
    """Common surface of the three shard transports.

    ``factory`` is a callable mapping one init payload to a live
    shard-state object; ``payloads`` holds one payload per shard.
    :meth:`start` builds every state and returns the per-shard results of
    its ``startup()`` method (shard order); :meth:`call` broadcasts one
    method invocation to every shard and returns the results in shard
    order.  ``bytes_sent`` / ``bytes_received`` accumulate the ndarray
    payload of every ``call`` (startup and shutdown excluded — they are
    one-time set-up and gather, not the per-sweep allreduce being
    measured).  Only the process transport has a real RPC, so only it
    records per-call latency (``repro_shard_call_seconds``).
    """

    def __init__(self, factory: Callable, payloads: Sequence) -> None:
        if not payloads:
            raise ValueError("at least one shard payload is required")
        self._factory = factory
        self._payloads = list(payloads)
        self.n_shards = len(self._payloads)
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def bytes_transferred(self) -> int:
        """Sent + received call bytes, for per-sweep deltas."""
        return self.bytes_sent + self.bytes_received

    def start(self) -> list:
        raise NotImplementedError

    def call(self, method: str, *args) -> list:
        """Broadcast ``method(*args)`` to every shard; results in order."""
        return self.call_each(method, [args] * self.n_shards)

    def call_each(self, method: str, args_per_shard: Sequence[tuple]) -> list:
        """Invoke ``method`` with per-shard arguments; results in order."""
        if len(args_per_shard) != self.n_shards:
            raise ValueError(
                f"need {self.n_shards} argument tuples, got {len(args_per_shard)}"
            )
        self.bytes_sent += sum(payload_nbytes(args) for args in args_per_shard)
        results = self._dispatch(method, list(args_per_shard))
        self.bytes_received += payload_nbytes(results)
        return results

    def _dispatch(self, method: str, args_per_shard: list) -> list:
        raise NotImplementedError

    @property
    def fault_stats(self) -> dict:
        """Recovery counters: worker restarts, replayed calls, fault events."""
        return {key: (list(value) if isinstance(value, list) else value)
                for key, value in _EMPTY_FAULT_STATS.items()}

    def close(self) -> None:
        """Release shard resources (idempotent)."""

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialShardRunner(ShardRunner):
    """All shards in the calling thread.

    The transport of every unsharded DPar2 run (one cell, one shard), and
    the debugging and overhead baseline of the sharded ones.
    """

    name = "serial"

    def __init__(self, factory: Callable, payloads: Sequence) -> None:
        super().__init__(factory, payloads)
        self._states: list | None = None

    def start(self) -> list:
        self._states = [self._factory(payload) for payload in self._payloads]
        self._payloads = [None] * self.n_shards  # raw data now shard-owned
        return [state.startup() for state in self._states]

    def _dispatch(self, method, args_per_shard):
        return [
            getattr(state, method)(*args)
            for state, args in zip(self._states, args_per_shard)
        ]

    def close(self) -> None:
        self._states = None


def _shard_worker_main(
    conn: connection.Connection,
    factory: Callable,
    payload,
    stderr_path: str | None = None,
    fault_plan=None,
    shard_index: int = 0,
    generation: int = 0,
) -> None:
    """Worker process loop: build the shard state, answer method calls.

    ``payload`` is inherited through fork, not pickled: its arrays are the
    parent's own pages, shared copy-on-write.  Results travel back as a
    pickled blob plus its CRC-32, so the parent can detect corrupt payloads;
    fd 2 is redirected into ``stderr_path`` so the parent can attach the
    worker's stderr to any failure it reports.  ``fault_plan`` re-scopes
    the (fork-inherited) fault-injection state to this shard and respawn
    generation; injection sites are ``shard.call.<method>`` before each
    method runs and ``shard.reply.<method>`` on the reply blob.
    """
    if stderr_path is not None:
        try:
            fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(fd, 2)
            os.close(fd)
            sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
        except OSError:  # pragma: no cover - capture is best-effort
            pass
    faults.activate(fault_plan, shard=shard_index, generation=generation)

    def reply(method: str, value) -> None:
        blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(blob)
        # Corruption is applied after the checksum — it models damage in
        # transit, which the parent must catch by re-checksumming.
        blob = faults.corrupt_bytes(f"shard.reply.{method}", blob)
        conn.send(("ok", blob, crc))

    try:
        try:
            faults.check("shard.call.startup")
            state = factory(payload)
            reply("startup", state.startup())
        except BaseException:
            conn.send(("err", traceback.format_exc()))
            return
        while True:
            message = conn.recv()
            if message is None:
                return
            method, args = message
            try:
                faults.check(f"shard.call.{method}")
                result = getattr(state, method)(*args)
            except BaseException:
                conn.send(("err", traceback.format_exc()))
            else:
                reply(method, result)
    except EOFError:  # parent went away; nothing left to answer
        pass
    finally:
        conn.close()


def _default_call_timeout() -> float:
    raw = os.environ.get("REPRO_SHARD_CALL_TIMEOUT")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return 300.0


class ProcessShardRunner(ShardRunner):
    """One forked worker process per shard.

    Workers start from an explicit ``fork`` context and receive their init
    payload (slices plus generators, or precomputed ``Ak``) by
    inheritance: each sees a copy-on-write snapshot of the parent's
    memory taken at fork, so dense, CSR and memmap slices alike reach the
    worker without a copy, a pickle, or a ``/dev/shm`` segment.  Because
    those pages are shared, a worker's RSS counts the slice pages it
    reads even though the parent holds the only physical copy.  Per-call
    messages are small (O(R²) Grams) and go over a duplex pipe via
    pickle.  Platforms without ``fork`` are refused at construction;
    use the ``serial`` transport there.

    Each worker brings the BLAS thread pool it inherited, so keep
    shards × BLAS threads at or below the core count: on a 2-vCPU VM, six
    2-shard calls on ``bench_shard``'s fixture took 0.9–15.8 s each with
    BLAS unpinned against 0.34–0.41 s with ``OPENBLAS_NUM_THREADS=1``.

    Fault tolerance: every receive polls the pipe on a short heartbeat,
    checking worker liveness and a per-call deadline; replies carry a
    CRC-32 so corrupt payloads are caught.  A dead, hung, or corrupt worker
    is killed and **respawned**: it forks again from the init payload the
    runner keeps, startup re-runs (per-cell stage-1 is deterministic given
    the seed), and the full logged call history is replayed — so the
    respawned shard reaches exactly the state it lost and the final
    factors stay bitwise-identical to a no-fault run.  Respawns are bounded
    by ``max_respawns`` per shard; past the budget (or on a deterministic
    in-method exception) a :class:`ShardWorkerError` carrying the worker's
    captured stderr is raised.  Replayed traffic is not added to
    ``bytes_sent`` / ``bytes_received`` — those measure the logical
    allreduce, not recovery overhead (tracked in :attr:`fault_stats`
    instead).

    ``call_timeout=None`` picks the ``REPRO_SHARD_CALL_TIMEOUT``
    environment override or 300 s; pass ``0`` to disable the deadline
    (death detection still applies).
    """

    name = "process"

    def __init__(
        self,
        factory: Callable,
        payloads: Sequence,
        *,
        call_timeout: float | None = None,
        heartbeat_interval: float = 0.25,
        max_respawns: int = 2,
    ) -> None:
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:
            raise ValueError(
                "the process shard transport needs the 'fork' start method, "
                "which this platform lacks; use the 'serial' shard "
                "transport instead"
            ) from None
        super().__init__(factory, payloads)
        if call_timeout is None:
            call_timeout = _default_call_timeout()
        self._call_timeout = float(call_timeout) if call_timeout and call_timeout > 0 else None
        self._heartbeat_interval = max(0.01, float(heartbeat_interval))
        self._max_respawns = int(max_respawns)
        self._processes: list[multiprocessing.Process | None] = [None] * self.n_shards
        self._conns: list[connection.Connection | None] = [None] * self.n_shards
        self._stderr_paths: list[str | None] = [None] * self.n_shards
        self._respawns = [0] * self.n_shards
        self._stderr_dir: str | None = None
        self._call_log: list[tuple[str, list[tuple]]] = []
        self._in_flight = False
        self._worker_restarts = 0
        self._replayed_calls = 0
        self._fault_events: list[dict] = []
        registry = get_registry()
        self._m_call_seconds = registry.histogram(
            "repro_shard_call_seconds",
            "Per-shard latency of one broadcast method call.",
            labels={"backend": self.name},
        )
        self._m_heartbeat_misses = registry.counter(
            "repro_shard_heartbeat_misses_total",
            "Heartbeat polls that elapsed without a worker reply.",
        )
        self._m_respawns = registry.counter(
            "repro_shard_respawns_total",
            "Shard worker processes respawned after a detected fault.",
        )

    @property
    def fault_stats(self) -> dict:
        """Recovery counters: worker restarts, replayed calls, fault events."""
        return {
            "worker_restarts": self._worker_restarts,
            "replayed_calls": self._replayed_calls,
            "events": [dict(event) for event in self._fault_events],
        }

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> list:
        self._stderr_dir = tempfile.mkdtemp(prefix="repro-shard-stderr-")
        for index in range(self.n_shards):
            self._spawn(index)
        # Payloads are retained for respawn-and-replay.
        out = []
        for index in range(self.n_shards):
            try:
                value = self._recv(index, "startup")
            except _WorkerFault as fault:
                value = self._restore(index, fault, "startup")
            out.append(value)
        return out

    def _spawn(self, index: int) -> None:
        generation = self._respawns[index]
        stderr_path = os.path.join(
            self._stderr_dir, f"shard{index}-gen{generation}.log"
        )
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        try:
            process = self._context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    self._factory,
                    self._payloads[index],
                    stderr_path,
                    faults.active_plan(),
                    index,
                    generation,
                ),
                daemon=True,
            )
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self._processes[index] = process
        self._conns[index] = parent_conn
        self._stderr_paths[index] = stderr_path

    # -- receive with heartbeat / deadline ----------------------------- #

    def _recv(self, index: int, call: str):
        conn = self._conns[index]
        process = self._processes[index]
        deadline = (
            time.monotonic() + self._call_timeout if self._call_timeout else None
        )
        while True:
            try:
                ready = conn.poll(self._heartbeat_interval)
            except (OSError, EOFError):
                raise _WorkerFault("died", "pipe closed") from None
            if not ready:
                self._m_heartbeat_misses.inc()
            if ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    raise _WorkerFault("died", "EOF before reply") from None
                break
            if not process.is_alive():
                if conn.poll(0):  # answered, then exited — drain the reply
                    continue
                raise _WorkerFault(
                    "died", f"worker exited with code {process.exitcode}"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise _WorkerFault(
                    "hang", f"no reply within {self._call_timeout:.1f}s"
                )
        if message[0] == "err":
            raise ShardWorkerError(
                index, call, "error", detail=message[1],
                stderr=self._stderr_tail(index),
            )
        _, blob, crc = message
        if zlib.crc32(blob) != crc:
            raise _WorkerFault("corrupt", "reply failed CRC-32 check")
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise _WorkerFault("corrupt", f"reply unpickle failed: {exc}") from None

    def _send(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError):
            raise _WorkerFault("died", "pipe closed on send") from None

    # -- respawn and replay -------------------------------------------- #

    def _stderr_tail(self, index: int, limit: int = 2000) -> str:
        path = self._stderr_paths[index]
        if path is None:
            return ""
        try:
            with open(path, "r", errors="replace") as handle:
                return handle.read()[-limit:]
        except OSError:
            return ""

    def _reap(self, index: int) -> None:
        process = self._processes[index]
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=5)
            else:
                process.join(timeout=1)
            try:
                process.close()
            except Exception:  # pragma: no cover - still running
                pass
        conn = self._conns[index]
        if conn is not None:
            conn.close()
        self._processes[index] = None
        self._conns[index] = None

    def _note_failure(self, index: int, fault: _WorkerFault, call: str) -> None:
        stderr = self._stderr_tail(index)
        self._reap(index)
        self._fault_events.append(
            {
                "shard": index,
                "call": call,
                "kind": fault.kind,
                "detail": fault.detail,
                "stderr": stderr[-500:],
            }
        )
        if self._respawns[index] >= self._max_respawns:
            raise ShardWorkerError(
                index, call, fault.kind,
                detail=(
                    f"{fault.detail}; respawn budget exhausted "
                    f"({self._max_respawns} per shard)"
                ),
                stderr=stderr,
            )
        self._respawns[index] += 1
        self._worker_restarts += 1
        self._m_respawns.inc()

    def _completed_log(self) -> list[tuple[str, list[tuple]]]:
        # During a broadcast the current call is already logged (a shard
        # that fails *later* must replay it) but has not completed for
        # the recovering shard — the caller re-issues it after replay.
        return self._call_log[:-1] if self._in_flight else list(self._call_log)

    def _restore(self, index: int, fault: _WorkerFault, call: str):
        """Respawn shard ``index`` and replay its history; return the
        fresh startup value.  Raises :class:`ShardWorkerError` once the
        respawn budget is exhausted."""
        while True:
            self._note_failure(index, fault, call)
            try:
                self._spawn(index)
                startup_value = self._recv(index, "startup")
                for logged_method, logged_args in self._completed_log():
                    self._send(index, (logged_method, logged_args[index]))
                    self._recv(index, logged_method)
                    self._replayed_calls += 1
                return startup_value
            except _WorkerFault as again:
                fault = again

    # -- dispatch ------------------------------------------------------ #

    def _dispatch(self, method, args_per_shard):
        args_per_shard = [tuple(args) for args in args_per_shard]
        self._call_log.append((method, args_per_shard))
        self._in_flight = True
        try:
            pending: list[_WorkerFault | None] = [None] * self.n_shards
            for index, args in enumerate(args_per_shard):
                try:
                    self._send(index, (method, args))
                except _WorkerFault as fault:
                    pending[index] = fault
            return [
                self._collect(index, method, args_per_shard[index], pending[index])
                for index in range(self.n_shards)
            ]
        finally:
            self._in_flight = False

    def _collect(self, index: int, method: str, args: tuple, fault):
        t0 = time.perf_counter()
        while True:
            if fault is None:
                try:
                    result = self._recv(index, method)
                    self._m_call_seconds.observe(time.perf_counter() - t0)
                    return result
                except _WorkerFault as caught:
                    fault = caught
            self._restore(index, fault, method)
            fault = None
            try:
                self._send(index, (method, args))
            except _WorkerFault as caught:
                fault = caught

    def close(self) -> None:
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for index, process in enumerate(self._processes):
            if process is None:
                continue
            process.join(timeout=10)
            if process.is_alive():  # hung or fault-injected worker
                process.terminate()
                process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=5)
            try:
                process.close()
            except Exception:  # pragma: no cover - still running
                pass
            self._processes[index] = None
        for index, conn in enumerate(self._conns):
            if conn is not None:
                conn.close()
                self._conns[index] = None
        if self._stderr_dir is not None:
            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass


#: Name → runner class, mirroring ``repro.parallel.backends.BACKENDS``.
SHARD_RUNNERS: dict[str, type[ShardRunner]] = {
    SerialShardRunner.name: SerialShardRunner,
    ProcessShardRunner.name: ProcessShardRunner,
}


def get_shard_runner(
    backend: str, factory: Callable, payloads: Sequence, **options
) -> ShardRunner:
    """Construct the named shard transport over one payload per shard.

    ``options`` (``call_timeout``, ``heartbeat_interval``,
    ``max_respawns``) tune the process runner's fault tolerance; the
    in-process runners have no transport to fail, so they ignore them.
    """
    key = backend.strip().lower()
    if key not in SHARD_RUNNERS:
        raise ValueError(
            f"unknown shard backend {backend!r}; "
            f"available: {', '.join(SHARD_RUNNERS)}"
        )
    cls = SHARD_RUNNERS[key]
    if cls is ProcessShardRunner:
        return cls(factory, payloads, **options)
    return cls(factory, payloads)
