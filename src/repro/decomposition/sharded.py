"""Sharded DPar2: shard-local stage 1 and sweeps with O(R²) allreduce.

DPar2's cost structure is embarrassingly shardable.  Stage-1 compression is
per-slice, and the compressed ALS sweep couples slices only through small
Gram statistics — everything slice-shaped (``Ak``, ``F(k)``, ``Sk``, the
polar factors and ``Tk`` buffers) can live and stay on a worker.  This
module runs DPar2 across N shard workers:

* **stage 1** — each shard compresses its slices locally through the
  stacked randomized-SVD kernels and returns only the small right factors
  ``(σk, Ck)``; the parent runs stage 2 on their ``J×KR`` concatenation.
  The tall ``Ak`` never leave the worker that computed them.
* **sweeps** — three rounds per sweep.  The coordinator broadcasts the
  current ``E Dᵀ V`` and ``H`` (round 1: Lemma-1 partials ``G1``, ``WᵀW``
  come back), the new ``H`` (round 2: the Lemma-2 inner sums come back;
  ``V`` updates on the coordinator, which is the only place ``D`` is
  needed), then the refreshed ``E Dᵀ V`` plus the Lemma-3 normal matrix
  (round 3: shards update their rows of ``W`` locally and return the two
  convergence-criterion scalars).  Every payload is O(R·Rc) per message —
  independent of K and of the slice heights.
* **finalize** — one gather of the factor rows and ``Qk = Ak Zk Pkᵀ``.

**Determinism contract.**  The K slices are grouped into a fixed set of
reduction *cells* (``config.shard_cells``, clamped to K) by Algorithm-4
greedy balancing; shards own whole cells.  Every cross-slice reduction is
computed per cell and summed by the coordinator in cell order, every
batched kernel (stage-1 stacks, polar SVDs, einsum contractions, the
Lemma-3 row solves) runs per cell, and the cell layout depends only on the
row counts and the cell count.  Floating-point addition is not
associative, so this is what buys the contract: **final factors are
bitwise-identical for any shard count and any shard backend** (serial /
thread / process).  The single-process path is untouched and remains its
own bitwise baseline; sharded results differ from it only by the
per-cell accumulation order.  See ``docs/distributed.md``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import normalize_columns
from repro.decomposition.dpar2 import CompressedTensor
from repro.decomposition.initialization import initialize_factors
from repro.decomposition.result import IterationRecord, Parafac2Result
from repro.linalg.kernels import CellSweepWorkspace, batched_randomized_svd
from repro.linalg.pinv import solve_gram
from repro.linalg.randomized_svd import RandomizedSVDResult, randomized_svd
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.parallel.sharding import ShardPlan, get_shard_runner, plan_shards
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig
from repro.util.rng import as_generator, spawn_generators

__all__ = ["Dpar2Shard", "sharded_dpar2", "sharded_stage1"]


# --------------------------------------------------------------------- #
# shard-local state
# --------------------------------------------------------------------- #


class Dpar2Shard:
    """Worker-side state: the cells a shard owns and their sweep kernels.

    The shard runner's factory: built from one init payload holding the
    shard's cells (``[(cell_id, [slice indices...]), ...]``), either the
    raw slices plus per-slice generators (stage 1 runs here) or the
    precomputed ``Ak`` factors, and the stage-1 hyper-parameters.  All
    methods are invoked through :class:`~repro.parallel.sharding.ShardRunner`
    broadcasts and return per-cell partials keyed by cell id.
    """

    def __init__(self, init: dict) -> None:
        self.cells: list[tuple[int, list[int]]] = [
            (int(cell_id), list(indices)) for cell_id, indices in init["cells"]
        ]
        self.rank = int(init["rank"])
        self.oversampling = int(init["oversampling"])
        self.power_iterations = int(init["power_iterations"])
        self.return_U = bool(init.get("return_U", False))
        self.slices: dict | None = init.get("slices")
        self.generators: dict | None = init.get("generators")
        self.A: dict = dict(init.get("A") or {})
        self._ws: dict[int, CellSweepWorkspace] = {}
        self._polar: dict[int, np.ndarray] = {}
        self._dtype = np.dtype(np.float64)

    # ------------------------------- stage 1 -------------------------- #

    def startup(self) -> dict:
        """Stage-1 compress the shard's slices, one batched call per cell.

        Returns ``{k: (σk, Ck)}`` — or ``{k: (Uk, σk, Ck)}`` when built
        with ``return_U`` (the streaming gather) — for the coordinator's
        stage 2.  ``Ak = Uk`` stays here for the sweeps and the final
        ``Qk`` materialization.  Running the batched kernel per cell (not
        per shard) keeps each slice's bucketing fixed, so stage-1 results
        are invariant to the shard count.
        """
        out: dict[int, tuple] = {}
        if self.slices is None:
            return out
        for _, indices in self.cells:
            results = batched_randomized_svd(
                [self.slices[k] for k in indices],
                self.rank,
                oversampling=self.oversampling,
                power_iterations=self.power_iterations,
                generators=[self.generators[k] for k in indices],
            )
            for k, svd in zip(indices, results):
                self.A[k] = svd.U
                out[k] = (
                    (svd.U, svd.singular_values, svd.V)
                    if self.return_U
                    else (svd.singular_values, svd.V)
                )
        self.slices = None  # raw data is never needed again
        self.generators = None
        return out

    # ------------------------------- sweeps --------------------------- #

    def bind(
        self, E: np.ndarray, F_cells: dict, W_cells: dict, target_rank: int
    ) -> dict:
        """Build each cell's sweep workspace; return float64 data terms."""
        self._dtype = np.asarray(E).dtype
        out = {}
        for cell_id, indices in self.cells:
            ws = CellSweepWorkspace(
                len(indices), target_rank, len(E), self._dtype
            )
            out[cell_id] = ws.bind(E, F_cells[cell_id], W_cells[cell_id])
            self._ws[cell_id] = ws
        return out

    def sweep_phase1(self, EDtV: np.ndarray, H: np.ndarray) -> dict:
        """Polar SVDs + Lemma-1 partials: ``{cell: (G1, WᵀW)}``."""
        out = {}
        for cell_id, _ in self.cells:
            ws = self._ws[cell_id]
            small = ws.compute_small(EDtV, H)
            Z, _, Pt = np.linalg.svd(small, full_matrices=False)
            polar = np.matmul(Z, Pt)
            self._polar[cell_id] = polar
            ws.compute_T(polar)
            out[cell_id] = (ws.mttkrp_H(EDtV), ws.gram_W())
        return out

    def sweep_phase2(self, H: np.ndarray) -> dict:
        """Lemma-2 inner-sum partials: ``{cell: Σk Tkᵀ H diag(Sk)}``."""
        return {
            cell_id: self._ws[cell_id].mttkrp_V_inner(H)
            for cell_id, _ in self.cells
        }

    def sweep_phase3(
        self,
        EDtV: np.ndarray,
        gram: np.ndarray,
        VtD: np.ndarray,
        VtV: np.ndarray,
        H: np.ndarray,
    ) -> dict:
        """Update the shard's ``W`` rows locally; return criterion scalars.

        The normal matrix ``(VᵀV ∗ HᵀH)`` is identical for every row of
        ``W``, so each cell solves its own rows — per-cell solves keep the
        result shard-count-invariant.  The returned ``{cell: (cross,
        model)}`` float64 partials complete the compressed convergence
        criterion on the coordinator.
        """
        out = {}
        for cell_id, _ in self.cells:
            ws = self._ws[cell_id]
            G3 = ws.mttkrp_W(EDtV, H)
            ws.W = solve_gram(gram, G3).astype(self._dtype, copy=False)
            out[cell_id] = ws.criterion_partials(VtD, VtV, H)
        return out

    # ------------------------------- gather --------------------------- #

    def finalize(self, target_rank: int) -> dict:
        """One-time gather: ``{cell: (W rows, [Qk = Ak Zk Pkᵀ, ...])}``.

        With zero sweeps there is no polar factor; ``Qk`` is then ``Ak``
        truncated to the target rank, exactly like the single-process
        path.
        """
        out = {}
        for cell_id, indices in self.cells:
            ws = self._ws[cell_id]
            polar = self._polar.get(cell_id)
            if polar is None:
                polar = np.tile(
                    np.eye(ws.Rc, target_rank, dtype=self._dtype),
                    (len(indices), 1, 1),
                )
            Q = [self.A[k] @ polar[pos] for pos, k in enumerate(indices)]
            out[cell_id] = (ws.W, Q)
        return out


# --------------------------------------------------------------------- #
# coordinator
# --------------------------------------------------------------------- #


def _merge_cells(per_shard: list[dict]) -> dict:
    """Collect ``{cell: partial}`` dicts from every shard into one."""
    merged: dict = {}
    for shard_result in per_shard:
        merged.update(shard_result)
    return merged


def _sum_cell_arrays(merged: dict, item=None) -> np.ndarray:
    """Sum per-cell array partials in ascending cell order (bitwise-fixed)."""
    total: np.ndarray | None = None
    for cell_id in sorted(merged):
        part = merged[cell_id] if item is None else merged[cell_id][item]
        if total is None:
            total = part.copy()
        else:
            total += part
    return total


def _sum_cell_scalars(merged: dict, item: int | None = None) -> float:
    """Sum per-cell float partials in ascending cell order."""
    total = 0.0
    for cell_id in sorted(merged):
        part = merged[cell_id] if item is None else merged[cell_id][item]
        total += float(part)
    return total


def _shard_payloads(
    plan: ShardPlan,
    *,
    rank: int,
    oversampling: int,
    power_iterations: int,
    slices=None,
    generators=None,
    A=None,
    return_U: bool = False,
) -> list[dict]:
    """One init payload per shard, carrying only that shard's slices."""
    payloads = []
    for shard in range(plan.n_shards):
        cells = [
            (cell_id, list(plan.cells[cell_id]))
            for cell_id in plan.shard_cells[shard]
        ]
        owned = [k for _, indices in cells for k in indices]
        payload: dict = {
            "cells": cells,
            "rank": rank,
            "oversampling": oversampling,
            "power_iterations": power_iterations,
            "return_U": return_U,
        }
        if slices is not None:
            payload["slices"] = {k: slices[k] for k in owned}
            payload["generators"] = {k: generators[k] for k in owned}
        if A is not None:
            payload["A"] = {k: A[k] for k in owned}
        payloads.append(payload)
    return payloads


def sharded_stage1(
    matrices,
    generators,
    *,
    rank: int,
    oversampling: int,
    power_iterations: int,
    n_shards: int,
    shard_backend: str,
    n_cells: int,
    fault_stats_out: dict | None = None,
) -> list[RandomizedSVDResult]:
    """Stage-1 compress a batch of slices across shards; gather everything.

    Used by :meth:`StreamingDpar2.absorb_many
    <repro.decomposition.streaming.StreamingDpar2.absorb_many>`: the full
    per-slice factors (including ``Uk``) come back because the streaming
    state keeps them.  Per-slice results are bitwise-identical to the
    serial batched path for dense slices (each slice draws its own
    generator and the stacked LAPACK kernels are composition-invariant),
    and invariant to the shard count for any slice type because the cell
    layout is fixed by row counts alone.  When ``fault_stats_out`` is
    given, the runner's recovery counters are merged into it (restart
    counts accumulate across calls).
    """
    matrices = list(matrices)
    plan = plan_shards(
        [Xk.shape[0] for Xk in matrices], n_shards, n_cells=n_cells
    )
    payloads = _shard_payloads(
        plan,
        rank=rank,
        oversampling=oversampling,
        power_iterations=power_iterations,
        slices=matrices,
        generators=list(generators),
        return_U=True,
    )
    with get_shard_runner(shard_backend, Dpar2Shard, payloads) as runner:
        merged = _merge_cells(runner.start())
        if fault_stats_out is not None:
            fresh = runner.fault_stats
            fault_stats_out["worker_restarts"] = (
                fault_stats_out.get("worker_restarts", 0)
                + fresh["worker_restarts"]
            )
            fault_stats_out["replayed_calls"] = (
                fault_stats_out.get("replayed_calls", 0)
                + fresh["replayed_calls"]
            )
            fault_stats_out.setdefault("events", []).extend(fresh["events"])
    return [
        RandomizedSVDResult(U=U, singular_values=sv, V=V)
        for U, sv, V in (merged[k] for k in range(len(matrices)))
    ]


def sharded_dpar2(
    tensor: IrregularTensor,
    config: DecompositionConfig,
    *,
    compressed: CompressedTensor | None = None,
    target_rank: int | None = None,
) -> Parafac2Result:
    """Fit DPar2 through the shard coordinator (``config.shards`` workers).

    Called by :func:`repro.decomposition.dpar2.dpar2` when
    ``config.shards`` is set; ``tensor`` is already dtype-normalized.  The
    result matches the single-process solver in structure and adds a
    ``stats["sharding"]`` record: the chosen cell layout, the shard
    imbalance ratio, the measured allreduce bytes per sweep, and the
    transport's recovery counters (``worker_restarts`` plus a ``faults``
    block with replayed calls and per-event stderr excerpts).
    """
    if config.shards is None:
        raise ValueError("sharded_dpar2 requires config.shards to be set")
    R = (
        min(config.rank, tensor.n_columns, min(tensor.row_counts))
        if target_rank is None
        else target_rank
    )
    if compressed is not None and compressed.rank < R:
        raise ValueError(
            f"precomputed compression has rank {compressed.rank} < target {R}"
        )
    K = tensor.n_slices
    plan = plan_shards(tensor.row_counts, config.shards, config.shard_cells)

    run_span = trace.span(
        "dpar2.run", backend="sharded", shards=plan.n_shards, rank=R
    )
    registry = get_registry()
    m_sweeps = registry.counter(
        "repro_decompose_sweeps_total", "Compressed ALS sweeps completed."
    )
    m_sweep_seconds = registry.histogram(
        "repro_decompose_sweep_seconds", "Wall-clock seconds per compressed ALS sweep."
    )
    m_fitness_delta = registry.gauge(
        "repro_decompose_fitness_delta",
        "Sweep-over-sweep decrease in squared reconstruction error.",
    )
    m_allreduce = registry.counter(
        "repro_shard_allreduce_bytes_total",
        "Bytes moved through the sweep-phase allreduce rounds.",
    )
    prev_error: float | None = None

    preprocess_start = time.perf_counter()
    if compressed is None:
        generators = spawn_generators(config.random_state, K)
        payloads = _shard_payloads(
            plan,
            rank=R,
            oversampling=config.oversampling,
            power_iterations=config.power_iterations,
            slices=tensor.slices,
            generators=generators,
        )
    else:
        payloads = _shard_payloads(
            plan,
            rank=compressed.rank,
            oversampling=config.oversampling,
            power_iterations=config.power_iterations,
            A=compressed.A,
        )

    with run_span, get_shard_runner(
        config.shard_backend, Dpar2Shard, payloads
    ) as runner:
        with trace.span("dpar2.compress", slices=K):
            stage1 = _merge_cells(runner.start())

            if compressed is None:
                # Stage 2 on the gathered small factors, in slice order —
                # identical assembly to compress_tensor.
                M = np.empty((tensor.n_columns, K * R), dtype=tensor.dtype)
                for k in range(K):
                    sv, Vk = stage1[k]
                    np.multiply(Vk, sv, out=M[:, k * R : (k + 1) * R])
                stage2 = randomized_svd(
                    M,
                    R,
                    oversampling=config.oversampling,
                    power_iterations=config.power_iterations,
                    random_state=as_generator(config.random_state),
                )
                D = stage2.U
                E = stage2.singular_values
                F = stage2.V.reshape(K, R, stage2.V.shape[1])
                itemsize = np.dtype(tensor.dtype).itemsize
                preprocessed_bytes = (
                    sum(rows * R for rows in tensor.row_counts) * itemsize
                    + D.nbytes + E.nbytes + F.nbytes
                )
            else:
                D, E, F = compressed.D, compressed.E, compressed.F_blocks
                preprocessed_bytes = compressed.nbytes
            preprocess_seconds = (
                time.perf_counter() - preprocess_start
                if compressed is None
                else compressed.seconds
            )
        dtype = D.dtype
        Rc = D.shape[1]

        init = initialize_factors(tensor.n_columns, K, R, config.random_state)
        H = init.H.astype(dtype, copy=False)
        V = init.V.astype(dtype, copy=False)
        W = init.W.astype(dtype, copy=False)
        DE = np.multiply(D, E)  # J x Rc, the Lemma-2 left factor

        bind_args = []
        for shard in range(plan.n_shards):
            F_cells = {
                cell_id: np.ascontiguousarray(F[list(plan.cells[cell_id])])
                for cell_id in plan.shard_cells[shard]
            }
            W_cells = {
                cell_id: W[list(plan.cells[cell_id])]
                for cell_id in plan.shard_cells[shard]
            }
            bind_args.append((E, F_cells, W_cells, R))
        data_term = _sum_cell_scalars(
            _merge_cells(runner.call_each("bind", bind_args))
        )

        monitor = ConvergenceMonitor(config.tolerance)
        history: list[IterationRecord] = []
        converged = False
        iteration = 0
        VtV = V.T @ V
        bytes_before_sweeps = runner.bytes_transferred

        iterate_start = time.perf_counter()
        for iteration in range(1, config.max_iterations + 1):
            with trace.span("dpar2.sweep", iteration=iteration) as sweep_span:
                sweep_start = time.perf_counter()
                bytes_at_sweep_start = runner.bytes_transferred

                # Round 1: Lemma 1 — update H on the coordinator.
                with trace.span("dpar2.sweep_phase1"):
                    EDtV = np.multiply(D.T @ V, E[:, None])
                    phase1 = _merge_cells(runner.call("sweep_phase1", EDtV, H))
                    G1 = _sum_cell_arrays(phase1, item=0)
                    WtW = _sum_cell_arrays(phase1, item=1)
                    H = solve_gram(WtW * VtV, G1)
                    H, _ = normalize_columns(H)
                    H = H.astype(dtype, copy=False)

                # Round 2: Lemma 2 — update V (D never leaves the
                # coordinator).
                with trace.span("dpar2.sweep_phase2"):
                    HtH = H.T @ H
                    inner = _sum_cell_arrays(
                        _merge_cells(runner.call("sweep_phase2", H))
                    )
                    G2 = DE @ inner
                    V = solve_gram(WtW * HtH, G2)
                    V, _ = normalize_columns(V)
                    V = V.astype(dtype, copy=False)

                # Round 3: Lemma 3 — shards update their W rows; the
                # criterion scalars come back with the same message.
                with trace.span("dpar2.sweep_phase3"):
                    VtV = V.T @ V
                    EDtV = np.multiply(D.T @ V, E[:, None])
                    VtD = V.astype(np.float64, copy=False).T @ D.astype(
                        np.float64, copy=False
                    )
                    gram3 = VtV * HtH
                    phase3 = _merge_cells(
                        runner.call("sweep_phase3", EDtV, gram3, VtD, VtV, H)
                    )
                    cross = _sum_cell_scalars(phase3, item=0)
                    model = _sum_cell_scalars(phase3, item=1)
                    error_sq = max(data_term - 2.0 * cross + model, 0.0)

                sweep_seconds = time.perf_counter() - sweep_start
                history.append(IterationRecord(iteration, error_sq, sweep_seconds))
                m_sweeps.inc()
                m_sweep_seconds.observe(sweep_seconds)
                m_allreduce.inc(runner.bytes_transferred - bytes_at_sweep_start)
                if prev_error is not None:
                    m_fitness_delta.set(prev_error - float(error_sq))
                prev_error = float(error_sq)
                sweep_span.annotate(error_sq=prev_error)
                if monitor.update(error_sq):
                    converged = True
                    break
        iterate_seconds = time.perf_counter() - iterate_start
        sweep_bytes = runner.bytes_transferred - bytes_before_sweeps

        # One-time gather of the factor rows and Qk blocks.
        gathered = _merge_cells(runner.call("finalize", R))
        fault_stats = runner.fault_stats

    W_out = np.empty((K, R), dtype=dtype)
    Q: list[np.ndarray | None] = [None] * K
    for cell_id, (W_cell, Q_cell) in gathered.items():
        indices = plan.cells[cell_id]
        W_out[list(indices)] = W_cell
        for pos, k in enumerate(indices):
            Q[k] = Q_cell[pos]

    n_sweeps = max(len(history), 1)
    stats = {
        "sharding": {
            **plan.describe(),
            "backend": config.shard_backend,
            "requested_shards": config.shards,
            "allreduce_bytes_total": int(sweep_bytes),
            "allreduce_bytes_per_sweep": sweep_bytes / n_sweeps,
            "allreduce_bytes_per_sweep_per_shard": (
                sweep_bytes / n_sweeps / plan.n_shards
            ),
            "worker_restarts": fault_stats["worker_restarts"],
            "faults": fault_stats,
        }
    }

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W_out,
        V=V,
        method="dpar2",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=preprocess_seconds,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=preprocessed_bytes,
        history=history,
        stats=stats,
    )
