"""The DPar2 sweep loop: a coordinator over cells of slices.

DPar2's cost structure is embarrassingly shardable.  Stage-1 compression is
per-slice, and the compressed ALS sweep couples slices only through small
Gram statistics — everything slice-shaped (``Ak``, ``F(k)``, ``Sk``, the
polar factors and ``Tk`` buffers) can live and stay with the cell that
owns the slice.  This module is the one implementation of Algorithm 3's
sweeps (lines 7–24), for every :func:`~repro.decomposition.dpar2.dpar2`
run:

* **unsharded** (``config.shards`` unset) — one cell holding every slice,
  on the in-process serial runner.  Stage 1 and stage 2 run in
  :func:`~repro.decomposition.dpar2.compress_tensor` and the cell receives
  ``Ak`` by reference; no ``stats["sharding"]`` block and no
  ``repro_shard_*`` metrics are produced.
* **sharded** (``config.shards = N``) — the cells spread over N shard
  workers.  Each shard stage-1 compresses its slices through the one
  stage-1 router (:func:`~repro.decomposition.dpar2._stage1_svds`) and
  returns only the small right factors ``(σk, Ck)``; the coordinator runs
  stage 2 on their ``J×KR`` concatenation.  The tall ``Ak`` never leave
  the worker that computed them.

Each sweep is three rounds.  The coordinator broadcasts the current
``E Dᵀ V`` and ``H`` (round 1: the polar SVDs run, the Lemma-1 partials
``G1``, ``WᵀW`` come back), the new ``H`` (round 2: the Lemma-2 inner sums
come back; ``V`` updates on the coordinator, which is the only place ``D``
is needed), then the refreshed ``E Dᵀ V`` plus the Lemma-3 normal matrix
(round 3: cells update their rows of ``W`` locally and return their
convergence-criterion partials).  Every payload is O(R·Rc) per message —
independent of K and of the slice heights.  A final gather returns the
factor rows and ``Qk = Ak Zk Pkᵀ``.

:func:`~repro.decomposition.constrained.constrained_dpar2` runs the same
loop with two hooks: a proximal ``µI`` / ``µ V_prev`` term in the Lemma-2
solve, and a non-negative projection of each cell's ``W`` rows.

**Determinism contract.**  The K slices are grouped into a fixed set of
reduction *cells* (``config.shard_cells``, clamped to K) by Algorithm-4
greedy balancing; shards own whole cells.  Every cross-slice reduction is
computed per cell and summed by the coordinator in cell order, every
batched kernel (stage-1 stacks, polar SVDs, einsum contractions, the
Lemma-3 row solves) runs per cell, and the cell layout depends only on the
row counts and the cell count.  Floating-point addition is not
associative, so this is what buys the contract: **final factors are
bitwise-identical for any shard count and any shard backend** (serial /
thread / process).  The unsharded one-cell plan is its own bitwise family;
sharded results differ from it only by the per-cell accumulation order.
See ``docs/distributed.md``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import normalize_columns
from repro.decomposition.dpar2 import (
    _BATCH_MAX_ROWS,
    CompressedTensor,
    _stage1_svds,
    _stage2,
    compress_tensor,
)
from repro.decomposition.initialization import (
    InitialFactors,
    effective_rank,
    initialize_factors,
    rank_report,
)
from repro.decomposition.result import (
    IterationRecord,
    Parafac2Result,
    residuals_from_projections,
)
from repro.linalg.array_module import get_xp
from repro.linalg.kernels import CellSweepWorkspace, batched_stacked_matmul
from repro.linalg.pinv import solve_gram
from repro.linalg.randomized_svd import RandomizedSVDResult
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.parallel.backends import get_backend
from repro.parallel.sharding import ShardPlan, get_shard_runner, plan_shards
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import slice_squared_norm
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig
from repro.util.rng import spawn_generators

__all__ = ["Dpar2Shard", "project_nonnegative", "sharded_dpar2", "sharded_stage1"]


def project_nonnegative(matrix: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the non-negative orthant."""
    return np.clip(matrix, 0.0, None)


# --------------------------------------------------------------------- #
# shard-local state
# --------------------------------------------------------------------- #


class Dpar2Shard:
    """Worker-side state: the cells a shard owns and their sweep kernels.

    The shard runner's factory: built from one init payload holding the
    shard's cells (``[(cell_id, [slice indices...]), ...]``), either the
    raw slices plus per-slice generators (stage 1 runs here) or the
    precomputed ``Ak`` factors, and the run's settings: stage-1
    hyper-parameters, the execution ``engine`` for stage 1 and the polar
    SVDs, the array module ``xp``, and the ``exact_convergence`` /
    ``nonnegative_weights`` flags (the exact-error ablation also keeps the
    raw slices).  All methods are invoked through
    :class:`~repro.parallel.sharding.ShardRunner` broadcasts and return
    per-cell partials keyed by cell id.
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
        self.engine = init.get("engine") or get_backend("serial")
        self.xp = get_xp(init.get("xp"))
        self.exact_convergence = bool(init.get("exact_convergence", False))
        self.nonnegative_weights = bool(init.get("nonnegative_weights", False))
        self._ws: dict[int, CellSweepWorkspace] = {}
        self._exact: dict[int, tuple] = {}
        self._dtype = np.dtype(np.float64)

    # ------------------------------- stage 1 -------------------------- #

    def startup(self) -> dict:
        """Stage-1 compress the shard's slices, one router call per cell.

        Returns ``{k: (σk, Ck)}`` — or ``{k: (Uk, σk, Ck)}`` when built
        with ``return_U`` (the streaming gather) — for the coordinator's
        stage 2.  ``Ak = Uk`` stays here for the sweeps and the final
        ``Qk`` materialization.  Each cell goes through
        :func:`~repro.decomposition.dpar2._stage1_svds` on its own, so
        memory-mapped slices stream one at a time, dense and CSR slices
        keep their stacked route, and each slice's bucketing is fixed by
        its cell — stage-1 results are invariant to the shard count.
        """
        out: dict[int, tuple] = {}
        if self.generators is None:
            return out
        for _, indices in self.cells:
            results = _stage1_svds(
                [self.slices[k] for k in indices],
                [self.generators[k] for k in indices],
                self.rank,
                oversampling=self.oversampling,
                power_iterations=self.power_iterations,
                engine=self.engine,
                xp=get_xp("numpy"),
            )
            for k, svd in zip(indices, results):
                self.A[k] = svd.U
                out[k] = (
                    (svd.U, svd.singular_values, svd.V)
                    if self.return_U
                    else (svd.singular_values, svd.V)
                )
        if not self.exact_convergence:
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
                len(indices), target_rank, len(E), self._dtype, xp=self.xp
            )
            out[cell_id] = ws.bind(E, F_cells[cell_id], W_cells[cell_id])
            self._ws[cell_id] = ws
            if self.exact_convergence:
                self._bind_exact(cell_id, indices, ws)
        return out

    def _bind_exact(self, cell_id: int, indices: list[int], ws) -> None:
        """Hoist ``‖Xk‖²`` and, when it fits, ``Akᵀ Xk`` for the ablation.

        ``Akᵀ Xk`` never changes across sweeps (``Qkᵀ Xk = (Zk Pkᵀ)ᵀ
        (Akᵀ Xk)``), so the raw slices are read once per call instead of
        once per sweep.  The hoist is only valid when the ``Kc×Rc×J`` stack
        actually fits: memmap-backed slices are out of core precisely
        because the data exceeds RAM, and for short slices (``Ik ≈ Rc``)
        the stack is as large as the data itself — both re-read the slices
        every sweep instead.
        """
        slices = [self.slices[k] for k in indices]
        norms = np.array([slice_squared_norm(Xk) for Xk in slices])
        in_ram = not any(
            isinstance(Xk, np.memmap)
            or (isinstance(Xk, CsrMatrix) and isinstance(Xk.data, np.memmap))
            for Xk in slices
        )
        stack_bytes = len(indices) * ws.Rc * slices[0].shape[1] * self._dtype.itemsize
        AtX = None
        if in_ram and stack_bytes <= sum(Xk.nbytes for Xk in slices):
            AtX = np.stack(
                [self.A[k].T @ Xk for k, Xk in zip(indices, slices)]
            )  # Kc x Rc x J
        else:
            for Xk in slices:
                if isinstance(Xk, CsrMatrix) and not isinstance(Xk.data, np.memmap):
                    # Re-read every sweep: caching the transpose of an
                    # in-RAM CSR slice pays the counting sort once.
                    # Memmap-backed slices stay ephemeral — pinning an
                    # in-RAM copy is exactly what out-of-core must not do.
                    Xk.transpose()
        self._exact[cell_id] = (norms, AtX)

    def sweep_phase1(self, EDtV: np.ndarray, H: np.ndarray) -> dict:
        """Polar SVDs + Lemma-1 partials: ``{cell: (G1, WᵀW)}``."""
        out = {}
        for cell_id, _ in self.cells:
            ws = self._ws[cell_id]
            ws.compute_small(EDtV, H)
            ws.compute_polar(self.engine)
            ws.compute_T()
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
        VtD: np.ndarray | None,
        VtV: np.ndarray | None,
        H: np.ndarray,
        V: np.ndarray | None = None,
    ) -> dict:
        """Update the shard's ``W`` rows locally; return criterion partials.

        The normal matrix ``(VᵀV ∗ HᵀH)`` is identical for every row of
        ``W``, so each cell solves its own rows — per-cell solves keep the
        result shard-count-invariant — and projects them when
        ``nonnegative_weights`` is set.  The returned ``{cell: (cross,
        model)}`` float64 partials complete the compressed convergence
        criterion on the coordinator; ``VᵀD`` and ``VᵀV`` arrive in
        float64.  Under ``exact_convergence`` the coordinator sends ``V``
        instead of the two Grams, and each cell returns its partial of the
        true reconstruction error.
        """
        out = {}
        for cell_id, indices in self.cells:
            ws = self._ws[cell_id]
            W = solve_gram(gram, ws.mttkrp_W(EDtV, H)).astype(self._dtype, copy=False)
            ws.W = project_nonnegative(W) if self.nonnegative_weights else W
            if self.exact_convergence:
                out[cell_id] = self._exact_error(cell_id, indices, ws, H, V)
            else:
                out[cell_id] = ws.criterion_partials(VtD, VtV, H)
        return out

    def _exact_error(self, cell_id: int, indices: list[int], ws, H, V) -> float:
        """A cell's partial of the true ``Σk ‖Xk − Qk H Sk Vᵀ‖²`` (ablation).

        ``Qkᵀ Xk = (Zk Pkᵀ)ᵀ (Akᵀ Xk)`` without re-materializing ``Qk``:
        ``Akᵀ Xk`` comes from the stack :meth:`_bind_exact` hoisted, or —
        when that would not fit — from re-reading the cell's slices one at
        a time (O(max Ik · J) working memory).  ``Pk = Qkᵀ Xk V`` then goes
        to the one float64 residual kernel.
        """
        norms, AtX = self._exact[cell_id]
        polar_t = np.swapaxes(ws.polar_host(), 1, 2)  # Kc x R x Rc
        V64 = V.astype(np.float64, copy=False)
        if AtX is not None:
            P = (polar_t @ AtX).astype(np.float64, copy=False) @ V64
        else:
            P = np.stack([
                (polar_t[pos] @ (self.A[k].T @ self.slices[k])).astype(
                    np.float64, copy=False
                ) @ V64
                for pos, k in enumerate(indices)
            ])
        return float(residuals_from_projections(norms, P, H, ws.W, V64).sum())

    # ------------------------------- gather --------------------------- #

    def finalize(self) -> dict:
        """One-time gather: ``{cell: (W rows, [Qk = Ak Zk Pkᵀ, ...])}``.

        One stacked matmul per row-count bucket, with the tall-slice
        fallback of :func:`~repro.linalg.kernels.batched_stacked_matmul`.
        With zero sweeps there is no polar factor; ``Qk`` is then ``Ak``
        truncated to the target rank.
        """
        out = {}
        for cell_id, indices in self.cells:
            ws = self._ws[cell_id]
            Q = batched_stacked_matmul(
                [self.A[k] for k in indices],
                ws.polar_host(),
                max_stack_rows=_BATCH_MAX_ROWS,
                xp=self.xp,
            )
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
    **settings,
) -> list[dict]:
    """One init payload per shard, carrying only that shard's slices.

    ``settings`` (``engine``, ``xp``, the ablation and constraint flags)
    go to every shard unchanged.
    """
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
            **settings,
        }
        if slices is not None:
            payload["slices"] = {k: slices[k] for k in owned}
        if generators is not None:
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
    state keeps them.  Each cell takes the one stage-1 router, so
    per-slice results are bitwise-identical to the serial batched path for
    dense slices (each slice draws its own generator and the stacked
    LAPACK kernels are composition-invariant), and invariant to the shard
    count for any slice type because the cell layout is fixed by row
    counts alone.  When ``fault_stats_out`` is given, the runner's
    recovery counters are merged into it (restart counts accumulate
    across calls).
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


def _check_compression_shape(
    tensor: IrregularTensor, compressed: CompressedTensor
) -> None:
    """Raise ``ValueError`` at the first way ``tensor`` differs in shape.

    The sweeps plan their cells from the compression's row counts and read
    only its ``Ak`` and ``F(k)``; a tensor of another shape would give
    factors of the wrong size (or an index error deep in a shard).
    """
    if tensor.n_slices != compressed.n_slices:
        raise ValueError(
            f"tensor has {tensor.n_slices} slices but the precomputed "
            f"compression has {compressed.n_slices}"
        )
    if tensor.n_columns != compressed.n_columns:
        raise ValueError(
            f"tensor has {tensor.n_columns} columns but the precomputed "
            f"compression has {compressed.n_columns}"
        )
    for k, (rows, compressed_rows) in enumerate(
        zip(tensor.row_counts, compressed.row_counts)
    ):
        if rows != compressed_rows:
            raise ValueError(
                f"slice {k} has {rows} rows but the precomputed compression's "
                f"A[{k}] has {compressed_rows}"
            )


def _check_initial_factors(init: InitialFactors, J: int, K: int, R: int) -> None:
    """Raise ``ValueError`` unless ``init`` fits a rank-``R`` run over K×J."""
    for name, factor, shape in (
        ("H", init.H, (R, R)), ("V", init.V, (J, R)), ("W", init.W, (K, R))
    ):
        factor = np.asarray(factor)
        if factor.shape != shape:
            raise ValueError(
                f"starting factor {name} has shape {factor.shape}; this run "
                f"needs {shape} (effective rank {R})"
            )
        if not np.all(np.isfinite(factor)):
            raise ValueError(f"starting factor {name} has non-finite entries")


def sharded_dpar2(
    tensor: IrregularTensor | None,
    config: DecompositionConfig,
    *,
    compressed: CompressedTensor | None = None,
    init: InitialFactors | None = None,
    use_greedy_partition: bool = True,
    exact_convergence: bool = False,
    nonnegative_weights: bool = False,
    smooth_v: float = 0.0,
    method: str = "dpar2",
    xp=None,
) -> Parafac2Result:
    """Fit DPar2 through the cell coordinator — the one sweep loop.

    Called by :func:`~repro.decomposition.dpar2.dpar2` and
    :func:`~repro.decomposition.constrained.constrained_dpar2`.  With
    ``config.shards`` unset the plan is one cell on the in-process serial
    runner and stage 1 runs in :func:`compress_tensor`
    (``use_greedy_partition`` is its Algorithm-4 ablation).  With
    ``config.shards`` set, stage 1 runs in the shards and the result adds
    a ``stats["sharding"]`` record: the chosen cell layout, the shard
    imbalance ratio, the measured allreduce bytes per sweep, and the
    transport's recovery counters (``worker_restarts`` plus a ``faults``
    block with replayed calls and per-event stderr excerpts).

    ``tensor`` may be ``None`` when ``compressed`` is given: the sweeps
    read only the compression, so K, the row counts and J come from it.
    A tensor supplied next to ``compressed`` must match its shape.

    The run fits rank ``R = min(config.rank, J, min Ik)``;
    ``stats["rank"]`` records the requested and the effective rank, the
    slices with fewer rows than requested and whether J was too small,
    and a clamped run counts in ``repro_decompose_rank_clamps_total``.
    ``init`` gives the starting ``H`` (R×R), ``V`` (J×R) and ``W`` (K×R)
    — a streaming refresh warm-starts from its previous model this way.
    They must have those shapes at the effective rank and be finite, or
    ``ValueError`` is raised before any shard runner starts; they are
    cast to the working dtype.  Without them the factors start from
    :func:`~repro.decomposition.initialization.initialize_factors`.

    ``exact_convergence`` is the exact-error ablation;
    ``nonnegative_weights`` and ``smooth_v`` are the constraint hooks of
    :func:`~repro.decomposition.constrained.constrained_dpar2`, whose
    ``method`` name the result carries.  ``xp`` overrides the array module
    ``config.compute_backend`` names (any
    :class:`~repro.linalg.array_module.ArrayModule` instance).
    """
    xp = get_xp(config.compute_backend if xp is None else xp)
    if tensor is None:
        if compressed is None:
            raise ValueError("pass a tensor, a precomputed compression, or both")
        if exact_convergence:
            raise ValueError(
                "exact_convergence evaluates the error against the raw "
                "slices every sweep; pass the tensor with the compression"
            )
    else:
        if not isinstance(tensor, IrregularTensor):
            tensor = IrregularTensor(tensor, dtype=config.numpy_dtype)
        if compressed is not None:
            _check_compression_shape(tensor, compressed)
        if tensor.dtype != config.numpy_dtype:
            tensor = tensor.astype(config.numpy_dtype)
        if not xp.is_numpy and any(
            isinstance(Xk, np.memmap) for Xk in tensor.slices
        ):
            raise ValueError(
                "out-of-core (memory-mapped) tensors cannot run on compute "
                f"backend {xp.name!r}: streaming from disk and device "
                "residency are mutually exclusive; use compute_backend='numpy'"
            )
    source = tensor if compressed is None else compressed
    row_counts, J = source.row_counts, source.n_columns
    R = effective_rank(config.rank, J, row_counts)
    if compressed is not None and compressed.rank < R:
        raise ValueError(
            f"precomputed compression has rank {compressed.rank} < target {R}"
        )
    K = len(row_counts)
    if init is not None:
        _check_initial_factors(init, J, K, R)
    sharded = config.shards is not None
    if sharded:
        plan = plan_shards(row_counts, config.shards, config.shard_cells)
        shard_backend = config.shard_backend
    else:
        plan = plan_shards(row_counts, 1, 1)
        shard_backend = "serial"
    engine = get_backend(config.backend, config.n_threads)

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
    m_allreduce = (
        registry.counter(
            "repro_shard_allreduce_bytes_total",
            "Bytes moved through the sweep-phase allreduce rounds.",
        )
        if sharded
        else None
    )
    rank_stats = rank_report(config.rank, J, row_counts)
    prev_error: float | None = None

    with ExitStack() as stack:
        stack.enter_context(
            trace.span(
                "dpar2.run", backend=config.backend, compute_backend=xp.name,
                shards=plan.n_shards if sharded else None, rank=R,
            )
        )
        with trace.span("dpar2.compress", slices=K):
            preprocess_start = time.perf_counter()
            if compressed is None and not sharded:
                compressed = compress_tensor(
                    tensor,
                    R,
                    oversampling=config.oversampling,
                    power_iterations=config.power_iterations,
                    random_state=config.random_state,
                    use_greedy_partition=use_greedy_partition,
                    backend=engine,
                    compute_backend=xp,
                )
            payloads = _shard_payloads(
                plan,
                rank=R if compressed is None else compressed.rank,
                oversampling=config.oversampling,
                power_iterations=config.power_iterations,
                slices=(
                    tensor.slices
                    if compressed is None or exact_convergence
                    else None
                ),
                generators=(
                    spawn_generators(config.random_state, K)
                    if compressed is None
                    else None
                ),
                A=None if compressed is None else compressed.A,
                engine=engine,
                xp=xp,
                exact_convergence=exact_convergence,
                nonnegative_weights=nonnegative_weights,
            )
            runner = stack.enter_context(
                get_shard_runner(shard_backend, Dpar2Shard, payloads)
            )
            stage1 = _merge_cells(runner.start())

            if compressed is None:
                # Stage 2 on the gathered small factors, in slice order.
                D, E, F, preprocess_seconds = _stage2(
                    [stage1[k] for k in range(K)],
                    J,
                    R,
                    dtype=tensor.dtype,
                    oversampling=config.oversampling,
                    power_iterations=config.power_iterations,
                    random_state=config.random_state,
                    xp=xp,
                    start=preprocess_start,
                )
                itemsize = np.dtype(tensor.dtype).itemsize
                preprocessed_bytes = (
                    sum(rows * R for rows in row_counts) * itemsize
                    + D.nbytes + E.nbytes + F.nbytes
                )
            else:
                D, E, F = compressed.D, compressed.E, compressed.F_blocks
                preprocess_seconds = compressed.seconds
                preprocessed_bytes = compressed.nbytes
        dtype = D.dtype

        initial = init if init is not None else initialize_factors(
            J, K, R, config.random_state
        )
        H = np.asarray(initial.H).astype(dtype, copy=False)
        V = np.asarray(initial.V).astype(dtype, copy=False)
        W = np.asarray(initial.W).astype(dtype, copy=False)
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

                # Round 1: polar SVDs and Lemma 1 — update H on the
                # coordinator.
                with trace.span("dpar2.sweep_phase1"):
                    EDtV = np.multiply(D.T @ V, E[:, None])
                    phase1 = _merge_cells(runner.call("sweep_phase1", EDtV, H))
                    G1 = _sum_cell_arrays(phase1, item=0)
                    WtW = _sum_cell_arrays(phase1, item=1)
                    # The three Lemma solves run in float64 even on the
                    # float32 pipeline (solve_gram promotes its inputs):
                    # the Hadamard-of-Grams normal matrix squares the
                    # factor condition numbers, and a float32 Cholesky
                    # there fails noticeably more often.
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
                    gram2 = WtW * HtH
                    if smooth_v:
                        # Proximal/ridge update toward the previous V.
                        gram2 = gram2 + smooth_v * np.eye(R)
                        G2 = G2 + smooth_v * V
                    V = solve_gram(gram2, G2)
                    V, _ = normalize_columns(V)
                    V = V.astype(dtype, copy=False)

                # Round 3: Lemma 3 — cells update their W rows; the
                # criterion partials come back with the same message.
                with trace.span("dpar2.sweep_phase3"):
                    VtV = V.T @ V
                    EDtV = np.multiply(D.T @ V, E[:, None])
                    gram3 = VtV * HtH
                    if exact_convergence:
                        phase3 = _merge_cells(
                            runner.call("sweep_phase3", EDtV, gram3, None, None, H, V)
                        )
                        error_sq = max(_sum_cell_scalars(phase3), 0.0)
                    else:
                        # The criterion's Grams are float64 on the float32
                        # pipeline too: an ill-conditioned H Sk amplifies
                        # float32 rounding of VᵀV past the residual itself.
                        V64 = V.astype(np.float64, copy=False)
                        VtD = V64.T @ D.astype(np.float64, copy=False)
                        VtV64 = VtV if V64 is V else V64.T @ V64
                        phase3 = _merge_cells(
                            runner.call("sweep_phase3", EDtV, gram3, VtD, VtV64, H)
                        )
                        cross = _sum_cell_scalars(phase3, item=0)
                        model = _sum_cell_scalars(phase3, item=1)
                        error_sq = max(data_term - 2.0 * cross + model, 0.0)

                sweep_seconds = time.perf_counter() - sweep_start
                history.append(IterationRecord(iteration, error_sq, sweep_seconds))
                m_sweeps.inc()
                m_sweep_seconds.observe(sweep_seconds)
                if m_allreduce is not None:
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
        gathered = _merge_cells(runner.call("finalize"))
        fault_stats = runner.fault_stats

    W_out = np.empty((K, R), dtype=dtype)
    Q: list[np.ndarray | None] = [None] * K
    for cell_id, (W_cell, Q_cell) in gathered.items():
        indices = plan.cells[cell_id]
        W_out[list(indices)] = W_cell
        for pos, k in enumerate(indices):
            Q[k] = Q_cell[pos]

    stats: dict = {"rank": rank_stats}
    if sharded:
        n_sweeps = max(len(history), 1)
        stats["sharding"] = {
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

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W_out,
        V=V,
        method=method,
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=preprocess_seconds,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=preprocessed_bytes,
        history=history,
        stats=stats,
    )
