"""DPar2 — the paper's contribution (Algorithm 3).

Pipeline:

1. **Two-stage compression** (Section III-B, :func:`compress_tensor`):
   randomized SVD of every slice ``Xk ≈ Ak Bk Ckᵀ`` (stage 1, parallelized
   with Algorithm 4's greedy partitioning), then randomized SVD of the
   ``J×KR`` concatenation ``M = ∥k (Ck Bk) ≈ D E Fᵀ`` (stage 2).  After
   this, iterations never touch ``Xk`` again: ``Xk ≈ Ak F(k) E Dᵀ``.

2. **Compressed ALS iterations** (Sections III-C–III-E): per slice, an
   ``R×R`` SVD of ``F(k) E Dᵀ V Sk Hᵀ = Zk Σk Pkᵀ`` gives the implicit
   ``Qk = Ak Zk Pkᵀ``; with ``Tk := Pk Zkᵀ F(k)`` the Lemma 1–3 kernels
   produce the three MTTKRPs in ``O(J R² + K R³)`` per sweep.

3. **Compressed convergence criterion** (Section III-E): the variation of
   ``Σk ‖Tk E Dᵀ − H Sk Vᵀ‖²``, evaluated by the Gram trick in
   ``O(J R² + K R³)`` — this equals ``Σk ‖Ak F(k) E Dᵀ − X̂k‖²`` exactly
   because ``D``, ``Zk``, ``Pk`` are orthonormal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import normalize_columns
from repro.decomposition.initialization import initialize_factors
from repro.decomposition.result import IterationRecord, Parafac2Result
from repro.linalg.array_module import ArrayModule, get_xp
from repro.linalg.kernels import (
    acquire_sweep_workspace,
    batched_randomized_svd,
    batched_stacked_matmul,
    release_sweep_workspace,
)
from repro.linalg.pinv import solve_gram
from repro.linalg.randomized_svd import RandomizedSVDResult, randomized_svd
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import slice_squared_norm
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig
from repro.util.rng import as_generator, spawn_generators

#: Above this slice height the per-slice (thread-parallel) stage-1 path
#: beats single-stream batching when multiple workers are available: the
#: LAPACK calls are then large enough that dispatch overhead no longer
#: dominates, while worker threads still share the slices zero-copy.
_BATCH_MAX_ROWS = 256


@dataclass
class CompressedTensor:
    """The preprocessed form ``{Ak}, D, E, {F(k)}`` of an irregular tensor.

    ``Xk ≈ Ak F(k) E Dᵀ`` where ``Ak`` (``Ik×R``) keeps the per-slice left
    subspace, ``D`` (``J×R``) the shared right subspace, ``E`` (length-``R``)
    the stage-2 singular values, and ``F_blocks[k]`` (``R×R``) the ``k``-th
    vertical block of ``F``.
    """

    A: list[np.ndarray]
    D: np.ndarray
    E: np.ndarray
    F_blocks: np.ndarray  # shape (K, R, R)
    seconds: float = 0.0

    def __post_init__(self) -> None:
        R = self.D.shape[1]
        if self.E.shape != (R,):
            raise ValueError(f"E must have shape ({R},), got {self.E.shape}")
        if self.F_blocks.shape != (len(self.A), R, R):
            raise ValueError(
                f"F_blocks must be (K, {R}, {R}), got {self.F_blocks.shape}"
            )
        for k, Ak in enumerate(self.A):
            if Ak.shape[1] != R:
                raise ValueError(f"A[{k}] must have {R} columns, got {Ak.shape}")

    @property
    def rank(self) -> int:
        return self.D.shape[1]

    @property
    def n_slices(self) -> int:
        return len(self.A)

    @property
    def n_columns(self) -> int:
        return self.D.shape[0]

    @property
    def row_counts(self) -> list[int]:
        return [Ak.shape[0] for Ak in self.A]

    @property
    def nbytes(self) -> int:
        """Size of the preprocessed data — what Fig. 10 reports."""
        return (
            sum(Ak.nbytes for Ak in self.A)
            + self.D.nbytes
            + self.E.nbytes
            + self.F_blocks.nbytes
        )

    def reconstruct_slice(self, k: int) -> np.ndarray:
        """Materialize ``X̃k = Ak F(k) E Dᵀ`` (testing/diagnostics only)."""
        return self.A[k] @ (self.F_blocks[k] * self.E) @ self.D.T

    def compression_ratio(self, tensor: IrregularTensor) -> float:
        """Input bytes divided by preprocessed bytes (Fig. 10's ratio)."""
        return tensor.nbytes / self.nbytes


def _stage1_svds(
    slices,
    generators,
    rank: int,
    *,
    oversampling: int,
    power_iterations: int,
    engine: ExecutionBackend,
    xp: ArrayModule,
    stage1_batching: str = "auto",
    use_greedy_partition: bool = True,
) -> list[RandomizedSVDResult]:
    """Stage 1: one randomized SVD per slice, each with its own generator.

    The single stage-1 router, shared by :func:`compress_tensor` and
    :class:`~repro.decomposition.streaming.StreamingDpar2`.  ``slices`` is
    an :class:`IrregularTensor` or a list of dense/CSR slices.  Both routes
    — the stacked kernel
    (:func:`~repro.linalg.kernels.batched_randomized_svd`) and per-slice
    dispatch over ``engine``'s workers — give bitwise-identical results,
    so the choice is purely about speed.  ``stage1_batching`` forces one
    (``"batched"`` / ``"per-slice"``); ``"auto"`` batches when it cannot
    lose:

    * memory-mapped slices stream per slice — stacking a bucket would copy
      it into RAM and defeat out-of-core;
    * otherwise CSR slices batch at any height: their ``O(nnz·R)`` stage 1
      is dispatch-bound, and stacking copies only ``nnz``-sized arrays;
    * dense slices batch on a single worker, or when no slice is taller
      than ``_BATCH_MAX_ROWS`` (dispatch, not FLOPs, dominates) — unless
      greedy partitioning is off: the Algorithm-4 ablation keeps the
      per-slice path, on the naive allocation, so it measures what it
      claims to.

    A non-numpy ``xp`` always batches: device throughput comes from big
    stacked launches, and an :class:`IrregularTensor` stacks its buckets
    from the per-backend device cache instead of re-uploading them.
    """
    if not xp.is_numpy:
        if stage1_batching == "per-slice":
            raise ValueError(
                "stage1_batching='per-slice' is a host-dispatch ablation and "
                f"cannot run on compute backend {xp.name!r}; "
                "use compute_backend='numpy' for that measurement"
            )
        batched = True
    elif stage1_batching in ("batched", "per-slice"):
        batched = stage1_batching == "batched"
    elif stage1_batching != "auto":
        raise ValueError(
            "stage1_batching must be 'auto', 'batched', or 'per-slice'; "
            f"got {stage1_batching!r}"
        )
    elif any(isinstance(Xk, np.memmap) for Xk in slices):
        batched = False
    elif any(isinstance(Xk, CsrMatrix) for Xk in slices):
        batched = True
    else:
        batched = use_greedy_partition and (
            engine.n_workers == 1
            or max(Xk.shape[0] for Xk in slices) <= _BATCH_MAX_ROWS
        )

    if batched:
        return batched_randomized_svd(
            slices,
            rank,
            oversampling=oversampling,
            power_iterations=power_iterations,
            generators=generators,
            xp=xp,
            native_slices=(
                slices.to_backend(xp)
                if not xp.is_numpy and isinstance(slices, IrregularTensor)
                else None
            ),
        )

    def compress_slice(item):
        Xk, rng = item
        return randomized_svd(
            Xk,
            rank,
            oversampling=oversampling,
            power_iterations=power_iterations,
            random_state=rng,
        )

    items = list(zip(slices, generators))
    if not use_greedy_partition:
        return engine.map(compress_slice, items)
    return engine.map_partitioned(
        compress_slice, items, weights=[Xk.shape[0] for Xk in slices]
    )


def compress_tensor(
    tensor: IrregularTensor,
    rank: int,
    *,
    oversampling: int = 5,
    power_iterations: int = 1,
    n_threads: int = 1,
    random_state=None,
    use_greedy_partition: bool = True,
    backend: "str | ExecutionBackend" = "thread",
    stage1_batching: str = "auto",
    compute_backend: "str | ArrayModule" = "numpy",
) -> CompressedTensor:
    """Two-stage randomized-SVD compression (Algorithm 3, lines 2–6).

    Stage 1 (:func:`_stage1_svds`) runs one randomized SVD per slice.  For
    in-RAM tensors the slices are grouped into equal-row-count buckets and
    the whole Algorithm-1 pipeline runs as stacked 3-D LAPACK calls
    (:func:`~repro.linalg.kernels.batched_randomized_svd`) — identical
    results, no per-slice Python dispatch.  Otherwise (tall slices on
    several workers, memory-mapped slices, or
    ``stage1_batching="per-slice"``) each slice is dispatched over the
    ``backend``'s workers with Algorithm 4's greedy number partitioning
    keyed on row counts (``use_greedy_partition=False`` selects the naive
    allocation, used by the partitioning ablation).  Stage 2 compresses
    the ``J×KR`` concatenation of the ``Ck Bk`` products.

    Because stage 1 is the only place the raw slices are read, a tensor
    backed by an on-disk :class:`~repro.tensor.mmap_store.MmapSliceStore`
    streams through here one slice at a time — nothing requires the whole
    tensor in RAM.  ``backend`` accepts a name or a live
    :class:`~repro.parallel.backends.ExecutionBackend` instance.

    The compression runs in the tensor's dtype: float32 slices yield a
    float32 :class:`CompressedTensor` at half the memory traffic.

    Tensors holding CSR slices (see
    :meth:`IrregularTensor.sparsify <repro.tensor.irregular.IrregularTensor.sparsify>`)
    take the sparse fast path: stage 1 sketches each row-count bucket
    through batched SpMM (``O(nnz·R)`` work, only the ``(R+s)``-column
    panels dense) and the raw slices are never densified.  The compressed
    output is identical in structure — iterations downstream are oblivious
    to how stage 1 read the data.  On a device backend the sparse path
    composes too: each bucket's CSR structure uploads once and the sketch
    panels stay device-resident (see
    :func:`~repro.linalg.kernels.batched_randomized_svd`).

    ``compute_backend`` selects the array library the randomized-SVD
    kernels run on (``"numpy"`` default — bitwise-stable; ``"torch"`` /
    ``"torch-cuda"`` / ``"cupy"``).  Device backends stack each row bucket
    on-device once (slices move through
    :meth:`IrregularTensor.to_backend`'s per-backend cache), force the
    batched stage-1 path, and refuse memory-mapped tensors — out-of-core
    streaming and device residency are mutually exclusive.
    """
    if not isinstance(tensor, IrregularTensor):
        tensor = IrregularTensor(tensor)
    xp = get_xp(compute_backend)
    if not xp.is_numpy and any(
        isinstance(Xk, np.memmap) for Xk in tensor.slices
    ):
        raise ValueError(
            "out-of-core (memory-mapped) tensors cannot be compressed on "
            f"compute backend {xp.name!r}: paging the store through the "
            "device defeats streaming; use compute_backend='numpy'"
        )
    R = min(rank, tensor.n_columns, min(tensor.row_counts))
    start = time.perf_counter()

    # Stage 1: per-slice randomized SVD, one private RNG per slice so the
    # result is independent of the worker schedule (and of the backend,
    # and of whether slices were dispatched stacked or one by one).
    stage1 = _stage1_svds(
        tensor,
        spawn_generators(random_state, tensor.n_slices),
        R,
        oversampling=oversampling,
        power_iterations=power_iterations,
        engine=get_backend(backend, n_threads),
        xp=xp,
        stage1_batching=stage1_batching,
        use_greedy_partition=use_greedy_partition,
    )

    # Stage 2: M = ∥k (Ck Bk) ∈ R^{J x KR}, randomized SVD at rank R.  The
    # K products are written straight into one preallocated array instead
    # of concatenating K temporaries.
    M = np.empty((tensor.n_columns, tensor.n_slices * R), dtype=tensor.dtype)
    for k, svd in enumerate(stage1):
        np.multiply(svd.V, svd.singular_values, out=M[:, k * R : (k + 1) * R])
    stage2 = randomized_svd(
        M,
        R,
        oversampling=oversampling,
        power_iterations=power_iterations,
        random_state=as_generator(random_state),
        xp=xp,
    )
    # F is KR x R; its k-th vertical block (R x R) satisfies Bk Ckᵀ ≈ F(k) E Dᵀ.
    F_blocks = stage2.V.reshape(tensor.n_slices, R, stage2.V.shape[1])

    seconds = time.perf_counter() - start
    registry = get_registry()
    registry.counter(
        "repro_decompose_compressions_total",
        "Two-stage tensor compressions completed.",
    ).inc()
    registry.histogram(
        "repro_decompose_compress_seconds",
        "Wall-clock seconds per two-stage compression.",
    ).observe(seconds)
    return CompressedTensor(
        A=[svd.U for svd in stage1],
        D=stage2.U,
        E=stage2.singular_values,
        F_blocks=F_blocks,
        seconds=seconds,
    )


def _polar_stack_task(stack: np.ndarray) -> np.ndarray:
    """Polar factors ``Zk Pkᵀ`` for one chunk of stacked small matrices.

    The thin SVD keeps this correct when the stack is rectangular
    ``(m, Rc, R)`` with ``Rc > R`` — a precomputed compression of higher
    rank than the target (its extra directions are simply truncated).
    """
    Z, _, Pt = np.linalg.svd(stack, full_matrices=False)
    return Z @ Pt


def _batched_polar(
    matrices,
    n_threads: int,
    backend: "str | ExecutionBackend" = "thread",
    xp: "ArrayModule | None" = None,
) -> np.ndarray:
    """``Zk Pkᵀ`` and ``Tk``-precursor SVDs for a stack of ``R×R`` matrices.

    Returns the stack ``Zk @ Pkᵀ`` (shape ``(K, R, R)``).  Large stacks are
    chunked evenly across the backend's workers (the "uniform allocation" of
    Section III-F: the per-slice work no longer depends on ``Ik``); small
    stacks go through one LAPACK batched-SVD call, whatever the backend,
    because dispatch would cost more than the work.

    On a device ``xp`` the input stack is already resident (it comes out of
    the device sweep workspace) and the whole thing is one batched SVD
    launch — host worker chunking would only fragment it.
    """
    if xp is not None and not xp.is_numpy:
        Z, _, Pt = xp.svd(matrices, full_matrices=False)
        return xp.matmul(Z, Pt)
    K = matrices.shape[0]
    engine = get_backend(backend, n_threads)
    if engine.n_workers <= 1 or K < 4 * engine.n_workers:
        return _polar_stack_task(matrices)
    chunks = np.array_split(matrices, engine.n_workers)
    return np.concatenate(engine.map(_polar_stack_task, chunks))


def dpar2(
    tensor: IrregularTensor,
    config: DecompositionConfig | None = None,
    *,
    compressed: CompressedTensor | None = None,
    use_greedy_partition: bool = True,
    exact_convergence: bool = False,
    **overrides,
) -> Parafac2Result:
    """Fit PARAFAC2 with DPar2 (Algorithm 3).

    Parameters
    ----------
    tensor:
        The irregular input ``{Xk}``.
    config:
        Shared hyper-parameters; keyword overrides apply on top.
    compressed:
        A precomputed :func:`compress_tensor` result, letting callers reuse
        one compression across ranks/sweeps (its rank must not be below the
        target rank).
    use_greedy_partition:
        Algorithm-4 load balancing for stage-1 compression (ablation knob).
    exact_convergence:
        When True, evaluate the true reconstruction error against the raw
        slices each sweep instead of the compressed criterion — the
        convergence ablation from DESIGN.md §6.

    Returns
    -------
    Parafac2Result
        ``preprocess_seconds`` is the two-stage compression time,
        ``preprocessed_bytes`` the size of ``{Ak}, D, E, F`` (Fig. 9(a) and
        Fig. 10 inputs).

    Notes
    -----
    **Execution backend.**  ``config.backend`` selects how slice-parallel
    stages run: ``"serial"`` or ``"thread"`` (default); ``config.n_threads``
    sets the worker count.  One backend instance is shared by stage-1
    compression and every sweep's batched polar SVDs.  For a fixed
    ``random_state`` both backends return identical factors — per-slice
    spawned RNGs make the result independent of the schedule.  Worker
    processes are the shard coordinator's (``config.shards``).

    **Out of core.**  The raw slices are only read during stage-1
    compression, so a tensor built with
    :meth:`IrregularTensor.from_store <repro.tensor.irregular.IrregularTensor.from_store>`
    over an on-disk :class:`~repro.tensor.mmap_store.MmapSliceStore` streams
    from disk slice by slice; iterations then run purely on the compressed
    representation.  (``exact_convergence=True`` re-reads raw slices every
    sweep and defeats the purpose.)

    **Sparse slices.**  A tensor holding CSR slices (built directly, via
    :meth:`IrregularTensor.sparsify <repro.tensor.irregular.IrregularTensor.sparsify>`,
    or loaded from a sparse store payload) is compressed through the SpMM
    fast path — ``O(nnz·R)`` stage-1 work and no densified copies, on disk
    or in RAM.  Iterations are unchanged: they only ever see the compressed
    representation.  The fast path runs on every compute backend: numpy
    uses the scipy/pure-numpy host kernels, torch/CuPy sketch each bucket
    through device SpMM with the CSR structure uploaded once.

    **Zero sweeps.**  ``max_iterations=0`` is allowed and returns the
    compressed tensor's subspaces with the random factor initialization —
    useful for timing or warm-start experiments.

    **Precision.**  ``config.dtype`` selects the pipeline's working
    precision (float64 default).  A float32 run halves memory traffic and
    roughly doubles BLAS throughput during compression; the convergence
    criterion still accumulates in float64.  A tensor whose dtype differs
    from the config is converted up front (an in-RAM copy — build a
    float32 store for out-of-core float32 runs).  When ``compressed`` is
    supplied its dtype wins for the sweeps.

    **Compute backend.**  ``config.compute_backend`` selects the array
    library the batched kernels run on: ``"numpy"`` (default,
    bitwise-stable against earlier releases), ``"torch"`` (CPU),
    ``"torch-cuda"``, or ``"cupy"``.  Device backends keep the stage-1
    bucket stacks, the sweep contractions, and the polar SVDs resident on
    the device; factors and results are always returned as host arrays.
    Device backends are incompatible with out-of-core (memory-mapped)
    tensors — rejected with an explicit error before any work starts.
    """
    config = (config or DecompositionConfig()).with_(**overrides)
    xp = config.array_module
    if not isinstance(tensor, IrregularTensor):
        tensor = IrregularTensor(tensor, dtype=config.numpy_dtype)
    elif tensor.dtype != config.numpy_dtype:
        tensor = tensor.astype(config.numpy_dtype)
    if not xp.is_numpy and any(
        isinstance(Xk, np.memmap) for Xk in tensor.slices
    ):
        raise ValueError(
            "out-of-core (memory-mapped) tensors cannot run on compute "
            f"backend {xp.name!r}: streaming from disk and device residency "
            "are mutually exclusive; use compute_backend='numpy'"
        )
    R = min(config.rank, tensor.n_columns, min(tensor.row_counts))

    if config.shards is not None:
        if exact_convergence:
            raise ValueError(
                "exact_convergence re-reads the raw slices every sweep and "
                "is not available on the sharded path; unset config.shards "
                "for the ablation"
            )
        if not use_greedy_partition:
            raise ValueError(
                "use_greedy_partition=False is the Algorithm-4 ablation of "
                "the single-process path; the shard planner always balances "
                "greedily — unset config.shards to run the ablation"
            )
        # Imported lazily: sharded.py imports this module's CompressedTensor.
        from repro.decomposition.sharded import sharded_dpar2

        return sharded_dpar2(
            tensor, config, compressed=compressed, target_rank=R
        )

    engine = get_backend(config.backend, config.n_threads)
    with trace.span(
        "dpar2.run", backend=config.backend, compute_backend=xp.name, rank=R
    ):
        if compressed is None:
            with trace.span("dpar2.compress", slices=tensor.n_slices):
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
        elif compressed.rank < R:
            raise ValueError(
                f"precomputed compression has rank {compressed.rank} < target {R}"
            )
        return _iterate(
            tensor, config, compressed, engine, R, exact_convergence, xp
        )


def _iterate(
    tensor: IrregularTensor,
    config: DecompositionConfig,
    compressed: CompressedTensor,
    engine: ExecutionBackend,
    R: int,
    exact_convergence: bool,
    xp: "ArrayModule | None" = None,
) -> Parafac2Result:
    """Compressed ALS sweeps (Alg. 3, lines 7–24) on a live backend.

    All per-sweep temporaries live in a cached
    :class:`~repro.linalg.kernels.SweepWorkspace`: contraction paths are
    resolved once per problem shape, every buffer is preallocated, and the
    Gram matrices ``WᵀW`` / ``VᵀV`` / ``HᵀH`` are each computed once per
    sweep and shared across the Lemma 1–3 updates and the convergence
    criterion (``VᵀV`` carries over to the next sweep's Lemma 1, since
    ``V`` only changes in Lemma 2).

    With a device ``xp`` the workspace is a
    :class:`~repro.linalg.kernels.DeviceSweepWorkspace`: ``D, E, F`` move
    to the device once at bind, the ``O(K R² Rc)`` contractions and the
    polar SVDs stay resident across sweeps, and only the small ``R×R``
    normal systems cross back for the float64 Lemma solves (``ws.host`` /
    ``ws.dev`` are identity functions on the numpy workspace, so this is
    one code path, not two).
    """
    xp = get_xp(xp)
    D = compressed.D  # J x Rc
    E = compressed.E  # Rc
    F = compressed.F_blocks  # K x Rc x Rc
    K = compressed.n_slices
    dtype = D.dtype

    init = initialize_factors(tensor.n_columns, K, R, config.random_state)
    H = init.H.astype(dtype, copy=False)
    V = init.V.astype(dtype, copy=False)
    W = init.W.astype(dtype, copy=False)

    ws = acquire_sweep_workspace(
        K, tensor.n_columns, R, compressed.rank, dtype, xp=xp
    )
    ws.bind(D, E, F)

    # Hoisted constants for the exact-error ablation: Akᵀ Xk never changes
    # across sweeps (Qkᵀ Xk = (Zk Pkᵀ)ᵀ (Akᵀ Xk)), so the raw slices are
    # read once per call instead of once per sweep.  The hoist is only
    # valid when the K×Rc×J stack actually fits: memmap-backed tensors are
    # out of core precisely because the data exceeds RAM, and for short
    # slices (Ik ≈ Rc) the stack is as large as the data itself — both
    # keep the per-sweep streaming evaluation instead.
    slice_norms_sq = None
    AtX = None
    if exact_convergence:
        slice_norms_sq = np.array([slice_squared_norm(Xk) for Xk in tensor])
        in_ram = not any(
            isinstance(Xk, np.memmap)
            or (
                isinstance(Xk, CsrMatrix)
                and isinstance(Xk.data, np.memmap)
            )
            for Xk in tensor.slices
        )
        stack_bytes = K * compressed.rank * tensor.n_columns * dtype.itemsize
        if in_ram and stack_bytes <= tensor.nbytes:
            AtX = np.stack(
                [_slice_AtX(compressed.A[k], Xk) for k, Xk in enumerate(tensor)]
            )  # K x Rc x J

    monitor = ConvergenceMonitor(config.tolerance)
    history: list[IterationRecord] = []
    converged = False
    iteration = 0
    # ``polar`` must be bound even when the sweep loop never runs
    # (``max_iterations=0``): the Qk materialization below reads it.
    polar = None

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
    prev_error: float | None = None

    try:
        # VᵀV for the first sweep's Lemma 1 (updated after each Lemma 2).
        ws.gram_V(V)

        start = time.perf_counter()
        for iteration in range(1, config.max_iterations + 1):
            with trace.span("dpar2.sweep", iteration=iteration) as sweep_span:
                sweep_start = time.perf_counter()

                # --- per-slice R x R SVDs (Alg. 3, lines 8-10) -------------- #
                ws.update_EDtV(V)  # Rc x R: E Dᵀ V
                small = ws.compute_small(W, H)  # F(k) E Dᵀ V Sk Hᵀ over k
                polar = _batched_polar(small, config.n_threads, backend=engine, xp=xp)
                T = ws.compute_T(polar)  # Tk = Pk Zkᵀ F(k)

                # --- Lemma 1: update H -------------------------------------- #
                # The three Lemma solves intentionally run in float64 even on
                # the float32 pipeline (solve_gram promotes its inputs): the
                # Hadamard-of-Grams normal matrix squares the factor condition
                # numbers, and a float32 Cholesky there fails noticeably more
                # often.  The cost is O(J R + R²) casts per solve — noise next
                # to the O(K R² Rc) contractions that stay in float32.
                G1 = ws.mttkrp_H(W)
                ws.gram_W(W)
                H = solve_gram(ws.host(ws.hadamard_gram(ws.WtW, ws.VtV)), ws.host(G1))
                H, _ = normalize_columns(H)
                H = H.astype(dtype, copy=False)

                # --- Lemma 2: update V -------------------------------------- #
                ws.gram_H(H)
                G2 = ws.mttkrp_V(W, H)
                V = solve_gram(ws.host(ws.hadamard_gram(ws.WtW, ws.HtH)), ws.host(G2))
                V, _ = normalize_columns(V)
                V = V.astype(dtype, copy=False)

                # --- Lemma 3: update W -------------------------------------- #
                ws.gram_V(V)  # new V; also serves the criterion + next Lemma 1
                ws.update_EDtV(V)  # recompute with the new V
                G3 = ws.mttkrp_W(H)
                W = solve_gram(ws.host(ws.hadamard_gram(ws.VtV, ws.HtH)), ws.host(G3))
                W = W.astype(dtype, copy=False)

                # --- convergence criterion ---------------------------------- #
                if exact_convergence:
                    polar_host = ws.host(polar)
                    VtV_host = ws.host(ws.VtV)
                    if AtX is not None:
                        error_sq = _exact_error(
                            slice_norms_sq, AtX, polar_host, VtV_host, H, V, W
                        )
                    else:
                        error_sq = _exact_error_streaming(
                            tensor, slice_norms_sq, compressed, polar_host,
                            VtV_host, H, V, W,
                        )
                else:
                    error_sq = ws.compressed_error(H, V, W)
                sweep_seconds = time.perf_counter() - sweep_start
                history.append(IterationRecord(iteration, error_sq, sweep_seconds))
                m_sweeps.inc()
                m_sweep_seconds.observe(sweep_seconds)
                if prev_error is not None:
                    m_fitness_delta.set(float(prev_error) - float(error_sq))
                prev_error = float(error_sq)
                sweep_span.annotate(error_sq=prev_error)
                if monitor.update(error_sq):
                    converged = True
                    break
        iterate_seconds = time.perf_counter() - start
    finally:
        release_sweep_workspace(ws)

    # Materialize Qk = Ak Zk Pkᵀ for the returned model (Alg. 3, line 25),
    # one stacked matmul per row-count bucket.  With zero sweeps there is
    # no polar factor yet; Qk = Ak, truncated to the target rank when the
    # compression has more (rectangular eye).
    Z_Pt = (
        xp.to_numpy(polar)
        if polar is not None
        else np.tile(np.eye(compressed.rank, R, dtype=dtype), (K, 1, 1))
    )
    Q = batched_stacked_matmul(
        compressed.A, Z_Pt, max_stack_rows=_BATCH_MAX_ROWS, xp=xp
    )

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W,
        V=V,
        method="dpar2",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=compressed.seconds,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=compressed.nbytes,
        history=history,
    )


def _slice_AtX(Ak: np.ndarray, Xk) -> np.ndarray:
    """``Akᵀ Xk`` for a dense or CSR slice (the exact-error hoist kernel)."""
    if isinstance(Xk, CsrMatrix):
        return Xk.rmatmul_dense(Ak)
    return Ak.T @ Xk


def _compressed_error(
    T: np.ndarray,
    E: np.ndarray,
    data_term: float,
    D: np.ndarray,
    H: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
) -> float:
    """``Σk ‖Tk E Dᵀ − H Sk Vᵀ‖²`` via the Gram trick (O(JR² + KR³)).

    Standalone variant used by solvers without a sweep workspace (e.g.
    :mod:`repro.decomposition.constrained`); the DPar2 loop itself uses
    :meth:`SweepWorkspace.compressed_error`, which reuses the sweep's Gram
    matrices and buffers.
    """
    VtD = V.T @ D  # R x Rc, O(J R Rc), shared across slices
    VtV = V.T @ V
    TE = T * E  # K x R x Rc
    # cross_k = sum( (Tk E) * ((H * W[k]) @ VtD) )
    HS = H[None, :, :] * W[:, None, :]  # K x R x R
    cross = float(np.einsum("kij,kil,lj->", TE, HS, VtD, optimize=True))
    model = float(
        np.einsum("kli,klj,ij->", HS, HS, VtV, optimize=True)
    )
    return max(data_term - 2.0 * cross + model, 0.0)


def _exact_error(
    slice_norms_sq: np.ndarray,
    AtX: np.ndarray,
    polar: np.ndarray,
    VtV: np.ndarray,
    H: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
) -> float:
    """True ``Σk ‖Xk − Qk H Sk Vᵀ‖²`` (ablation path).

    Uses the hoisted per-slice constants: ``‖Xk‖²`` and ``Akᵀ Xk`` (so
    ``Qkᵀ Xk = (Zk Pkᵀ)ᵀ (Akᵀ Xk)`` without re-materializing ``Qk`` or
    re-reading the raw slices), with all K cross terms evaluated as batched
    matmuls.  Like the compressed criterion, the reductions accumulate in
    float64: the cross term is ``‖X‖²``-scale, and float32 rounding there
    would swamp the per-sweep change the stopping rule watches.
    """
    proj = np.swapaxes(polar, 1, 2) @ AtX @ V  # K x R x R: Qkᵀ Xk V
    HS = H[None, :, :] * W[:, None, :]  # K x R x R
    if proj.dtype != np.float64:
        proj = proj.astype(np.float64)
        HS = HS.astype(np.float64)
        VtV = VtV.astype(np.float64)
    cross = float(np.einsum("kij,kij->", proj, HS, optimize=True))
    model = float(np.einsum("kli,klj,ij->", HS, HS, VtV, optimize=True))
    return max(float(slice_norms_sq.sum()) - 2.0 * cross + model, 0.0)


def _exact_error_streaming(
    tensor: IrregularTensor,
    slice_norms_sq: np.ndarray,
    compressed: CompressedTensor,
    polar: np.ndarray,
    VtV: np.ndarray,
    H: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
) -> float:
    """:func:`_exact_error` with O(max Ik · J) working memory.

    Used when the hoisted ``Akᵀ Xk`` stack would not fit (memmap-backed
    slices, or ``Ik ≈ Rc`` where the stack rivals the data): slices are
    re-read one at a time each sweep, exactly like the pre-hoist code.
    """
    VtV64 = VtV.astype(np.float64, copy=False)
    total = 0.0
    for k, Xk in enumerate(tensor):
        if isinstance(Xk, CsrMatrix) and not isinstance(Xk.data, np.memmap):
            # This evaluator runs every sweep; caching the transpose of an
            # in-RAM CSR slice pays the counting sort once instead of per
            # sweep.  Memmap-backed slices stay ephemeral — pinning an
            # in-RAM copy is exactly what out-of-core must not do.
            Xk.transpose()
        AtXk = _slice_AtX(compressed.A[k], Xk)
        M_left = (H * W[k]).astype(np.float64, copy=False)
        proj = ((polar[k].T @ AtXk) @ V).astype(np.float64, copy=False)
        cross = float(np.sum(proj * M_left))
        model_sq = float(np.sum((M_left.T @ M_left) * VtV64))
        total += float(slice_norms_sq[k]) - 2.0 * cross + model_sq
    return max(total, 0.0)
