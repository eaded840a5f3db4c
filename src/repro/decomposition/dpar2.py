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

This module owns the input side — the stage-1 router
(:func:`_stage1_svds`), the stage-2 helper and :func:`compress_tensor` —
and the public :func:`dpar2` entry point.  Steps 2 and 3 have one
implementation, the cell coordinator of
:mod:`repro.decomposition.sharded`, which :func:`dpar2` runs on a one-cell
plan in process unless ``config.shards`` spreads the cells over workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.decomposition.initialization import InitialFactors, effective_rank
from repro.decomposition.result import Parafac2Result
from repro.linalg.array_module import ArrayModule, get_xp
from repro.linalg.kernels import batched_randomized_svd
from repro.linalg.randomized_svd import RandomizedSVDResult, randomized_svd
from repro.obs.metrics import get_registry
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.sparse.csr import CsrMatrix
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig
from repro.util.rng import as_generator, spawn_generators

#: Above this slice height the per-slice (thread-parallel) stage-1 path
#: beats single-stream batching when multiple workers are available: the
#: LAPACK calls are then large enough that dispatch overhead no longer
#: dominates, while worker threads still share the slices zero-copy.  The
#: final ``Qk`` materialization stops stacking at the same height.
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
    use_greedy_partition: bool = True,
) -> list[RandomizedSVDResult]:
    """Stage 1: one randomized SVD per slice, each with its own generator.

    The single stage-1 router, shared by :func:`compress_tensor` and
    :class:`~repro.decomposition.streaming.StreamingDpar2`.  ``slices`` is
    an :class:`IrregularTensor` or a list of dense/CSR slices.  Both routes
    — the stacked kernel
    (:func:`~repro.linalg.kernels.batched_randomized_svd`) and per-slice
    dispatch over ``engine``'s workers — give bitwise-identical results on
    dense slices, so the choice is purely about speed, and it is made from
    the input alone; stage 1 batches when it cannot lose:

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
        batched = True
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
    compute_backend: "str | ArrayModule" = "numpy",
) -> CompressedTensor:
    """Two-stage randomized-SVD compression (Algorithm 3, lines 2–6).

    Stage 1 (:func:`_stage1_svds`) runs one randomized SVD per slice.  For
    in-RAM tensors the slices are grouped into equal-row-count buckets and
    the whole Algorithm-1 pipeline runs as stacked 3-D LAPACK calls
    (:func:`~repro.linalg.kernels.batched_randomized_svd`) — identical
    results, no per-slice Python dispatch.  Otherwise (tall slices on
    several workers, memory-mapped slices, or dense slices with
    ``use_greedy_partition=False``) each slice is dispatched over the
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
    R = effective_rank(rank, tensor.n_columns, tensor.row_counts)
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
        use_greedy_partition=use_greedy_partition,
    )

    # Stage 2: M = ∥k (Ck Bk), randomized SVD at rank R.
    D, E, F_blocks, seconds = _stage2(
        [(svd.singular_values, svd.V) for svd in stage1],
        tensor.n_columns,
        R,
        dtype=tensor.dtype,
        oversampling=oversampling,
        power_iterations=power_iterations,
        random_state=random_state,
        xp=xp,
        start=start,
    )
    return CompressedTensor(
        A=[svd.U for svd in stage1], D=D, E=E, F_blocks=F_blocks, seconds=seconds
    )


def _stage2(
    right_factors,
    n_columns: int,
    rank: int,
    *,
    dtype,
    oversampling: int,
    power_iterations: int,
    random_state,
    xp: ArrayModule,
    start: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Stage 2 of the compression on the gathered ``(σk, Ck)`` pairs.

    The one stage-2 helper, shared by :func:`compress_tensor` and the
    sharded coordinator: assembles ``M = ∥k (Ck Bk) ∈ R^{J×KR}`` — the K
    products written straight into one preallocated array — and runs its
    rank-``R`` randomized SVD ``M ≈ D E Fᵀ``.  Returns ``D``, ``E``, the
    ``(K, R, R)`` stack of ``F(k)`` blocks and the seconds since
    ``start`` (when stage 1 began), and records the compression in the
    ``repro_decompose_compress*`` metrics.
    """
    K = len(right_factors)
    M = np.empty((n_columns, K * rank), dtype=dtype)
    for k, (sv, Ck) in enumerate(right_factors):
        np.multiply(Ck, sv, out=M[:, k * rank : (k + 1) * rank])
    stage2 = randomized_svd(
        M,
        rank,
        oversampling=oversampling,
        power_iterations=power_iterations,
        random_state=as_generator(random_state),
        xp=xp,
    )
    # F is KR x R; its k-th vertical block (R x R) satisfies Bk Ckᵀ ≈ F(k) E Dᵀ.
    F_blocks = stage2.V.reshape(K, rank, stage2.V.shape[1])

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
    return stage2.U, stage2.singular_values, F_blocks, seconds


def dpar2(
    tensor: IrregularTensor | None,
    config: DecompositionConfig | None = None,
    *,
    compressed: CompressedTensor | None = None,
    init: InitialFactors | None = None,
    use_greedy_partition: bool = True,
    exact_convergence: bool = False,
    **overrides,
) -> Parafac2Result:
    """Fit PARAFAC2 with DPar2 (Algorithm 3).

    Parameters
    ----------
    tensor:
        The irregular input ``{Xk}``, or ``None`` when ``compressed`` is
        given: the sweeps never read the slices, so K, the row counts and
        J then come from the compression (``row_counts``, ``n_columns``),
        as does the working dtype.  A tensor passed together with
        ``compressed`` must match its slice count, row counts and J, or
        ``ValueError`` names the first mismatch before any work.
    config:
        Shared hyper-parameters; keyword overrides apply on top.
    compressed:
        A precomputed :func:`compress_tensor` result, letting callers reuse
        one compression across ranks/sweeps (its rank must not be below the
        target rank).
    init:
        Starting ``H`` (R×R), ``V`` (J×R) and ``W`` (K×R) at the run's
        effective rank ``R = min(rank, J, min Ik)``, instead of the
        random initialization of ``config.random_state``.  A streaming
        refresh warm-starts from its previous model this way.  Wrong
        shapes or non-finite entries raise ``ValueError`` before any work.
    use_greedy_partition:
        Algorithm-4 load balancing for stage-1 compression (ablation knob).
    exact_convergence:
        When True, evaluate the true reconstruction error against the raw
        slices each sweep instead of the compressed criterion — ablation
        A4 of :mod:`repro.experiments.ablations`.  Each cell evaluates its
        own slices, so it runs sharded too.  It needs the slices: with
        ``tensor=None`` it raises ``ValueError``.

    Returns
    -------
    Parafac2Result
        ``preprocess_seconds`` is the two-stage compression time,
        ``preprocessed_bytes`` the size of ``{Ak}, D, E, F`` (Fig. 9(a) and
        Fig. 10 inputs).

    Notes
    -----
    **One sweep loop.**  Every run goes through the cell coordinator of
    :mod:`repro.decomposition.sharded`.  Without ``config.shards`` stage 1
    and stage 2 run here in :func:`compress_tensor`, and the sweeps run on
    a one-cell plan over the in-process serial runner — no
    ``stats["sharding"]`` block and no ``repro_shard_*`` metrics.  With
    ``config.shards`` the cells spread over worker shards (see
    ``docs/distributed.md``).

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
    compressed tensor's subspaces with the starting factors (``init`` or
    the random initialization) — useful for timing experiments.

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
    if config.shards is not None and not use_greedy_partition:
        raise ValueError(
            "use_greedy_partition=False is the Algorithm-4 ablation of "
            "the single-process stage 1; the shard planner always balances "
            "greedily — unset config.shards to run the ablation"
        )
    # Imported lazily: sharded.py imports this module's stage-1/2 helpers.
    from repro.decomposition.sharded import sharded_dpar2

    return sharded_dpar2(
        tensor,
        config,
        compressed=compressed,
        init=init,
        use_greedy_partition=use_greedy_partition,
        exact_convergence=exact_convergence,
    )
