"""Streaming DPar2 — the paper's stated future work (Section VI).

"Future work includes devising an efficient PARAFAC2 decomposition method
in a streaming setting."  This module provides that extension on top of
DPar2's compressed representation, in the spirit of SPADE [48]:

* new slices arrive over time (new stocks listing, new songs ingested);
* each arrival is compressed **once** with a randomized SVD (stage 1) —
  the raw slice is never needed again;
* the shared stage-2 basis ``D`` is *grown* incrementally: the new slice's
  ``Ck Bk`` is split into the part explained by the current basis and an
  orthogonal residual; when the residual carries significant energy the
  basis is expanded and re-truncated to rank ``R`` via an SVD of the small
  ``(R + R_new) x (KR)`` coefficient matrix — never touching old slices;
* factor matrices are refreshed with a handful of DPar2 sweeps on the
  compressed form.  The first refresh starts from the random
  initialization of ``config.random_state``; every later one is warm: it
  starts from the previous refresh's ``H``, ``V`` and ``W``, with a row
  of ones (the cold start's value) for each slice absorbed since.  A
  refresh whose effective rank differs from the previous one's — a slice
  shorter than that rank arrived — starts cold again.  With a fixed sweep
  budget per refresh, the served model keeps improving instead of
  re-converging from random every time.  It also inherits what the early
  refreshes fit: after a first batch of only 5–10 slices, a stream can end
  a little below a cold refresh of the same state (at worst −0.004
  fitness over 40 such planted streams, +0.003 to +0.008 in the median).

Absorbing a slice costs ``O(Ik J R + (K R) R²)`` — independent of the
*rows* of all previously absorbed slices, which is the property a
streaming method needs.  A refresh is ``refresh_iterations`` sweeps of
``O(K R³)`` on the compressed state plus the ``O(Σk Ik R²)`` gather of
every ``Qk``; it forms no dense slice (``dpar2`` takes the compression
without a slice tensor).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.decomposition.dpar2 import CompressedTensor, _stage1_svds, dpar2
from repro.decomposition.initialization import InitialFactors, effective_rank
from repro.decomposition.result import Parafac2Result
from repro.decomposition.sharded import sharded_stage1
from repro.linalg.array_module import get_xp
from repro.linalg.randomized_svd import randomized_svd
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.parallel.backends import get_backend
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import check_finite_csr
from repro.tensor.irregular import IrregularTensor
from repro.util import faults
from repro.util.atomic import NumberedDirs, read_json
from repro.util.config import DecompositionConfig
from repro.util.rng import as_generator, spawn_generators
from repro.util.validation import check_matrix

_CHECKPOINT_FORMAT = 1

#: The factors a checkpointed stream's next refresh starts from, named as
#: in a published version.  Additive to format 1, like the ``refreshed``
#: key of ``state.json``: a checkpoint without them refreshes cold.
_FACTOR_NAMES = ("H", "V", "S")

#: Config fields a resume may override without changing a factor bit.
_RESUME_NEUTRAL_FIELDS = ("n_threads", "backend", "shard_backend", "max_iterations")


def _checkpoints(directory) -> NumberedDirs:
    """The ``ckpt-0000001``, … checkpoints and ``LATEST`` pointer in ``directory``."""
    return NumberedDirs(
        directory, prefix="ckpt-", marker="state.json", site="streaming.checkpoint"
    )


def _resume_conflicts(
    saved: DecompositionConfig, override: DecompositionConfig
) -> list[str]:
    """The fields where ``override`` would change a resumed stream's factors.

    Cells, not shards, fix the accumulation order, so any two sharded
    settings agree, and ``shard_cells`` is read only by sharded runs.
    """
    old, new = saved.to_dict(), override.to_dict()
    unsharded = old["shards"] is None and new["shards"] is None
    conflicts = []
    for name, value in old.items():
        if name in _RESUME_NEUTRAL_FIELDS or new[name] == value:
            continue
        if name == "shards" and None not in (value, new[name]):
            continue
        if name == "shard_cells" and unsharded:
            continue
        conflicts.append(f"{name} ({value!r} -> {new[name]!r})")
    return conflicts


def _check_stream_slice(slice_matrix, name: str, dtype):
    """Validate one incoming slice: dense arrays canonicalized, CSR kept.

    CSR slices get the same finiteness rejection dense slices do, then
    pass through with their values cast to the stream dtype — they feed
    the sparse randomized-SVD path and are never densified.
    """
    if isinstance(slice_matrix, CsrMatrix):
        return check_finite_csr(slice_matrix, name).astype(dtype)
    return check_matrix(slice_matrix, name, dtype=dtype)


def _pad_columns(array: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad ``array`` on the right to ``width`` columns (no-op if wide).

    A slice shorter than the model rank yields a stage-1 factorization of
    lower rank; padding keeps every per-slice block the same width so the
    shared-basis bookkeeping (and :meth:`StreamingDpar2.compressed`) stays
    rectangular.  The padded directions carry zero energy, so the model is
    unchanged.
    """
    missing = width - array.shape[1]
    if missing <= 0:
        return array
    return np.pad(array, ((0, 0), (0, missing)))


class StreamingDpar2:
    """Incrementally maintained DPar2 model over a growing slice stream.

    Parameters
    ----------
    config:
        Shared hyper-parameters; ``config.rank`` is the model rank ``R``.
    residual_threshold:
        Fraction of a new slice's ``Ck Bk`` energy that may be dropped
        without expanding the shared basis ``D``.  Smaller values track the
        stream more faithfully at the cost of more basis updates.
    refresh_iterations:
        ALS sweeps per model refresh (after an ``absorb`` with
        ``refresh=True``, or at the next :meth:`result`).  The first
        refresh starts from ``config.random_state``'s initialization, later
        ones from the previous refresh's factors (see the module notes);
        ``result().stats["streaming"]["warm_start"]`` says which.
    checkpoint_dir:
        When set, the stream writes atomic checkpoints (committed by
        :class:`~repro.util.atomic.NumberedDirs`, like registry versions)
        into this directory and :meth:`resume_from` can rebuild the
        stream after a crash — bitwise-identically, because the RNG's
        bit-generator state and the factors the next refresh starts from
        are saved, a refreshing call checkpoints after its refresh, and
        :meth:`absorb_many` chunks its batches by ``checkpoint_every``
        whether or not a crash happens, so the generator-spawn sequence
        never depends on where a run was interrupted.  A directory that already holds checkpoints belongs
        to another stream: constructing with it raises ``ValueError``
        (continue that stream with :meth:`resume_from` instead).
    checkpoint_every:
        Checkpoint after this many absorbed slices (0 disables automatic
        checkpoints; :meth:`checkpoint` can still be called manually).

    Example
    -------
    >>> import numpy as np
    >>> from repro.util.config import DecompositionConfig
    >>> stream = StreamingDpar2(DecompositionConfig(rank=3, random_state=0))
    >>> rng = np.random.default_rng(0)
    >>> for _ in range(4):
    ...     stream.absorb(rng.random((20, 10)))
    >>> stream.n_slices
    4
    >>> result = stream.result()
    >>> result.V.shape
    (10, 3)
    """

    def __init__(
        self,
        config: DecompositionConfig | None = None,
        *,
        residual_threshold: float = 0.05,
        refresh_iterations: int = 5,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 2,
    ) -> None:
        self.config = config or DecompositionConfig()
        if not 0.0 <= residual_threshold < 1.0:
            raise ValueError(
                f"residual_threshold must be in [0, 1), got {residual_threshold}"
            )
        if refresh_iterations < 0:
            raise ValueError(
                f"refresh_iterations must be >= 0, got {refresh_iterations}"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        self.residual_threshold = residual_threshold
        self.refresh_iterations = refresh_iterations
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        if self.checkpoint_dir is not None and _checkpoints(self.checkpoint_dir).numbers():
            # Adopting it would number after, and prune, another stream's
            # checkpoints.
            raise ValueError(
                f"{self.checkpoint_dir} already holds stream checkpoints; "
                f"continue that stream with StreamingDpar2.resume_from"
                f"({str(self.checkpoint_dir)!r}) or pass an empty directory"
            )
        self.checkpoint_every = int(checkpoint_every)
        self.keep_checkpoints = int(keep_checkpoints)
        self._rng = as_generator(self.config.random_state)
        self._dtype = self.config.numpy_dtype

        # Compressed state: Ak per slice, shared D (J x R), and the
        # coefficient matrix G = [G1; ...; GK] with Gk = coefficients of
        # (Ck Bk) in the D basis, i.e. Ck Bk ≈ D Gk  (Gk is R x R).
        self._A: list[np.ndarray] = []
        self._D: np.ndarray | None = None
        self._G: list[np.ndarray] = []
        self._n_columns: int | None = None
        self._last_result: Parafac2Result | None = None
        # The latest refresh's (H, V, S): the next refresh's warm start.
        # Unlike _last_result, no absorb clears it.  _refreshed_from is
        # what _factors was when that refresh began, so a checkpoint of the
        # refreshed state lets resume_from replay it.
        self._factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._refreshed_from: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._absorbed_since_checkpoint = 0
        #: Durability counters, surfaced in ``result().stats["streaming"]``
        #: and in :meth:`publish_to` metadata.
        self.stats: dict = {
            "checkpoints_written": 0,
            "checkpoint_resumes": 0,
            "worker_restarts": 0,
        }

    @property
    def _auto_checkpoint(self) -> bool:
        return self.checkpoint_dir is not None and self.checkpoint_every > 0

    # ------------------------------------------------------------------ #
    # stream ingestion
    # ------------------------------------------------------------------ #

    @property
    def n_slices(self) -> int:
        return len(self._A)

    @property
    def rank(self) -> int:
        return self.config.rank

    def absorb(self, slice_matrix, *, refresh: bool = True) -> None:
        """Ingest one new slice ``Xk`` into the compressed model.

        The slice is stage-1 compressed immediately; the shared basis is
        updated if the slice's right factor has enough energy outside the
        current span.  With ``refresh=False`` the factor refresh is skipped
        (batch several absorbs, then call :meth:`result`).  A
        :class:`~repro.sparse.csr.CsrMatrix` slice is sketched through the
        sparse SpMM path and never densified (numpy compute backend only).
        """
        Xk = _check_stream_slice(slice_matrix, "slice_matrix", self._dtype)
        if self._n_columns is None:
            self._n_columns = Xk.shape[1]
        elif Xk.shape[1] != self._n_columns:
            raise ValueError(
                f"slice has {Xk.shape[1]} columns, stream has {self._n_columns}"
            )
        R = min(self.config.rank, *Xk.shape)

        with trace.span("streaming.absorb", slices=1):
            stage1 = randomized_svd(
                Xk,
                R,
                oversampling=self.config.oversampling,
                power_iterations=self.config.power_iterations,
                random_state=self._rng,
                xp=self.config.compute_backend,
            )
            self._absorb_stage1(stage1)
        get_registry().counter(
            "repro_streaming_absorbs_total", "Slices absorbed into the stream."
        ).inc()
        self._absorbed_since_checkpoint += 1
        self._last_result = None
        if refresh:
            self._refresh()
        if (
            self._auto_checkpoint
            and self._absorbed_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    def _absorb_stage1(self, stage1) -> None:
        """Fold one slice's stage-1 factors into the shared-basis state.

        Blocks are padded to the stream-wide width so slices whose own rank
        ran below the model rank (rows < R) keep the bookkeeping
        rectangular.
        """
        width = min(self.config.rank, self._n_columns)
        self._A.append(_pad_columns(stage1.U, width))
        CB = _pad_columns(stage1.V * stage1.singular_values, width)  # J x width

        if self._D is None:
            # First slice seeds the basis directly.
            Q, coeff = np.linalg.qr(CB)
            self._D = Q
            self._G.append(coeff)
        else:
            self._absorb_right_factor(CB)

    def absorb_many(self, slices, *, refresh: bool = True) -> None:
        """Ingest a batch of slices, stage-1 compressing them in parallel.

        Stage 1 takes the route
        :func:`~repro.decomposition.dpar2.compress_tensor` takes: short,
        sparse, or single-worker batches run through the stacked kernels
        of :func:`~repro.linalg.kernels.batched_randomized_svd` — one
        batched LAPACK pipeline per equal-row-count bucket — while tall
        slices on several threads are distributed over
        ``config.n_threads`` workers with Algorithm-4 load balancing.
        Each slice gets a private spawned generator, so the model state is
        identical either way and independent of the worker schedule —
        though it differs from absorbing the same slices one by one, which
        draws from the stream's generator sequentially.

        With ``refresh=False`` the factor refresh is skipped (call
        :meth:`result` when done batching).

        When ``config.shards`` is set the batch is stage-1 compressed
        through the shard coordinator instead
        (:func:`~repro.decomposition.sharded.sharded_stage1`): each shard
        sketches the cells it owns and the full per-slice factors are
        gathered back into this stream's state.  The private per-slice
        generators make the result bitwise-identical to the in-process
        batched path for dense slices, and invariant to the shard count
        for all slice types; the refresh solve shards automatically
        through :func:`~repro.decomposition.dpar2.dpar2`.

        When automatic checkpointing is on (``checkpoint_dir`` +
        ``checkpoint_every``) the batch is processed in chunks of
        ``checkpoint_every`` slices with a checkpoint after each chunk —
        *always*, not only when something fails.  Chunking changes the
        generator-spawn sequence (each chunk draws once from the stream
        RNG), so making it unconditional is what keeps a crash-resumed
        run bitwise-identical to an uninterrupted one with the same
        cadence.  With ``refresh=True`` the last chunk's checkpoint is
        written after the refresh, so it records the refreshed state.
        """
        matrices = [
            _check_stream_slice(Xk, f"slices[{idx}]", self._dtype)
            for idx, Xk in enumerate(slices)
        ]
        if not matrices:
            return
        n_columns = (
            self._n_columns if self._n_columns is not None else matrices[0].shape[1]
        )
        for idx, Xk in enumerate(matrices):
            if Xk.shape[1] != n_columns:
                raise ValueError(
                    f"slices[{idx}] has {Xk.shape[1]} columns, "
                    f"stream has {n_columns}"
                )
        self._n_columns = n_columns
        self._last_result = None

        m_absorbs = get_registry().counter(
            "repro_streaming_absorbs_total", "Slices absorbed into the stream."
        )
        chunk = self.checkpoint_every if self._auto_checkpoint else len(matrices)
        for start in range(0, len(matrices), chunk):
            faults.check("streaming.absorb")
            batch = matrices[start : start + chunk]
            with trace.span("streaming.absorb", slices=len(batch)):
                self._absorb_batch(batch)
            m_absorbs.inc(len(batch))
            self._absorbed_since_checkpoint += len(batch)
            if self._auto_checkpoint and start + chunk < len(matrices):
                self.checkpoint()

        if refresh:
            self._refresh()
        if self._auto_checkpoint:
            self.checkpoint()

    def _absorb_batch(self, matrices: list) -> None:
        """Stage-1 compress one validated chunk and fold it into the state."""
        generators = spawn_generators(self._rng, len(matrices))
        if self.config.shards is not None:
            stage1 = sharded_stage1(
                matrices,
                generators,
                rank=self.config.rank,
                oversampling=self.config.oversampling,
                power_iterations=self.config.power_iterations,
                n_shards=self.config.shards,
                shard_backend=self.config.shard_backend,
                n_cells=self.config.shard_cells,
                fault_stats_out=self.stats,
            )
        else:
            stage1 = _stage1_svds(
                matrices,
                generators,
                self.config.rank,
                oversampling=self.config.oversampling,
                power_iterations=self.config.power_iterations,
                engine=get_backend(self.config.backend, self.config.n_threads),
                xp=get_xp(self.config.compute_backend),
            )
        for svd in stage1:
            self._absorb_stage1(svd)

    def _absorb_right_factor(self, CB: np.ndarray) -> None:
        """Grow/rotate the shared basis ``D`` to cover a new ``Ck Bk``."""
        D = self._D
        coeff = D.T @ CB                       # r x R, explained part
        residual = CB - D @ coeff              # J x R, orthogonal part
        res_energy = float(np.sum(residual**2))
        total_energy = float(np.sum(CB**2))

        if total_energy == 0.0 or res_energy <= self.residual_threshold * total_energy:
            self._G.append(coeff)
            return

        # Expand the basis with the residual's orthonormal directions, then
        # re-truncate everything to rank R with an SVD of the (small)
        # stacked coefficient matrix.
        Q_new, r_new = np.linalg.qr(residual)
        keep = np.abs(np.diag(r_new)) > 1e-12
        Q_new = Q_new[:, keep]
        D_ext = np.concatenate([D, Q_new], axis=1)        # J x (r + r')

        # Old coefficients padded with zero rows; the new slice's coefficients.
        extra = Q_new.shape[1]
        padded = [
            np.concatenate([Gk, np.zeros((extra, Gk.shape[1]), dtype=Gk.dtype)], axis=0)
            for Gk in self._G
        ]
        new_coeff = np.concatenate([coeff, Q_new.T @ CB], axis=0)
        padded.append(new_coeff)

        stacked = np.concatenate(padded, axis=1)          # (r+r') x (K R)
        U, _, _ = np.linalg.svd(stacked, full_matrices=False)
        R = min(self.config.rank, U.shape[1])
        rotation = U[:, :R]                               # (r+r') x R

        self._D = D_ext @ rotation                        # J x R
        self._G = [rotation.T @ Gk for Gk in padded]

    # ------------------------------------------------------------------ #
    # model access
    # ------------------------------------------------------------------ #

    def compressed(self) -> CompressedTensor:
        """Snapshot of the stream as a :class:`CompressedTensor`.

        The stage-2 structure ``D E Fᵀ`` is recovered from the maintained
        ``(D, {Gk})`` pair by one SVD of the small stacked coefficients.
        """
        if not self._A:
            raise RuntimeError("no slices absorbed yet")
        stacked = np.concatenate(self._G, axis=1)  # r x (K R)
        U, s, Vt = np.linalg.svd(stacked, full_matrices=False)
        R = min(self.config.rank, s.shape[0])
        D = self._D @ U[:, :R]
        E = s[:R]
        R_slice = self._G[0].shape[1]
        # Column block k of Vt[:R] is F(k)ᵀ.
        F_blocks = Vt[:R].reshape(R, self.n_slices, R_slice).transpose(1, 2, 0)
        # Pad A / F blocks if slice rank ran below R (tiny early slices).
        A = list(self._A)
        if F_blocks.shape[2] < R:
            pad = R - F_blocks.shape[2]
            F_blocks = np.pad(F_blocks, ((0, 0), (0, 0), (0, pad)))
            A = [np.pad(Ak, ((0, 0), (0, pad))) for Ak in A]
        return CompressedTensor(A=A, D=D, E=E, F_blocks=F_blocks, seconds=0.0)

    # ------------------------------------------------------------------ #
    # durability: atomic checkpoints + resume
    # ------------------------------------------------------------------ #

    def checkpoint(self, directory=None) -> Path:
        """Write an atomic checkpoint of the stream state; return its path.

        Committed like a registry version
        (:meth:`NumberedDirs.commit <repro.util.atomic.NumberedDirs.commit>`):
        the state is staged into a hidden directory, renamed to the next
        checkpoint number on disk, and only then does the ``LATEST``
        pointer move — a crash at any instant leaves either the previous
        checkpoint or a complete new one, never a torn read.  Numbering
        from disk means a stream resumed after a kill between rename and
        pointer replace writes past the killed run's last checkpoint.  The
        RNG's bit-generator state rides along, so a resumed stream
        continues the exact draw sequence.  So do the factors its next
        refresh starts from (``H.npy``, ``V.npy``, ``S.npy``, the names a
        published version uses; absent until the stream has refreshed):
        the latest refresh's, or — when the model is fresh, which
        ``state.json`` records as ``"refreshed": true`` — the ones that
        refresh started from, so that :meth:`resume_from` can replay it.
        """
        base = Path(directory) if directory is not None else self.checkpoint_dir
        if base is None:
            raise RuntimeError(
                "no checkpoint directory: pass one here or set checkpoint_dir"
            )
        checkpoints = _checkpoints(base)
        stats = dict(self.stats)
        stats["checkpoints_written"] = stats.get("checkpoints_written", 0) + 1
        refreshed = self._last_result is not None
        start = self._refreshed_from if refreshed else self._factors

        def write_state(staging: Path, seq: int) -> None:
            if self._D is not None:
                np.save(staging / "D.npy", self._D)
            for k, (Ak, Gk) in enumerate(zip(self._A, self._G)):
                np.save(staging / f"A_{k:06d}.npy", Ak)
                np.save(staging / f"G_{k:06d}.npy", Gk)
            if start is not None:
                for name, factor in zip(_FACTOR_NAMES, start):
                    np.save(staging / f"{name}.npy", factor)
            # state.json last: its presence marks the checkpoint complete.
            (staging / "state.json").write_text(json.dumps({
                "format": _CHECKPOINT_FORMAT,
                "seq": seq,
                "config": self.config.to_dict(),
                "residual_threshold": self.residual_threshold,
                "refresh_iterations": self.refresh_iterations,
                "checkpoint_every": self.checkpoint_every,
                "keep_checkpoints": self.keep_checkpoints,
                "n_columns": self._n_columns,
                "n_slices": self.n_slices,
                "rng_state": self._rng.bit_generator.state,
                "stats": stats,
                "refreshed": refreshed,
            }))

        t0 = time.perf_counter()
        with trace.span("streaming.checkpoint", slices=self.n_slices) as span:
            seq = checkpoints.commit(write_state)
            span.annotate(seq=seq)
        registry = get_registry()
        registry.counter(
            "repro_streaming_checkpoints_total", "Stream checkpoints written."
        ).inc()
        registry.histogram(
            "repro_streaming_checkpoint_seconds",
            "Wall time to stage, rename, and point one checkpoint.",
        ).observe(time.perf_counter() - t0)
        self.stats["checkpoints_written"] = stats["checkpoints_written"]
        self._absorbed_since_checkpoint = 0
        checkpoints.prune(self.keep_checkpoints)
        return checkpoints.path(seq)

    @classmethod
    def resume_from(
        cls, directory, *, config: DecompositionConfig | None = None
    ) -> "StreamingDpar2":
        """Rebuild a stream from the newest complete checkpoint in ``directory``.

        The restored stream continues bitwise-identically: compressed
        state, column count, the RNG bit-generator state and the factors
        of its next refresh come back exactly as checkpointed.  When the
        checkpointed model was fresh, the refresh that produced it is
        replayed here, so the resumed stream serves the same model and
        warm-starts its next refresh from the same bytes as the
        uninterrupted run.  A checkpoint without factor files (written
        before the first refresh, or by an earlier build) refreshes cold.
        The stream keeps checkpointing into ``directory``.
        ``stats["checkpoint_resumes"]`` is incremented; it propagates to
        published model metadata and ``/healthz``.

        ``config`` may replace the saved config only in knobs that leave
        every factor bit unchanged: ``n_threads``, ``backend``,
        ``shard_backend``, ``max_iterations`` (a stream sweeps
        ``refresh_iterations``), the shard count between two sharded
        settings, and ``shard_cells`` while unsharded.  Any other
        difference raises one ``ValueError`` naming every such field,
        before any array is read.
        """
        base = Path(directory)
        checkpoints = _checkpoints(base)
        seq = checkpoints.latest()
        if seq is None:
            raise FileNotFoundError(f"no complete checkpoint under {base}")
        path = checkpoints.path(seq)
        with trace.span("streaming.resume", seq=seq):
            state = read_json(path / "state.json")
            saved = DecompositionConfig.from_dict(state["config"])
            if config is not None:
                conflicts = _resume_conflicts(saved, config)
                if conflicts:
                    raise ValueError(
                        f"the config passed to resume_from changes what the "
                        f"checkpointed stream computes: {', '.join(conflicts)}; "
                        f"only {', '.join(_RESUME_NEUTRAL_FIELDS)}, the shard "
                        f"count between sharded settings and shard_cells while "
                        f"unsharded may differ from the checkpoint's"
                    )
            stream = cls(
                config if config is not None else saved,
                residual_threshold=state["residual_threshold"],
                refresh_iterations=state["refresh_iterations"],
                checkpoint_every=state.get("checkpoint_every", 0),
                keep_checkpoints=state.get("keep_checkpoints", 2),
            )
            # Set after construction: the directory holds this stream's own
            # checkpoints, which the constructor would refuse.
            stream.checkpoint_dir = base
            stream._n_columns = state["n_columns"]
            stream._rng.bit_generator.state = state["rng_state"]
            n_slices = int(state["n_slices"])
            stream._A = [np.load(path / f"A_{k:06d}.npy") for k in range(n_slices)]
            stream._G = [np.load(path / f"G_{k:06d}.npy") for k in range(n_slices)]
            if (path / "D.npy").exists():
                stream._D = np.load(path / "D.npy")
            if (path / "H.npy").exists():
                stream._factors = tuple(
                    np.load(path / f"{name}.npy") for name in _FACTOR_NAMES
                )
        stream.stats = dict(state.get("stats", {}))
        stream.stats["checkpoint_resumes"] = (
            stream.stats.get("checkpoint_resumes", 0) + 1
        )
        get_registry().counter(
            "repro_streaming_resumes_total",
            "Streams rebuilt from an on-disk checkpoint.",
        ).inc()
        if state.get("refreshed"):
            stream._refresh()
        return stream

    def result(self) -> Parafac2Result:
        """The current PARAFAC2 model (refreshing factors if needed).

        A refresh of the state the latest automatic checkpoint holds is
        checkpointed too: a crash would otherwise lose it, and with it the
        next refresh's start.
        """
        if self._last_result is None:
            self._refresh()
            if self._auto_checkpoint and self._absorbed_since_checkpoint == 0:
                self.checkpoint()
        self._last_result.stats["streaming"].update(
            {
                name: self.stats.get(name, 0)
                for name in ("checkpoints_written", "checkpoint_resumes", "worker_restarts")
            }
        )
        return self._last_result

    def _refresh(self) -> None:
        with trace.span("streaming.refresh", slices=self.n_slices) as span:
            compressed = self.compressed()
            init = self._warm_start(compressed)
            span.annotate(warm_start=init is not None)
            config = self.config.with_(
                max_iterations=max(self.refresh_iterations, 1)
            )
            result = dpar2(None, config, compressed=compressed, init=init)
        result.stats["streaming"] = {"warm_start": init is not None}
        self._last_result = result
        self._refreshed_from = self._factors
        self._factors = (result.H, result.V, result.S)

    def _warm_start(self, compressed: CompressedTensor) -> InitialFactors | None:
        """The last refresh's factors plus a row of ones per slice since.

        ``None`` — a cold start — before the first refresh, and when this
        refresh's effective rank differs from theirs (a slice shorter than
        their rank has arrived since).
        """
        if self._factors is None:
            return None
        H, V, S = self._factors
        R = effective_rank(
            self.config.rank, compressed.n_columns, compressed.row_counts
        )
        if H.shape[0] != R:
            return None
        new_rows = np.ones((compressed.n_slices - S.shape[0], R), dtype=S.dtype)
        return InitialFactors(H=H, V=V, W=np.concatenate([S, new_rows]))

    def fitness(self, tensor: IrregularTensor) -> float:
        """Fitness of the current model against externally held raw slices."""
        return self.result().fitness(tensor)

    def publish_to(self, store, *, extra: dict | None = None) -> int:
        """Publish the current model as a new registry version.

        ``store`` is a :class:`~repro.serve.store.FactorStore`.  The model
        is refreshed if needed (see :meth:`result`) and published with the
        stream's config, so a serving process polling the registry picks up
        online updates as immutable, hot-swappable snapshots — absorb new
        slices, publish, and the query layer follows without restarts.
        Returns the new version number.
        """
        meta = {
            "source": "streaming",
            "n_slices": self.n_slices,
            "checkpoint_resumes": self.stats.get("checkpoint_resumes", 0),
            "worker_restarts": self.stats.get("worker_restarts", 0),
        }
        meta.update(extra or {})
        return store.publish(self.result(), config=self.config, extra=meta)
