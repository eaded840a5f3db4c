"""Batched query kernels over one fitted PARAFAC2 model snapshot.

The paper's Table 3 application ranks similar stocks by comparing the
learned factors; :class:`QueryEngine` generalizes that to a serving-shaped
API over a frozen :class:`~repro.decomposition.result.Parafac2Result`:

* **Similar entities** — top-``k`` cosine ranking over the normalized rows
  of a factor matrix, in either mode (``"slice"``: rows of ``S``, one per
  slice/stock; ``"feature"``: rows of ``V``, one per column/feature).  A
  batch of queries is one contraction against the cached normalized
  factors, not one per request.
* **Slice reconstruction** — ``X̂k = Qk H Sk Vᵀ`` (whole or row subset).
* **Fold-in** — project an *unseen* slice onto the frozen model: stage-1
  sketch via the existing randomized-SVD kernels, then a few alternating
  ``(Qk, Sk)`` updates against frozen ``H``/``V`` — ``H`` and ``V`` are
  never touched, so serving stays read-only.  With ``H`` and ``V`` frozen,
  Lemma 3's normal matrix is a constant of the engine, factored once; a
  sweep over a slice of at least ``R`` rows costs ``O(R³)``.
* **Anomaly score of an unseen slice** — its fold-in residual, relative
  to the slice's norm.  Training slices are scored by the one scorer,
  :func:`repro.analysis.anomaly.slice_anomaly_scores`, which needs the
  training tensor the engine does not hold.

Determinism contract: on the numpy backend every query kernel is invariant
to batch composition — the similarity scores are computed with a
non-optimized ``einsum`` (fixed per-element reduction order, independent of
how many queries share the call) and the fold-in sketch goes through
:func:`~repro.linalg.kernels.batched_randomized_svd`, which is bitwise
identical to per-slice execution.  The service layer's micro-batching
therefore returns bit-for-bit the same answers as single-request execution.

Ranking is one host routine, :meth:`QueryEngine._top_k`, behind
``similar``, ``similar_to`` and the fold-in neighbours.  Its answer is
exactly the first ``k`` columns of a stable argsort of the negated scores:
descending score, exact ties to the lower index, NaN last.  Rows of up to
``_FULL_SORT_MAX_N`` entities are sorted whole; longer rows are partitioned
at their ``k``-th best score, and only the entities scoring at least that
are stable-sorted (see :func:`_select_smallest`).  Each row's answer
depends on that row alone, so ranking keeps the batch-invariance contract.

Device backends (``compute_backend="torch"|"torch-cuda"|"cupy"``) keep the
same shape of guarantee *per backend*: the factors upload once at engine
construction, each query's scores come off one device contraction whose
per-row reduction doesn't depend on batch size, and ranking (the same
``_top_k``, lower-index tiebreak) always runs on the host over the
downloaded scores — so a backend answers itself identically however
requests are batched, while numpy remains the bitwise reference.
Host↔device traffic is counted (:meth:`QueryEngine.transfer_stats`) and
surfaced by the service's ``/healthz``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decomposition.result import Parafac2Result
from repro.linalg.array_module import ArrayModule, get_xp
from repro.linalg.kernels import batched_randomized_svd
from repro.linalg.pinv import solve_gram
from repro.linalg.truncated_svd import polar
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import check_finite_csr, slice_squared_norm
from repro.util.config import DecompositionConfig
from repro.util.validation import check_matrix

#: Factor-row spaces a similarity query can rank over.
SIMILARITY_MODES = ("slice", "feature")

#: Longest score row :meth:`QueryEngine._top_k` sorts whole; longer rows
#: take the partial selection of :func:`_select_smallest`.  Timed at k = 10
#: on a 2-vCPU VM (numpy 2.4, BLAS pinned to one thread), each call on
#: fresh score rows (re-sorting one row trains the branch predictor and
#: flatters the sort).  A 16-row batch selects faster from n ~ 96: 74 us
#: against 208 us to sort at n = 256, 139 us against 1074 us at n = 1000.
#: A single row sorts faster up to n ~ 400: 16 us against 23 us at
#: n = 256, but 56 us against 20 us at n = 1000.  Weighted like the
#: serving mix (80% single rows, 10% 16-row batches) the two crossed
#: between n = 192 and n = 256 in two runs.  So the table2 models
#: (n = 40-90) keep the sort and the 1000-slice models select.
_FULL_SORT_MAX_N = 256


def _as_float64(matrix) -> np.ndarray:
    """C-contiguous float64 working view of a factor matrix.

    Factors may arrive F-ordered (ALS solves return transposes) or
    memmap-backed (registry loads); canonicalizing the layout here makes
    every downstream kernel iterate identically, so an engine over a saved
    model answers bit-for-bit like one over the in-RAM original.  A factor
    that is *already* C-contiguous float64 — the registry's usual memmap
    payload — is returned as-is: the kernels only read it, and skipping the
    copy keeps engine construction from faulting every factor page into
    fresh RAM.  (float32 models still get float64 working copies; that
    upcast is part of the answer contract.)
    """
    if (
        isinstance(matrix, np.ndarray)
        and matrix.dtype == np.float64
        and matrix.flags["C_CONTIGUOUS"]
    ):
        return matrix
    return np.ascontiguousarray(matrix, dtype=np.float64)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; zero rows stay zero (they match nothing)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms > 0.0, norms, 1.0)


def _select_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, axis=1, kind="stable")[:, :k]`` without the full sort.

    Each row is partitioned at its ``k``-th smallest value.  Every column at
    or below that threshold stays a candidate, ties across the ``k``-th
    position included, in ascending column order; one ``lexsort`` keyed on
    (row, value) then stable-sorts only the candidates, so the cut and the
    lower-index tiebreak fall exactly where the full sort puts them.  A NaN
    threshold (fewer than ``k`` non-NaN values in a row) matches no column;
    the batch then takes the full sort, which orders NaN last.  ``k`` must
    be in ``[1, n]``.
    """
    threshold = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(values <= threshold)
    counts = np.bincount(rows, minlength=values.shape[0])
    if counts.min(initial=k) < k:
        return np.argsort(values, axis=1, kind="stable")[:, :k]
    order = np.lexsort((values[rows, cols], rows))
    first = np.cumsum(counts) - counts
    return cols[order[first[:, None] + np.arange(k)]]


@dataclass(frozen=True)
class FoldInResult:
    """Projection of one unseen slice onto a frozen model.

    ``weights`` is the slice's new ``S``-row (length ``R``) — its coordinates
    in the model's latent space, directly comparable to the training slices'
    rows of ``S``.  ``residual_squared``/``norm_squared`` give the
    reconstruction quality, and ``Q`` (when requested) the slice's
    column-orthogonal temporal factor.
    """

    weights: np.ndarray
    residual_squared: float
    norm_squared: float
    Q: np.ndarray | None = None

    @property
    def relative_residual(self) -> float:
        """``‖X − X̂‖ / ‖X‖`` — the anomaly score of the slice."""
        if self.norm_squared == 0.0:
            return 0.0
        return float(np.sqrt(self.residual_squared / self.norm_squared))


class QueryEngine:
    """Derived, cached query state over one immutable model snapshot.

    Construction precomputes everything queries share — row-normalized
    factor matrices per mode, the float64 ``H``/``V`` working copies,
    ``VᵀV``, and Lemma 3's normal matrix ``(HᵀH) ∗ (VᵀV)`` with its
    inverse — so a similarity request is one contraction plus top-``k``
    selection, and a fold-in sweep over a slice of at least ``R`` rows is
    one ``R×R`` SVD, a few ``R×R`` products and one product with the
    cached inverse.  The inverse comes from a Cholesky factor, or is the
    pseudoinverse when that fails (a rank-deficient model); the fallback
    counts once per engine in ``repro_decompose_pinv_fallbacks_total``.
    Engines are cheap to hold per registry version (the service keeps an
    LRU of them) and safe to share across concurrent requests: all state
    is read-only after ``__init__``.

    Parameters
    ----------
    result:
        The fitted model (typically a memmap-backed registry load).
    config:
        Optional training config; supplies the fold-in sketch parameters
        (oversampling, power iterations) so projections use the same
        Algorithm-1 settings the model was trained with.
    version:
        Registry version tag echoed in :meth:`metadata` (informational).
    fold_in_sweeps:
        Alternating ``(Qk, Sk)`` refinement sweeps per fold-in.
    compute_backend:
        Array library for the bulk kernels.  ``"numpy"`` (default) is the
        bitwise-stable path.  Device backends upload the cached factors
        once here and keep similarity, reconstruction and fold-in
        contractions device-resident; answers stay batch-invariant and
        deterministically tie-broken per backend (ranking runs on the host
        over downloaded scores), and host↔device traffic is tallied in
        :meth:`transfer_stats`.
    """

    def __init__(
        self,
        result: Parafac2Result,
        *,
        config: DecompositionConfig | None = None,
        version: int | None = None,
        fold_in_sweeps: int = 8,
        compute_backend: "str | ArrayModule" = "numpy",
    ) -> None:
        if fold_in_sweeps < 1:
            raise ValueError(f"fold_in_sweeps must be >= 1, got {fold_in_sweeps}")
        self.result = result
        self.config = config
        self.version = version
        self.fold_in_sweeps = fold_in_sweeps
        self._xp = get_xp(compute_backend)
        self._oversampling = config.oversampling if config is not None else 5
        self._power_iterations = config.power_iterations if config is not None else 1

        # Cached derived state (read-only after construction).
        self._unit = {
            "slice": _normalize_rows(_as_float64(result.S)),
            "feature": _normalize_rows(_as_float64(result.V)),
        }
        self._H64 = _as_float64(result.H)
        self._V64 = _as_float64(result.V)
        self._VtV = self._V64.T @ self._V64
        # Lemma 3's normal matrix with H and V frozen: every fold-in sweep
        # of a slice with at least R rows solves against it (QkᵀQk = I),
        # so it is factored here, once per engine.
        self._normal = (self._H64.T @ self._H64) * self._VtV
        self._normal_inv = solve_gram(self._normal, np.eye(self.rank))

        # Host<->device traffic tally (mutated under queries; plain int
        # bumps, so worst case under races is an undercounted stat, never a
        # wrong answer).
        self._transfers = {
            "h2d_calls": 0, "h2d_bytes": 0, "d2h_calls": 0, "d2h_bytes": 0,
        }
        if not self._xp.is_numpy:
            # One-time residency: every query-shared factor goes up here,
            # so steady-state requests only move query rows and scores.
            self._unit_native = {
                mode: self._up(unit) for mode, unit in self._unit.items()
            }
            self._H64_native = self._up(self._H64)
            self._Ht_native = self._xp.transpose(self._H64_native)
            self._V64_native = self._up(self._V64)
            self._Vt_native = self._xp.transpose(self._V64_native)
            self._VtV_native = self._up(self._VtV)

    # ------------------------------------------------------------------ #
    # host<->device staging
    # ------------------------------------------------------------------ #

    def _up(self, array, dtype=None):
        """Upload a host array, counting the transfer.

        CUDA uploads stage through the module's pinned-buffer path
        (``asarray`` pins and copies ``non_blocking``), so consecutive
        uploads overlap on the stream.
        """
        array = np.ascontiguousarray(array, dtype=dtype)
        self._transfers["h2d_calls"] += 1
        self._transfers["h2d_bytes"] += array.nbytes
        return self._xp.asarray(array)

    def _down(self, native) -> np.ndarray:
        """Download a device array, counting the transfer."""
        out = self._xp.to_numpy(native)
        self._transfers["d2h_calls"] += 1
        self._transfers["d2h_bytes"] += out.nbytes
        return out

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #

    @property
    def compute_backend(self) -> str:
        """Resolved backend name the engine executes on (``xp.name``)."""
        return self._xp.name

    def transfer_stats(self) -> dict:
        """Host↔device traffic since construction (all zero on numpy).

        Keys: ``h2d_calls``/``h2d_bytes`` (uploads — one-time factor
        residency plus per-query row batches) and ``d2h_calls``/
        ``d2h_bytes`` (downloads — score matrices and result factors).
        The service's ``/healthz`` aggregates these across live engines.
        """
        return dict(self._transfers)

    @property
    def rank(self) -> int:
        """Decomposition rank ``R`` of the served model."""
        return self.result.rank

    @property
    def n_slices(self) -> int:
        """Number of slices ``K`` the model was fitted on."""
        return self.result.n_slices

    @property
    def n_columns(self) -> int:
        """Shared column count ``J`` — required width of fold-in slices."""
        return int(self.result.V.shape[0])

    def mode_size(self, mode: str) -> int:
        """Number of rankable entities in ``mode``."""
        return self._unit_rows(mode).shape[0]

    def metadata(self) -> dict:
        """JSON-safe description of the snapshot (the ``/v1/model`` body)."""
        return {
            "version": self.version,
            "method": self.result.method,
            "rank": self.rank,
            "n_slices": self.n_slices,
            "n_columns": self.n_columns,
            "dtype": np.dtype(self.result.H.dtype).name,
            "n_iterations": self.result.n_iterations,
            "converged": bool(self.result.converged),
            "modes": {mode: self.mode_size(mode) for mode in SIMILARITY_MODES},
        }

    def _unit_rows(self, mode: str) -> np.ndarray:
        try:
            return self._unit[mode]
        except KeyError:
            raise ValueError(
                f"unknown similarity mode {mode!r}; "
                f"available: {', '.join(SIMILARITY_MODES)}"
            ) from None

    # ------------------------------------------------------------------ #
    # similar-entity ranking (Table 3 generalized)
    # ------------------------------------------------------------------ #

    def similar(
        self, indices, k: int = 10, *, mode: str = "slice"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` most similar entities for a *batch* of query indices.

        Returns ``(neighbors, scores)`` of shape ``(B, k_eff)`` where
        ``k_eff = min(k, n - 1)`` — the query entity itself is excluded.
        Scores are cosine similarities of the normalized factor rows,
        descending; ties break on the lower index, so rankings are fully
        deterministic.  The whole batch is one contraction against the
        cached normalized factors.
        """
        unit = self._unit_rows(mode)
        n = unit.shape[0]
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.ndim != 1:
            raise ValueError(f"indices must be a 1-D batch, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(
                f"query index out of range [0, {n}) for mode {mode!r}: {idx}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # One batched contraction for all B queries.  Non-optimized einsum
        # reduces each output element over r in a fixed order regardless of
        # B, which is what makes micro-batched answers bitwise identical to
        # single-request ones (a BLAS gemm would not guarantee that).
        if self._xp.is_numpy:
            scores = np.einsum("nr,br->bn", unit, unit[idx])
        else:
            scores = self._device_scores(unit[idx], mode)
        scores[np.arange(idx.size), idx] = -np.inf  # exclude self
        return self._top_k(scores, min(k, n - 1))

    def _device_scores(self, queries: np.ndarray, mode: str) -> np.ndarray:
        """Cosine scores on the device, batch-invariantly.

        The B query rows are gathered on the host and uploaded together,
        but each row's scores come from its *own* ``unit @ q_b`` matvec —
        an identical kernel call whatever B is.  A single ``(n, R) @
        (R, B)`` gemm would be faster but may pick B-dependent blocked
        kernels whose reduction bits differ between a singleton and a
        micro-batch; per-query matvecs keep the backend's answers
        batch-invariant, which the service's batching contract requires.
        Ranking happens on the host over the downloaded scores.
        """
        xp = self._xp
        if queries.shape[0] == 0:  # empty batch, nothing to move
            return np.empty((0, self._unit[mode].shape[0]))
        q = self._up(queries)
        rows = [
            xp.matmul(self._unit_native[mode], q[b])
            for b in range(queries.shape[0])
        ]
        return self._down(xp.stack(rows))

    def similar_to(
        self, vectors, k: int = 10, *, mode: str = "slice"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` entities most similar to external latent ``vectors``.

        ``vectors`` is ``(B, R)`` (or a single length-``R`` vector) in the
        model's latent row space — e.g. :class:`FoldInResult.weights` for
        ``mode="slice"``.  No self-exclusion (the query is not an entity).
        Non-finite vectors are rejected, as :meth:`fold_in` rejects
        non-finite slices.
        """
        unit = self._unit_rows(mode)
        q = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if q.ndim != 2 or q.shape[1] != self.rank:
            raise ValueError(
                f"vectors must be (B, {self.rank}), got {np.shape(vectors)}"
            )
        if not np.all(np.isfinite(q)):
            raise ValueError("vectors contains NaN or Inf entries")
        if self._xp.is_numpy:
            scores = np.einsum("nr,br->bn", unit, _normalize_rows(q))
        else:
            scores = self._device_scores(_normalize_rows(q), mode)
        return self._top_k(scores, min(k, unit.shape[0]))

    @staticmethod
    def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic per-row top-``k``: descending score, index tiebreak.

        Bit for bit ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``
        and the scores it picks: descending score, exact ties to the lower
        index, NaN last.  Rows of up to ``_FULL_SORT_MAX_N`` scores are
        sorted whole, which is cheaper there; longer rows keep only the
        entities scoring at least their ``k``-th best score and sort those
        (:func:`_select_smallest`).
        """
        n = scores.shape[1]
        k = max(min(k, n), 0)
        negated = -scores
        if n <= _FULL_SORT_MAX_N or k == 0:
            order = np.argsort(negated, axis=1, kind="stable")[:, :k]
        else:
            order = _select_smallest(negated, k)
        return order.astype(np.int64), np.take_along_axis(scores, order, axis=1)

    # ------------------------------------------------------------------ #
    # reconstruction
    # ------------------------------------------------------------------ #

    def reconstruct(self, k: int, rows=None) -> np.ndarray:
        """``X̂k = Qk H Sk Vᵀ`` for slice ``k``, optionally a row subset.

        ``rows`` is a sequence of row indices into slice ``k``; the
        contraction touches only those rows of the (memmap-backed) ``Qk``,
        so serving a few rows of a tall slice reads a few pages, not the
        whole factor.
        """
        if not 0 <= k < self.n_slices:
            raise IndexError(f"slice {k} out of range [0, {self.n_slices})")
        Qk = self.result.Q[k]
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size and (rows.min() < 0 or rows.max() >= Qk.shape[0]):
                raise IndexError(
                    f"row index out of range [0, {Qk.shape[0]}) for slice {k}"
                )
            Qk = np.asarray(Qk)[rows]
        xp = self._xp
        middle = np.asarray(Qk) @ (self.result.H * self.result.S[k])
        if xp.is_numpy:
            return xp.to_numpy(
                xp.matmul(xp.asarray(middle), xp.asarray(self.result.V.T))
            )
        # Device: only the Ik×R panel moves up; Vᵀ is already resident.
        return self._down(
            xp.matmul(self._up(middle, dtype=np.float64), self._Vt_native)
        )

    # ------------------------------------------------------------------ #
    # fold-in of unseen slices
    # ------------------------------------------------------------------ #

    def fold_in(
        self, slice_matrix, *, seed: int = 0, sweeps: int | None = None,
        return_q: bool = False,
    ) -> FoldInResult:
        """Project one unseen slice onto the frozen model (see class docs)."""
        return self.fold_in_many(
            [slice_matrix], seeds=[seed], sweeps=sweeps, return_q=return_q
        )[0]

    def fold_in_many(
        self, slices, *, seeds=None, sweeps: int | None = None,
        return_q: bool = False,
    ) -> list[FoldInResult]:
        """Fold in a batch of unseen slices.

        The expensive part — the stage-1 randomized-SVD sketch, ``O(I J R)``
        per slice — runs through
        :func:`~repro.linalg.kernels.batched_randomized_svd`, which stacks
        equal-row-count slices into one batched LAPACK pipeline and is
        bitwise identical to per-slice execution.  Each slice draws its
        Gaussian sketch from its *own* seed (default 0), so a request's
        answer never depends on which other requests shared the batch.  The
        post-sketch refinement is ``O(J R² + R³)`` per slice and runs
        per-item for the same reason.
        """
        mats = []
        for i, Xk in enumerate(slices):
            if isinstance(Xk, CsrMatrix):
                Xk = check_finite_csr(Xk, f"slices[{i}]").astype(np.float64)
            else:
                Xk = check_matrix(Xk, f"slices[{i}]", dtype=np.float64)
            if Xk.shape[1] != self.n_columns:
                raise ValueError(
                    f"slices[{i}] has {Xk.shape[1]} columns; "
                    f"model has J={self.n_columns}"
                )
            mats.append(Xk)
        if not mats:
            return []
        if seeds is None:
            seeds = [0] * len(mats)
        if len(seeds) != len(mats):
            raise ValueError(
                f"slices and seeds must align: {len(mats)} vs {len(seeds)}"
            )
        sweeps = self.fold_in_sweeps if sweeps is None else sweeps
        if sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {sweeps}")

        stage1 = batched_randomized_svd(
            mats,
            self.rank,
            oversampling=self._oversampling,
            power_iterations=self._power_iterations,
            generators=[np.random.default_rng(int(s)) for s in seeds],
            xp=self._xp if not self._xp.is_numpy else None,
        )
        refine = (
            self._refine_fold_in if self._xp.is_numpy
            else self._refine_fold_in_device
        )
        return [
            refine(Xk, svd, sweeps, return_q)
            for Xk, svd in zip(mats, stage1)
        ]

    def _refine_fold_in(self, Xk, svd, sweeps: int, return_q: bool) -> FoldInResult:
        """Alternating ``(Qk, Sk)`` updates on the compressed slice.

        With ``Xk ≈ A G`` from the sketch (``A`` column-orthonormal,
        ``G = Bk Ckᵀ`` — and ``Aᵀ Xk = G`` exactly, by construction of the
        truncated SVD), every update works on ``R×R`` quantities:

        * Procrustes step: ``Qk = A Zk Pkᵀ`` with
          ``Zk Σ Pkᵀ = svd(G V Sk Hᵀ)`` — the same
          :func:`~repro.linalg.truncated_svd.polar` step the DPar2 sweep
          takes, restricted to one slice with ``H, V`` frozen.
        * Weight step: the Lemma-3 normal equations
          ``(Hᵀ QkᵀQk H ∘ VᵀV) w = g``, ``g = diag(Hᵀ (Qkᵀ Xk) V)``, with
          ``Qkᵀ Xk = (Zk Pkᵀ)ᵀ G``.  When the sketch keeps ``R``
          components, ``Zk Pkᵀ`` is square and orthogonal, so
          ``QkᵀQk = I`` and the system is the engine's cached normal
          matrix: the solve is one product with its inverse.  A slice
          with fewer rows than the model rank has ``QkᵀQk ≠ I``; its
          sweeps rebuild the system and go through ``solve_gram``.

        The residual is ``‖Xk‖² − 2 w·g + wᵀ N w``, with ``N`` the last
        sweep's normal matrix — ``O(R²)``, nothing reconstructed.
        """
        H = self._H64
        A = np.asarray(svd.U, dtype=np.float64)
        G = svd.singular_values[:, None].astype(np.float64) * np.asarray(
            svd.V, dtype=np.float64
        ).T  # R_eff x J
        GV = G @ self._V64  # R_eff x R
        square = A.shape[1] == self.rank
        normal = self._normal
        w = np.ones(self.rank, dtype=np.float64)
        Zp = None
        for _ in range(sweeps):
            Zp = polar((GV * w) @ H.T)  # R_eff x R
            g = np.einsum("ir,ir->r", H, Zp.T @ GV)
            if square:
                w = self._normal_inv @ g
            else:
                normal = (H.T @ (Zp.T @ Zp @ H)) * self._VtV
                w = solve_gram(normal, g[None, :])[0]
        return self._fold_in_result(Xk, w, g, normal, (A @ Zp) if return_q else None)

    def _refine_fold_in_device(
        self, Xk, svd, sweeps: int, return_q: bool
    ) -> FoldInResult:
        """Device mirror of :meth:`_refine_fold_in` (see there for the math).

        The ``J``-sized ``G V`` contraction and the per-sweep Procrustes
        products run on the resident factors; only the ``R``-vector ``g``
        comes back each sweep, and the weight solve runs on the host
        against the cached normal matrix.  A slice with fewer rows than
        the model rank also downloads its ``R×R`` system each sweep, for
        ``solve_gram`` — the deterministic reference solve.
        """
        xp = self._xp
        G = svd.singular_values[:, None].astype(np.float64) * np.asarray(
            svd.V, dtype=np.float64
        ).T  # R_eff x J, host
        GV = xp.matmul(self._up(G), self._V64_native)  # R_eff x R, device
        H, Ht = self._H64_native, self._Ht_native
        square = G.shape[0] == self.rank
        normal = self._normal
        w = np.ones(self.rank, dtype=np.float64)
        Zp = None
        for _ in range(sweeps):
            scaled = xp.einsum("ir,r->ir", GV, self._up(w))
            Zp = polar(xp.matmul(scaled, Ht), xp=xp)
            C = xp.matmul(xp.transpose(Zp), GV)
            g = self._down(xp.einsum("ir,ir->r", H, C))
            if square:
                w = self._normal_inv @ g
            else:
                QtQ = xp.matmul(xp.transpose(Zp), Zp)
                normal = self._down(
                    xp.einsum(
                        "ij,ij->ij",
                        xp.matmul(Ht, xp.matmul(QtQ, H)),
                        self._VtV_native,
                    )
                )
                w = solve_gram(normal, g[None, :])[0]
        Q = None
        if return_q:
            Q = np.asarray(svd.U, dtype=np.float64) @ self._down(Zp)
        return self._fold_in_result(Xk, w, g, normal, Q)

    @staticmethod
    def _fold_in_result(Xk, w, g, normal, Q) -> FoldInResult:
        """Package a fold-in, with its residual ``‖Xk‖² − 2 w·g + wᵀ N w``."""
        norm_sq = float(slice_squared_norm(Xk))
        residual_sq = norm_sq - 2.0 * float(w @ g) + float(w @ normal @ w)
        return FoldInResult(
            weights=w,
            residual_squared=max(residual_sq, 0.0),
            norm_squared=norm_sq,
            Q=Q,
        )

    # ------------------------------------------------------------------ #
    # anomaly score of an unseen slice
    # ------------------------------------------------------------------ #

    def anomaly_score(self, slice_matrix, *, seed: int = 0) -> float:
        """Anomaly score of one *unseen* slice: its fold-in residual."""
        return self.fold_in(slice_matrix, seed=seed).relative_residual
