"""Batched compute kernels for the two DPar2 hot paths.

DPar2's speed claim rests on (a) the stage-1 compression being one cheap
randomized SVD per slice and (b) the compressed ALS sweep touching only
``R``-sized quantities.  Both paths were previously dominated by Python-level
dispatch in the many-small-slices regime: K separate ``randomized_svd`` calls
(each a chain of tiny LAPACK invocations) and per-sweep ``np.einsum`` path
resolution plus temporary reallocation.  This module makes them
hardware-bound:

* :func:`batched_randomized_svd` groups slices into equal-row-count buckets,
  stacks each bucket into a ``(b, Ik, J)`` array (or a
  :class:`~repro.sparse.stacked.StackedCsr`), and hands it to the one
  Algorithm-1 pipeline of :mod:`repro.linalg.randomized_svd`, whose
  steps are then batched 3-D ``matmul`` / ``np.linalg.qr`` /
  ``np.linalg.svd`` calls.  numpy's stacked linalg gufuncs invoke the
  very same LAPACK routine per sub-matrix, so dense results are
  **bitwise identical** to the per-slice loop (given the same per-slice
  generators).

* :func:`batched_stacked_matmul` applies one ``(b, Ik, R) @ (b, R, R)``
  matmul per row-count bucket — the final ``Qk = Ak Zk Pkᵀ``
  materialization.

* :class:`CellSweepWorkspace` runs the compressed ALS sweep (Lemmas 1–3,
  the polar SVDs and the Gram-form criterion) over one cell of slices —
  the kernel set of the one DPar2 sweep loop.  On numpy its ``np.einsum``
  contraction paths are resolved once per cell geometry and every
  temporary is preallocated and written with ``out=``, so the
  Python-visible allocation per sweep is near zero.

Accumulation dtype: workspace buffers follow the pipeline dtype (float32 or
float64), but the convergence-criterion terms (``TE``, ``HS`` and the
scalar reductions) are always held/accumulated in float64 — a float32 run
halves memory traffic on the big contractions without destabilising the
stopping rule.

Compute backends: every kernel takes an optional ``xp``
(:mod:`repro.linalg.array_module`) selecting the array library it runs on.
The default numpy module dispatches to the identical numpy calls, so the
bitwise guarantees above are untouched; torch/CuPy modules run the same
stacked pipeline on their batched primitives, with each bucket crossing
the host↔device boundary once (and the sweep's ``F(k)`` stack staying
resident in :class:`CellSweepWorkspace`).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.array_module import ArrayModule, get_xp
from repro.linalg.randomized_svd import (
    RandomizedSVDResult,
    _draw_sketches,
    _host_result,
    _rsvd,
    randomized_svd,
)
from repro.linalg.truncated_svd import polar
from repro.sparse.csr import CsrMatrix
from repro.sparse.stacked import StackedCsr

__all__ = [
    "CellSweepWorkspace",
    "batched_randomized_svd",
    "batched_stacked_matmul",
    "bucket_by_rows",
]


# --------------------------------------------------------------------- #
# stage 1: batched randomized SVD
# --------------------------------------------------------------------- #


def bucket_by_rows(row_counts) -> list[tuple[int, list[int]]]:
    """Group slice indices into equal-row-count buckets for stacked dispatch.

    Returns ``[(height, indices), ...]`` with buckets ordered by height and
    indices in input order.
    """
    by_height: dict[int, list[int]] = {}
    for index, rows in enumerate(row_counts):
        by_height.setdefault(int(rows), []).append(index)
    return [(h, by_height[h]) for h in sorted(by_height)]


def batched_randomized_svd(
    matrices,
    rank: int,
    *,
    oversampling: int = 5,
    power_iterations: int = 1,
    generators,
    xp: "ArrayModule | str | None" = None,
    native_slices=None,
) -> list[RandomizedSVDResult]:
    """Per-slice randomized SVDs via stacked/batched LAPACK dispatch.

    Drop-in replacement for ``[randomized_svd(Xk, rank, random_state=g)
    for Xk, g in zip(matrices, generators)]`` — each slice keeps its own
    generator and draws its Gaussian sketch in the same shape, so the
    results are independent of the bucket schedule and bitwise identical
    to the per-slice loop.  Singleton buckets route straight through
    :func:`randomized_svd`: stacking a single slice would only add a copy.

    ``xp`` selects the compute backend (default numpy, the bitwise-exact
    path).  On a device backend each bucket's stack crosses the host↔device
    boundary exactly once per direction — one transfer up, one batched
    pipeline, one transfer of the small factors back.  ``native_slices``
    optionally supplies the same slices as ``xp``-native arrays (e.g. from
    :meth:`IrregularTensor.to_backend
    <repro.tensor.irregular.IrregularTensor.to_backend>`'s per-backend
    cache); buckets are then stacked on-device from the cached slices and
    the raw data is not re-uploaded at all.

    Slices may also be :class:`~repro.sparse.csr.CsrMatrix` instances, on
    any backend: an all-sparse bucket is concatenated into a
    :class:`~repro.sparse.stacked.StackedCsr` and sketched through batched
    SpMM — ``O(nnz·(r+p))`` work and only the ``(r+p)``-column panels
    dense.  A lone CSR slice and a shared bucket run different host SpMM
    kernels, so a CSR slice's factors depend on its bucket to rounding.
    On a device backend the bucket's CSR arrays upload once and the panels
    stay resident through the whole pipeline (``torch.sparse_csr_tensor``
    / ``cupyx`` CSR under the module's ``spmm``); the numpy path is the
    historical scipy/pure-numpy kernel, bit for bit.  Mixed buckets
    densify their sparse members (stacking forces a common layout
    anyway).  Each slice still draws its own sketch from its own
    generator, so the factors agree with a densified run to
    floating-point rounding for a fixed seed.
    """
    xp = get_xp(xp)
    mats = [
        Xk if isinstance(Xk, CsrMatrix) else np.asarray(Xk) for Xk in matrices
    ]
    generators = list(generators)
    if len(mats) != len(generators):
        raise ValueError(
            f"matrices and generators must align: {len(mats)} vs {len(generators)}"
        )
    if native_slices is not None and len(native_slices) != len(mats):
        raise ValueError(
            f"matrices and native_slices must align: "
            f"{len(mats)} vs {len(native_slices)}"
        )
    if not mats:
        return []
    J = mats[0].shape[1]
    results: list[RandomizedSVDResult | None] = [None] * len(mats)
    for height, indices in bucket_by_rows([Xk.shape[0] for Xk in mats]):
        if len(indices) == 1:
            k = indices[0]
            results[k] = randomized_svd(
                native_slices[k] if native_slices is not None else mats[k],
                rank,
                oversampling=oversampling,
                power_iterations=power_iterations,
                random_state=generators[k],
                xp=xp,
            )
            continue

        dtype = mats[indices[0]].dtype
        effective_rank, omegas = _draw_sketches(
            [generators[k] for k in indices],
            rank,
            (height, J),
            dtype,
            oversampling=oversampling,
            power_iterations=power_iterations,
        )
        if all(isinstance(mats[k], CsrMatrix) for k in indices):
            stack = StackedCsr.from_matrices([mats[k] for k in indices])
        elif native_slices is not None and not xp.is_numpy:
            stack = xp.stack([native_slices[k] for k in indices])
        else:
            stack = np.empty((len(indices), height, J), dtype=dtype)
            for pos, k in enumerate(indices):
                Xk = mats[k]
                # Mixed bucket: the stack is dense regardless, so a lone
                # sparse member just materializes its rows.
                stack[pos] = Xk.to_dense() if isinstance(Xk, CsrMatrix) else Xk
        # One transfer back per bucket; slicing the host copies after.
        U, sigma, Vt = (
            xp.to_numpy(factor)
            for factor in _rsvd(stack, omegas, effective_rank, power_iterations, xp)
        )
        for pos, k in enumerate(indices):
            results[k] = _host_result(U[pos], sigma[pos], Vt[pos])
    return results  # type: ignore[return-value]


def batched_stacked_matmul(
    lefts,
    rights,
    *,
    max_stack_rows: int | None = None,
    xp: "ArrayModule | str | None" = None,
) -> list[np.ndarray]:
    """``[lefts[k] @ rights[k]]`` with one stacked matmul per row bucket.

    ``lefts`` is a list of ``(Ik, a)`` host matrices, ``rights`` a
    ``(K, a, b)`` host stack.  Equal-row groups are stacked so the K
    Python-level dispatches collapse into one 3-D matmul per bucket
    (bitwise identical per pair on the numpy module); singleton buckets
    use a plain 2-D matmul.  ``max_stack_rows`` bounds the stacking:
    buckets of taller matrices fall back to the per-item loop — stacking
    copies the bucket's whole left operand, which buys nothing once each
    matmul is BLAS-bound, and would transiently double the memory of a
    large equal-height factor.  On a device ``xp`` each multi-slice bucket
    ships up as one stack, multiplies batched, and comes back as one
    transfer; the per-item fallbacks stay on the host, where a lone
    BLAS-bound matmul beats a round trip.
    """
    xp = get_xp(xp)
    rights = np.asarray(rights)
    if len(lefts) != rights.shape[0]:
        raise ValueError(
            f"lefts and rights must align: {len(lefts)} vs {rights.shape[0]}"
        )
    rights_native = None  # uploaded lazily: only if a bucket actually batches
    out: list[np.ndarray | None] = [None] * len(lefts)
    for height, indices in bucket_by_rows([A.shape[0] for A in lefts]):
        if len(indices) == 1 or (
            max_stack_rows is not None and height > max_stack_rows
        ):
            for k in indices:
                out[k] = lefts[k] @ rights[k]
            continue
        if xp.is_numpy:
            stacked = np.stack([lefts[k] for k in indices]) @ rights[indices]
        else:
            if rights_native is None:
                rights_native = xp.asarray(rights)
            left_stack = xp.asarray(np.stack([lefts[k] for k in indices]))
            stacked = xp.to_numpy(xp.matmul(left_stack, rights_native[indices]))
        for pos, k in enumerate(indices):
            out[k] = stacked[pos]
    return out  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# cell sweep workspace: the compressed ALS sweep over one cell of slices
# --------------------------------------------------------------------- #

#: einsum subscripts of the five sweep contractions and the two
#: convergence-criterion reductions (Section III-C/III-E kernels).
_SMALL = "kij,jr,kr,sr->kis"
_T = "kji,kjs->kis"
_G1 = "kr,kij,jr->ir"
_INNER = "kr,kji,jr->ir"
_G3 = "ir,kij,jr->kr"
_CROSS = "kij,kil,lj->"
_MODEL = "kli,klj,ij->"


class CellSweepWorkspace:
    """The compressed ALS sweep kernels for one reduction *cell* of slices.

    The DPar2 coordinator (:mod:`repro.decomposition.sharded`) partitions
    the K slices into a fixed set of cells — one cell when the run is not
    sharded; each cell computes its own slice-local contractions with this
    workspace and ships back only ``O(R²)`` partial reductions.  The cell
    — not the shard — is the unit of floating-point accumulation: a cell's
    partials are a pure function of its slices, and the coordinator sums
    them in cell order, so the final factors are bitwise-invariant to how
    cells are assigned to shards (see ``docs/distributed.md``).

    Geometry is ``(Kc, R, Rc, dtype)`` — the cell's slice count, target
    rank, and compression rank ``Rc >= R`` (``Rc > R`` when a higher-rank
    precomputed compression is reused).  On the numpy module every
    temporary is preallocated and written with ``out=``, and contraction
    paths are resolved once with ``np.einsum_path`` (the same greedy
    optimizer ``optimize=True`` uses at call time), so sweeps skip
    per-call path search while contracting in the identical order.  The
    convergence-criterion partials (``TE``/``HS`` and the scalar
    reductions) accumulate in float64 regardless of the working dtype; on
    numpy they are plain GEMMs and dot products, with no einsum dispatch.

    On a device ``xp`` (torch/CuPy) ``F(k)``, the polar factors and the
    ``O(Kc R² Rc)`` contractions stay resident while every method takes
    and returns host arrays; there are no ``out=`` buffers — the device
    allocators recycle memory themselves, and ``torch.einsum`` has no
    ``out=`` anyway.  The cell's ``W`` rows always live on the host, where
    the Lemma-3 solve writes them.
    """

    def __init__(
        self, Kc: int, R: int, Rc: int | None = None, dtype=np.float64,
        *, xp: "ArrayModule | str | None" = None,
    ) -> None:
        Rc = R if Rc is None else Rc
        if Rc < R:
            raise ValueError(f"compression rank {Rc} below target rank {R}")
        if Kc <= 0:
            raise ValueError(f"cell must hold at least one slice, got {Kc}")
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dt}")
        self.Kc, self.R, self.Rc = Kc, R, Rc
        self.dtype = dt
        self.xp = get_xp(xp)

        # Bound per solve, not per geometry.
        self.E = self.F = None
        self.W: np.ndarray | None = None  # this cell's (Kc, R) rows of W
        self.polar = None  # this sweep's Zk Pkᵀ stack
        self.data_term: float = 0.0

        self.small = self.T = self.G1 = self.WtW = None
        self.inner = self.G3 = self.TE = self.HS = None
        self._paths: dict[str, list] = {}
        if not self.xp.is_numpy:
            return
        # Working-dtype buffers.
        self.small = np.empty((Kc, Rc, R), dt)  # F(k) E Dᵀ V Sk Hᵀ
        self.T = np.empty((Kc, R, Rc), dt)  # Pk Zkᵀ F(k)
        self.G1 = np.empty((R, R), dt)
        self.WtW = np.empty((R, R), dt)
        self.inner = np.empty((Rc, R), dt)
        self.G3 = np.empty((Kc, R), dt)
        # Criterion partials accumulate in float64.
        self.TE = np.empty((Kc, R, Rc), np.float64)
        self.HS = np.empty((Kc, R, R), np.float64)

        F = np.empty((Kc, Rc, Rc), dt)  # shape proxies for path search only
        EDtV = np.empty((Rc, R), dt)
        square = np.empty((R, R), dt)
        for subscripts, operands in (
            (_SMALL, (F, EDtV, self.G3, square)),
            (_T, (self.small, F)),
            (_G1, (self.G3, self.T, EDtV)),
            (_INNER, (self.G3, self.T, square)),
            (_G3, (square, self.T, EDtV)),
        ):
            self._paths[subscripts] = np.einsum_path(
                subscripts, *operands, optimize=True
            )[0]

    def _einsum(self, subscripts: str, *operands, out=None):
        """One sweep contraction: cached path and ``out=`` buffer on numpy."""
        if self.xp.is_numpy:
            return np.einsum(
                subscripts, *operands, optimize=self._paths[subscripts], out=out
            )
        xp = self.xp
        return xp.einsum(subscripts, *(xp.asarray(op) for op in operands))

    def bind(self, E: np.ndarray, F: np.ndarray, W: np.ndarray) -> float:
        """Attach the cell's compressed blocks and its rows of ``W``.

        Returns the cell's float64 partial of the criterion's constant
        data term ``Σk ‖F(k) E‖²`` (the coordinator sums cell partials in
        cell order).
        """
        if F.shape != (self.Kc, self.Rc, self.Rc):
            raise ValueError(
                f"F must be ({self.Kc}, {self.Rc}, {self.Rc}), got {F.shape}"
            )
        if W.shape != (self.Kc, self.R):
            raise ValueError(f"W must be ({self.Kc}, {self.R}), got {W.shape}")
        self.E, self.F = self.xp.asarray(E), self.xp.asarray(F)
        self.W = np.ascontiguousarray(W, dtype=self.dtype)
        FE = F.astype(np.float64) * E.astype(np.float64)
        self.data_term = float(np.sum(FE * FE))
        return self.data_term

    def compute_small(self, EDtV: np.ndarray, H: np.ndarray):
        """``small_k = F(k) (E Dᵀ V) Sk Hᵀ`` over the cell's slices."""
        self.small = self._einsum(
            _SMALL, self.F, EDtV, self.W, H, out=self.small
        )
        return self.small

    def compute_polar(self, engine):
        """The per-slice ``R×R`` SVDs (Alg. 3, lines 8–10): ``Zk Pkᵀ``.

        Each matrix goes through :func:`~repro.linalg.truncated_svd.polar`,
        whose thin SVD keeps this correct when ``Rc > R`` (a precomputed
        compression of higher rank than the target: the extra directions
        are truncated).  A device module runs the whole stack as one
        batched launch.  On numpy, a stack holding at least four matrices
        per worker of the ``engine`` (an
        :class:`~repro.parallel.backends.ExecutionBackend`) is chunked
        evenly across them — the "uniform allocation" of Section III-F —
        and smaller stacks go through one LAPACK call, because dispatch
        would cost more than the work.  LAPACK solves each matrix on its
        own, so the chunking never changes a bit.
        """
        if (
            not self.xp.is_numpy
            or engine.n_workers <= 1
            or self.Kc < 4 * engine.n_workers
        ):
            self.polar = polar(self.small, xp=self.xp)
        else:
            chunks = np.array_split(self.small, engine.n_workers)
            self.polar = np.concatenate(engine.map(polar, chunks))
        return self.polar

    def polar_host(self) -> np.ndarray:
        """This sweep's ``Zk Pkᵀ`` on the host.

        Before the first sweep there is no polar factor; the stack is then
        the rectangular identity, so ``Qk = Ak`` truncated to the target
        rank.
        """
        if self.polar is None:
            return np.tile(np.eye(self.Rc, self.R, dtype=self.dtype), (self.Kc, 1, 1))
        return self.xp.to_numpy(self.polar)

    def compute_T(self):
        """``Tk = (Zk Pkᵀ)ᵀ F(k)`` over the cell's slices."""
        self.T = self._einsum(_T, self.polar, self.F, out=self.T)
        return self.T

    def mttkrp_H(self, EDtV: np.ndarray) -> np.ndarray:
        """The cell's partial of Lemma 1's ``G1`` (uses current ``W``)."""
        self.G1 = self._einsum(_G1, self.W, self.T, EDtV, out=self.G1)
        return self.xp.to_numpy(self.G1)

    def gram_W(self) -> np.ndarray:
        """``Wcᵀ Wc`` — the cell's partial of the ``WᵀW`` Gram."""
        self.WtW = np.matmul(self.W.T, self.W, out=self.WtW)
        return self.WtW

    def mttkrp_V_inner(self, H: np.ndarray) -> np.ndarray:
        """The cell's partial of Lemma 2's inner sum ``Σk Tkᵀ H diag(Sk)``."""
        self.inner = self._einsum(_INNER, self.W, self.T, H, out=self.inner)
        return self.xp.to_numpy(self.inner)

    def mttkrp_W(self, EDtV: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Lemma 3's ``G3`` rows for the cell's slices."""
        self.G3 = self._einsum(_G3, H, self.T, EDtV, out=self.G3)
        return self.xp.to_numpy(self.G3)

    def criterion_partials(
        self, VtD: np.ndarray, VtV: np.ndarray, H: np.ndarray
    ) -> tuple[float, float]:
        """The cell's float64 ``(cross, model)`` criterion partials.

        ``Σk ‖Tk E Dᵀ − H Sk Vᵀ‖²`` by the Gram trick (Section III-E) reads
        this sweep's ``Tk`` and the cell's updated ``W`` rows; the constant
        data term is handled at :meth:`bind`.
        """
        if self.xp.is_numpy:
            TE = np.multiply(self.T, self.E, out=self.TE)
            HS = np.multiply(H[None, :, :], self.W[:, None, :], out=self.HS)
            # _CROSS and _MODEL as one GEMM over the fused (k, i) axis and
            # one dot product each: at these sizes einsum's per-call path
            # dispatch costs more than the contractions themselves.
            HS2 = HS.reshape(-1, self.R)
            cross = float(np.vdot(HS2.T @ TE.reshape(-1, self.Rc), VtD))
            model = float(np.vdot(HS2.T @ HS2, VtV))
            return cross, model
        xp = self.xp
        TE = xp.astype(self.T, np.float64) * xp.astype(self.E, np.float64)
        HS = xp.asarray(
            H.astype(np.float64)[None, :, :]
            * self.W.astype(np.float64)[:, None, :]
        )
        cross = xp.to_float(self._einsum(_CROSS, TE, HS, VtD))
        model = xp.to_float(self._einsum(_MODEL, HS, HS, VtV.astype(np.float64)))
        return cross, model
