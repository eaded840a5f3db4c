"""Batched compute kernels for the two DPar2 hot paths.

DPar2's speed claim rests on (a) the stage-1 compression being one cheap
randomized SVD per slice and (b) the compressed ALS sweep touching only
``R``-sized quantities.  Both paths were previously dominated by Python-level
dispatch in the many-small-slices regime: K separate ``randomized_svd`` calls
(each a chain of tiny LAPACK invocations) and per-sweep ``np.einsum`` path
resolution plus temporary reallocation.  This module makes them
hardware-bound:

* :func:`batched_randomized_svd` groups slices into equal-row-count buckets,
  stacks each bucket into a ``(b, Ik, J)`` array, and runs the whole
  Algorithm-1 pipeline — Gaussian sketch, power iterations, QR, small SVD —
  as batched 3-D ``matmul`` / ``np.linalg.qr`` / ``np.linalg.svd`` calls.
  numpy's stacked linalg gufuncs invoke the very same LAPACK routine per
  sub-matrix, so the results are **bitwise identical** to the per-slice
  loop (given the same per-slice generators).

* :func:`batched_stacked_matmul` applies one ``(b, Ik, R) @ (b, R, R)``
  matmul per row-count bucket — the final ``Qk = Ak Zk Pkᵀ``
  materialization.

* :class:`SweepWorkspace` owns every per-sweep temporary of the compressed
  ALS iteration (``small``, ``T``, ``TE``, ``HS``, Gram and MTTKRP buffers)
  and the ``np.einsum`` contraction paths, computed once per
  ``(K, J, R, Rc, dtype)`` shape.  Steady-state sweeps write into the
  preallocated buffers with ``out=`` and re-use Gram matrices across the
  Lemma 1–3 updates, so the Python-visible allocation per sweep is near
  zero.  Workspaces are recycled through a small module cache
  (:func:`acquire_sweep_workspace` / :func:`release_sweep_workspace`) so
  consecutive ``dpar2`` calls on same-shaped problems pay the setup once.

Accumulation dtype: workspace buffers follow the pipeline dtype (float32 or
float64), but the convergence-criterion terms (``TE``, ``HS``, ``VtD`` and
the scalar reductions) are always held/accumulated in float64 — a float32
run halves memory traffic on the big contractions without destabilising the
stopping rule.

Compute backends: every kernel takes an optional ``xp``
(:mod:`repro.linalg.array_module`) selecting the array library it runs on.
The default numpy module dispatches to the identical numpy calls, so the
bitwise guarantees above are untouched; torch/CuPy modules run the same
stacked pipeline on their batched primitives, with each bucket crossing
the host↔device boundary once (see :class:`DeviceSweepWorkspace` for the
sweep side).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.linalg.array_module import ArrayModule, get_xp
from repro.linalg.randomized_svd import RandomizedSVDResult, randomized_svd
from repro.sparse.csr import CsrMatrix
from repro.sparse.stacked import StackedCsr

__all__ = [
    "CellSweepWorkspace",
    "DeviceSweepWorkspace",
    "SweepWorkspace",
    "acquire_sweep_workspace",
    "batched_randomized_svd",
    "batched_stacked_matmul",
    "bucket_by_rows",
    "release_sweep_workspace",
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


def _stacked_rsvd(
    stack,
    effective_rank: int,
    power_iterations: int,
    omegas,
    xp: ArrayModule,
):
    """Algorithm 1 on a ``(b, m, J)`` stack — all steps batched 3-D calls.

    ``stack``/``omegas`` are ``xp``-native arrays and every step dispatches
    through ``xp``.  On the numpy module each call *is* the numpy function
    the pre-``xp`` code used, mapping to the same LAPACK/BLAS routine per
    2-D sub-array — so stacks reproduce the per-slice results bit for
    bit.  Device modules run the identical pipeline on their batched
    primitives.
    """
    Y = xp.matmul(stack, omegas)
    Q, _ = xp.qr(Y)
    for _ in range(power_iterations):
        Z, _ = xp.qr(xp.matmul(xp.transpose(stack), Q))
        Q, _ = xp.qr(xp.matmul(stack, Z))
    B = xp.matmul(xp.transpose(Q), stack)
    U_small, sigma, Vt = xp.svd(B, full_matrices=False)
    U = xp.matmul(Q, U_small[:, :, :effective_rank])
    return U, sigma[:, :effective_rank], Vt[:, :effective_rank, :]


def _stacked_rsvd_sparse(
    stacked: StackedCsr,
    effective_rank: int,
    power_iterations: int,
    omegas,
    xp: ArrayModule,
):
    """Algorithm 1 on a :class:`StackedCsr` bucket — SpMM sketching.

    Mirrors :func:`_stacked_rsvd` step for step, with the two
    matrix-sized products (``XΩ``-style sketches and the ``QᵀX``
    projection) running through the bucket's batched SpMM kernels.  The
    only dense arrays are the ``(r+p)``-column panels; cost is
    ``O(nnz·(r+p))`` per product instead of ``O(b·m·J·(r+p))``.  The
    Gaussian sketches are the very ones the dense path draws, so results
    agree with a densified run to floating-point rounding (the summation
    order inside each dot product is the only difference).

    On the numpy module every call below is the historical host function —
    same kernels, same bits.  A device module uploads the bucket's CSR
    structure once (:meth:`StackedCsr.native
    <repro.sparse.stacked.StackedCsr.native>`) and keeps the panels
    resident between the SpMM, QR, and SVD steps; the caller downloads the
    truncated factors.
    """
    if xp.is_numpy:
        Y = stacked.matmul_dense(omegas)
        Q, _ = np.linalg.qr(Y)
        for _ in range(power_iterations):
            Z, _ = np.linalg.qr(stacked.t_matmul_dense(Q))
            Q, _ = np.linalg.qr(stacked.matmul_dense(Z))
        B = np.swapaxes(stacked.t_matmul_dense(Q), 1, 2)  # (b, sketch, J)
        U_small, sigma, Vt = np.linalg.svd(B, full_matrices=False)
        U = np.matmul(Q, U_small[:, :, :effective_rank])
        return U, sigma[:, :effective_rank], Vt[:, :effective_rank, :]
    Y = stacked.matmul_dense(xp.asarray(omegas), xp=xp)
    Q, _ = xp.qr(Y)
    for _ in range(power_iterations):
        Z, _ = xp.qr(stacked.t_matmul_dense(Q, xp=xp))
        Q, _ = xp.qr(stacked.matmul_dense(Z, xp=xp))
    B = xp.transpose(stacked.t_matmul_dense(Q, xp=xp))  # (b, sketch, J)
    U_small, sigma, Vt = xp.svd(B, full_matrices=False)
    U = xp.matmul(Q, U_small[:, :, :effective_rank])
    return U, sigma[:, :effective_rank], Vt[:, :effective_rank, :]


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
    SpMM (:func:`_stacked_rsvd_sparse`) — ``O(nnz·(r+p))`` work and only
    the ``(r+p)``-column panels dense.  On a device backend the bucket's
    CSR arrays upload once and the panels stay resident through the whole
    pipeline (``torch.sparse_csr_tensor`` / ``cupyx`` CSR under the
    module's ``spmm``); the numpy path is the historical scipy/pure-numpy
    kernel, bit for bit.  Mixed buckets densify their sparse members
    (stacking forces a common layout anyway).  Each slice still draws its own
    sketch from its own generator, so the factors agree with a densified
    run to floating-point rounding for a fixed seed.
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

        effective_rank = min(rank, height, J)
        sketch_size = min(effective_rank + oversampling, min(height, J))
        dtype = mats[indices[0]].dtype
        sparse_bucket = all(isinstance(mats[k], CsrMatrix) for k in indices)

        omegas = np.empty((len(indices), J, sketch_size), dtype=dtype)
        for pos, k in enumerate(indices):
            # Draw in float64 first (as the per-slice path does), then cast:
            # the float32 pipeline sees the same sketch to within rounding.
            omega = generators[k].standard_normal((J, sketch_size))
            omegas[pos] = omega if dtype == np.float64 else omega.astype(dtype)

        if sparse_bucket:
            stacked = StackedCsr.from_matrices([mats[k] for k in indices])
            U, sigma, Vt = _stacked_rsvd_sparse(
                stacked, effective_rank, power_iterations, omegas, xp
            )
        else:
            if native_slices is not None and not xp.is_numpy:
                stack = xp.stack([native_slices[k] for k in indices])
            else:
                host = np.empty((len(indices), height, J), dtype=dtype)
                for pos, k in enumerate(indices):
                    Xk = mats[k]
                    if isinstance(Xk, CsrMatrix):
                        # Mixed bucket: the stack is dense regardless, so a
                        # lone sparse member just materializes its rows.
                        Xk = Xk.to_dense()
                    host[pos] = Xk
                stack = host if xp.is_numpy else xp.asarray(host)

            U, sigma, Vt = _stacked_rsvd(
                stack, effective_rank, power_iterations, xp.asarray(omegas), xp
            )
        # One transfer back per bucket; slicing the host copies after.
        U, sigma, Vt = xp.to_numpy(U), xp.to_numpy(sigma), xp.to_numpy(Vt)
        for pos, k in enumerate(indices):
            results[k] = RandomizedSVDResult(
                U=np.ascontiguousarray(U[pos]),
                singular_values=sigma[pos].copy(),
                V=np.ascontiguousarray(Vt[pos].T),
            )
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
# sweep workspace: precompiled contractions + preallocated temporaries
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


class SweepWorkspace:
    """Preallocated buffers and contraction paths for one sweep geometry.

    A geometry is ``(K, J, R, Rc, dtype)``: ``K`` slices, ``J`` columns,
    target rank ``R``, and compression rank ``Rc >= R`` (``Rc > R`` when a
    higher-rank precomputed compression is reused).  The workspace is bound
    to a concrete compression with :meth:`bind` before sweeping; buffers are
    overwritten freely, so a workspace must serve one ``dpar2`` call at a
    time — use :func:`acquire_sweep_workspace` to check instances out of the
    shared cache.

    Contraction paths are resolved once with ``np.einsum_path`` (the same
    greedy optimizer ``optimize=True`` uses at call time), so sweeps skip
    per-call path search while contracting in the identical order — float64
    results stay bitwise-identical to un-cached ``np.einsum`` calls.
    """

    def __init__(self, K: int, J: int, R: int, Rc: int | None = None, dtype=np.float64) -> None:
        Rc = R if Rc is None else Rc
        if Rc < R:
            raise ValueError(f"compression rank {Rc} below target rank {R}")
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dt}")
        self.K, self.J, self.R, self.Rc = K, J, R, Rc
        self.dtype = dt
        self.key = (K, J, R, Rc, dt.str)

        # Working-dtype sweep buffers.
        self.EDtV = np.empty((Rc, R), dt)  # E Dᵀ V
        self.small = np.empty((K, Rc, R), dt)  # F(k) E Dᵀ V Sk Hᵀ
        self.T = np.empty((K, R, Rc), dt)  # Pk Zkᵀ F(k)
        self.WtW = np.empty((R, R), dt)
        self.VtV = np.empty((R, R), dt)
        self.HtH = np.empty((R, R), dt)
        self.gram = np.empty((R, R), dt)  # Hadamard product fed to solve_gram
        self.G1 = np.empty((R, R), dt)
        self.inner = np.empty((Rc, R), dt)
        self.G2 = np.empty((J, R), dt)
        self.G3 = np.empty((K, R), dt)
        self.DE = np.empty((J, Rc), dt)  # D diag(E), constant per bind

        # Convergence criterion accumulates in float64 regardless of dtype.
        self.TE = np.empty((K, R, Rc), np.float64)
        self.HS = np.empty((K, R, R), np.float64)
        self.VtD = np.empty((R, Rc), np.float64)

        F = np.empty((K, Rc, Rc), dt)  # shape proxy for path search only
        self.path_small = np.einsum_path(
            _SMALL, F, self.EDtV, self.G3, self.gram, optimize=True
        )[0]
        self.path_T = np.einsum_path(_T, self.small, F, optimize=True)[0]
        self.path_G1 = np.einsum_path(
            _G1, self.G3, self.T, self.EDtV, optimize=True
        )[0]
        self.path_inner = np.einsum_path(
            _INNER, self.G3, self.T, self.gram, optimize=True
        )[0]
        self.path_G3 = np.einsum_path(
            _G3, self.gram, self.T, self.EDtV, optimize=True
        )[0]
        self.path_cross = np.einsum_path(
            _CROSS, self.TE, self.HS, self.VtD, optimize=True
        )[0]
        self.path_model = np.einsum_path(
            _MODEL, self.HS, self.HS, self.VtD[:, : self.R], optimize=True
        )[0]

        # Bound per call, not per geometry.
        self.D: np.ndarray | None = None
        self.E: np.ndarray | None = None
        self.F: np.ndarray | None = None
        self.data_term: float = 0.0

    #: numpy workspaces hold host arrays; the device counterpart overrides.
    is_device = False

    @property
    def nbytes(self) -> int:
        """Total bytes held by the preallocated buffers (cache accounting)."""
        return sum(
            buf.nbytes
            for buf in vars(self).values()
            if isinstance(buf, np.ndarray)
        )

    # ------------------------------------------------------------------ #
    # host/device residency (identity here; real on DeviceSweepWorkspace)
    # ------------------------------------------------------------------ #

    def host(self, array):
        """Workspace-native array → host ndarray (no-op for numpy)."""
        return array

    def dev(self, array):
        """Host ndarray → workspace-native array (no-op for numpy)."""
        return array

    # ------------------------------------------------------------------ #
    # binding to a concrete compression
    # ------------------------------------------------------------------ #

    def bind(self, D: np.ndarray, E: np.ndarray, F: np.ndarray) -> "SweepWorkspace":
        """Attach the compressed factors ``D, E, {F(k)}`` for this call.

        Precomputes the per-call constants: ``D diag(E)`` (the left factor
        of every Lemma-2 MTTKRP) and the criterion's constant data term
        ``Σk ‖F(k) E‖²`` (accumulated in float64).
        """
        self.D, self.E, self.F = D, E, F
        np.multiply(D, E, out=self.DE)
        if F.dtype == np.float64:
            FE = F * E
            self.data_term = float(np.sum(FE * FE))
        else:
            FE = F.astype(np.float64) * E.astype(np.float64)
            self.data_term = float(np.sum(FE * FE))
        return self

    def unbind(self) -> None:
        """Drop references to the bound compression (cache hygiene)."""
        self.D = self.E = self.F = None
        self.data_term = 0.0

    # ------------------------------------------------------------------ #
    # sweep kernels (Section III-C, Lemmas 1-3)
    # ------------------------------------------------------------------ #

    def update_EDtV(self, V: np.ndarray) -> np.ndarray:
        """``E Dᵀ V`` into the persistent buffer."""
        np.matmul(self.D.T, V, out=self.EDtV)
        np.multiply(self.EDtV, self.E[:, None], out=self.EDtV)
        return self.EDtV

    def compute_small(self, W: np.ndarray, H: np.ndarray) -> np.ndarray:
        """``small_k = F(k) (E Dᵀ V) Sk Hᵀ`` stacked over ``k``."""
        return np.einsum(
            _SMALL, self.F, self.EDtV, W, H, optimize=self.path_small, out=self.small
        )

    def compute_T(self, polar: np.ndarray) -> np.ndarray:
        """``Tk = (Zk Pkᵀ)ᵀ F(k)`` stacked over ``k``."""
        return np.einsum(_T, polar, self.F, optimize=self.path_T, out=self.T)

    def gram_W(self, W: np.ndarray) -> np.ndarray:
        return np.matmul(W.T, W, out=self.WtW)

    def gram_V(self, V: np.ndarray) -> np.ndarray:
        return np.matmul(V.T, V, out=self.VtV)

    def gram_H(self, H: np.ndarray) -> np.ndarray:
        return np.matmul(H.T, H, out=self.HtH)

    def hadamard_gram(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``left ∗ right`` into the shared normal-matrix buffer."""
        return np.multiply(left, right, out=self.gram)

    def mttkrp_H(self, W: np.ndarray) -> np.ndarray:
        """Lemma 1's ``G1 = Σk Tk (E Dᵀ V) diag(Sk)`` (transposed layout)."""
        return np.einsum(
            _G1, W, self.T, self.EDtV, optimize=self.path_G1, out=self.G1
        )

    def mttkrp_V(self, W: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Lemma 2's ``G2 = D E (Σk Tkᵀ H diag(Sk))``."""
        np.einsum(_INNER, W, self.T, H, optimize=self.path_inner, out=self.inner)
        return np.matmul(self.DE, self.inner, out=self.G2)

    def mttkrp_W(self, H: np.ndarray) -> np.ndarray:
        """Lemma 3's ``G3`` with rows ``diag(Hᵀ Tk E Dᵀ V)``."""
        return np.einsum(
            _G3, H, self.T, self.EDtV, optimize=self.path_G3, out=self.G3
        )

    # ------------------------------------------------------------------ #
    # compressed convergence criterion (Section III-E)
    # ------------------------------------------------------------------ #

    def compressed_error(self, H: np.ndarray, V: np.ndarray, W: np.ndarray) -> float:
        """``Σk ‖Tk E Dᵀ − H Sk Vᵀ‖²`` via the Gram trick, in float64.

        Reads the current ``Tk`` buffer and the ``VᵀV`` Gram already
        computed by the Lemma-3 update (same ``V``), sharing it instead of
        recomputing.  ``TE``/``HS``/``VtD`` live in float64 buffers, so a
        float32 pipeline still accumulates the criterion in float64 (numpy
        upcasts the mixed-dtype contraction operands).
        """
        np.matmul(V.T, self.D, out=self.VtD)
        np.multiply(self.T, self.E, out=self.TE)
        np.multiply(H[None, :, :], W[:, None, :], out=self.HS)
        cross = float(
            np.einsum(_CROSS, self.TE, self.HS, self.VtD, optimize=self.path_cross)
        )
        model = float(
            np.einsum(_MODEL, self.HS, self.HS, self.VtV, optimize=self.path_model)
        )
        return max(self.data_term - 2.0 * cross + model, 0.0)


class CellSweepWorkspace:
    """Shard-local sweep kernels for one reduction *cell* of slices.

    The sharded DPar2 coordinator (:mod:`repro.decomposition.sharded`)
    partitions the K slices into a fixed set of cells; each cell computes
    its own slice-local contractions with this workspace and ships back
    only ``O(R²)`` partial reductions.  The cell — not the shard — is the
    unit of floating-point accumulation: a cell's partials are a pure
    function of its slices, and the coordinator sums them in cell order,
    so the final factors are bitwise-invariant to how cells are assigned
    to shards (see ``docs/distributed.md``).

    Geometry is ``(Kc, R, Rc, dtype)`` — the cell's slice count, target
    rank, and compression rank.  Contraction paths are resolved once per
    cell with ``np.einsum_path`` exactly like :class:`SweepWorkspace`;
    because a cell's membership never changes, each slice always computes
    under its own cell's path, whatever the shard count.  The convergence
    criterion partials (``TE``/``HS`` and the scalar reductions)
    accumulate in float64 regardless of the working dtype, mirroring the
    single-process workspace.
    """

    def __init__(self, Kc: int, R: int, Rc: int | None = None, dtype=np.float64) -> None:
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

        # Working-dtype buffers (per-cell partials of the SweepWorkspace set).
        self.small = np.empty((Kc, Rc, R), dt)
        self.T = np.empty((Kc, R, Rc), dt)
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
        VtD = np.empty((R, Rc), np.float64)
        self.path_small = np.einsum_path(
            _SMALL, F, EDtV, self.G3, square, optimize=True
        )[0]
        self.path_T = np.einsum_path(_T, self.small, F, optimize=True)[0]
        self.path_G1 = np.einsum_path(_G1, self.G3, self.T, EDtV, optimize=True)[0]
        self.path_inner = np.einsum_path(
            _INNER, self.G3, self.T, square, optimize=True
        )[0]
        self.path_G3 = np.einsum_path(_G3, square, self.T, EDtV, optimize=True)[0]
        self.path_cross = np.einsum_path(
            _CROSS, self.TE, self.HS, VtD, optimize=True
        )[0]
        self.path_model = np.einsum_path(
            _MODEL, self.HS, self.HS, VtD[:, :R], optimize=True
        )[0]

        # Bound per solve, not per geometry.
        self.E: np.ndarray | None = None
        self.F: np.ndarray | None = None
        self.W: np.ndarray | None = None  # this cell's (Kc, R) rows of W
        self.data_term: float = 0.0

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
        self.E, self.F = E, F
        self.W = np.ascontiguousarray(W, dtype=self.dtype)
        FE = F.astype(np.float64) * E.astype(np.float64)
        self.data_term = float(np.sum(FE * FE))
        return self.data_term

    def compute_small(self, EDtV: np.ndarray, H: np.ndarray) -> np.ndarray:
        """``small_k = F(k) (E Dᵀ V) Sk Hᵀ`` over the cell's slices."""
        return np.einsum(
            _SMALL, self.F, EDtV, self.W, H,
            optimize=self.path_small, out=self.small,
        )

    def compute_T(self, polar: np.ndarray) -> np.ndarray:
        """``Tk = (Zk Pkᵀ)ᵀ F(k)`` over the cell's slices."""
        return np.einsum(_T, polar, self.F, optimize=self.path_T, out=self.T)

    def mttkrp_H(self, EDtV: np.ndarray) -> np.ndarray:
        """The cell's partial of Lemma 1's ``G1`` (uses current ``W``)."""
        return np.einsum(
            _G1, self.W, self.T, EDtV, optimize=self.path_G1, out=self.G1
        )

    def gram_W(self) -> np.ndarray:
        """``Wcᵀ Wc`` — the cell's partial of the ``WᵀW`` Gram."""
        return np.matmul(self.W.T, self.W, out=self.WtW)

    def mttkrp_V_inner(self, H: np.ndarray) -> np.ndarray:
        """The cell's partial of Lemma 2's inner sum ``Σk Tkᵀ H diag(Sk)``."""
        return np.einsum(
            _INNER, self.W, self.T, H, optimize=self.path_inner, out=self.inner
        )

    def mttkrp_W(self, EDtV: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Lemma 3's ``G3`` rows for the cell's slices."""
        return np.einsum(
            _G3, H, self.T, EDtV, optimize=self.path_G3, out=self.G3
        )

    def criterion_partials(
        self, VtD: np.ndarray, VtV: np.ndarray, H: np.ndarray
    ) -> tuple[float, float]:
        """The cell's float64 ``(cross, model)`` criterion partials.

        Reads the ``Tk`` buffer of this sweep and the cell's updated ``W``
        rows; mirrors :meth:`SweepWorkspace.compressed_error` term for
        term, minus the constant data term handled at :meth:`bind`.
        """
        np.multiply(self.T, self.E, out=self.TE)
        np.multiply(H[None, :, :], self.W[:, None, :], out=self.HS)
        cross = float(
            np.einsum(_CROSS, self.TE, self.HS, VtD, optimize=self.path_cross)
        )
        model = float(
            np.einsum(_MODEL, self.HS, self.HS, VtV, optimize=self.path_model)
        )
        return cross, model


class DeviceSweepWorkspace:
    """The :class:`SweepWorkspace` contract on a device array module.

    Same geometry, same method surface, but the ``O(K R² Rc)`` sweep
    contractions run through ``xp`` (torch/CuPy) while the tiny ``R×R``
    Lemma solves stay on the host — callers convert with :meth:`host` /
    :meth:`dev`, which are identity functions on the numpy workspace, so
    :func:`~repro.decomposition.dpar2._iterate` is written once for both.

    Differences from the numpy workspace, deliberately:

    * No preallocated ``out=`` buffers — torch and CuPy route allocations
      through caching device allocators, so steady-state sweeps reuse
      memory without the explicit buffer plumbing (and ``torch.einsum``
      has no ``out=`` anyway).
    * Not cached by :func:`release_sweep_workspace`: there is nothing
      host-side worth parking, and pinning device memory across calls
      would fight the allocator.
    * The convergence criterion still accumulates in float64 on the
      device; ``bind`` pre-casts the constant factors once.
    """

    is_device = True

    def __init__(
        self, K: int, J: int, R: int, Rc: int | None = None,
        dtype=np.float64, *, xp: ArrayModule,
    ) -> None:
        Rc = R if Rc is None else Rc
        if Rc < R:
            raise ValueError(f"compression rank {Rc} below target rank {R}")
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dt}")
        self.K, self.J, self.R, self.Rc = K, J, R, Rc
        self.dtype = dt
        self.xp = xp
        self.key = (K, J, R, Rc, dt.str, xp.name)

        self.D = self.E = self.F = None
        self.DE = self.EDtV = self.small = self.T = None
        self.WtW = self.VtV = self.HtH = self.gram = None
        self._D64 = self._E64 = None
        self.data_term: float = 0.0

    # ------------------------------------------------------------------ #
    # residency helpers
    # ------------------------------------------------------------------ #

    def host(self, array):
        """Device array → host ndarray (one small transfer)."""
        return self.xp.to_numpy(array)

    def dev(self, array):
        """Host ndarray → device array."""
        return self.xp.asarray(array)

    # ------------------------------------------------------------------ #
    # binding to a concrete compression
    # ------------------------------------------------------------------ #

    def bind(self, D: np.ndarray, E: np.ndarray, F: np.ndarray) -> "DeviceSweepWorkspace":
        """Ship ``D, E, {F(k)}`` to the device once for this call."""
        xp = self.xp
        self.D, self.E, self.F = xp.asarray(D), xp.asarray(E), xp.asarray(F)
        self.DE = self.D * self.E  # J x Rc, broadcasts over columns
        # Criterion constants, pre-cast to float64 device copies.
        self._D64 = xp.astype(self.D, np.float64)
        self._E64 = xp.astype(self.E, np.float64)
        FE = np.asarray(F, dtype=np.float64) * np.asarray(E, dtype=np.float64)
        self.data_term = float(np.sum(FE * FE))
        return self

    def unbind(self) -> None:
        """Drop device references (frees allocator blocks for reuse)."""
        self.D = self.E = self.F = None
        self.DE = self.EDtV = self.small = self.T = None
        self.WtW = self.VtV = self.HtH = self.gram = None
        self._D64 = self._E64 = None
        self.data_term = 0.0

    # ------------------------------------------------------------------ #
    # sweep kernels (Section III-C, Lemmas 1-3)
    # ------------------------------------------------------------------ #

    def update_EDtV(self, V: np.ndarray):
        xp = self.xp
        V_d = xp.asarray(V)
        self.EDtV = xp.matmul(xp.transpose(self.D), V_d) * self.E[:, None]
        return self.EDtV

    def compute_small(self, W: np.ndarray, H: np.ndarray):
        xp = self.xp
        self.small = xp.einsum(
            _SMALL, self.F, self.EDtV, xp.asarray(W), xp.asarray(H)
        )
        return self.small

    def compute_T(self, polar):
        self.T = self.xp.einsum(_T, polar, self.F)
        return self.T

    def gram_W(self, W: np.ndarray):
        W_d = self.xp.asarray(W)
        self.WtW = self.xp.matmul(self.xp.transpose(W_d), W_d)
        return self.WtW

    def gram_V(self, V: np.ndarray):
        V_d = self.xp.asarray(V)
        self.VtV = self.xp.matmul(self.xp.transpose(V_d), V_d)
        return self.VtV

    def gram_H(self, H: np.ndarray):
        H_d = self.xp.asarray(H)
        self.HtH = self.xp.matmul(self.xp.transpose(H_d), H_d)
        return self.HtH

    def hadamard_gram(self, left, right):
        self.gram = left * right
        return self.gram

    def mttkrp_H(self, W: np.ndarray):
        return self.xp.einsum(_G1, self.xp.asarray(W), self.T, self.EDtV)

    def mttkrp_V(self, W: np.ndarray, H: np.ndarray):
        inner = self.xp.einsum(
            _INNER, self.xp.asarray(W), self.T, self.xp.asarray(H)
        )
        return self.xp.matmul(self.DE, inner)

    def mttkrp_W(self, H: np.ndarray):
        return self.xp.einsum(_G3, self.xp.asarray(H), self.T, self.EDtV)

    # ------------------------------------------------------------------ #
    # compressed convergence criterion (Section III-E)
    # ------------------------------------------------------------------ #

    def compressed_error(self, H: np.ndarray, V: np.ndarray, W: np.ndarray) -> float:
        """``Σk ‖Tk E Dᵀ − H Sk Vᵀ‖²`` via the Gram trick, in float64.

        All three contractions run on the device in float64 (matching the
        numpy workspace's accumulation dtype) and only the two scalars
        cross back — extracting them synchronizes the stream.
        """
        xp = self.xp
        V64 = xp.astype(xp.asarray(V), np.float64)
        VtD = xp.matmul(xp.transpose(V64), self._D64)
        TE = xp.astype(self.T, np.float64) * self._E64
        HS_host = (
            np.asarray(H, dtype=np.float64)[None, :, :]
            * np.asarray(W, dtype=np.float64)[:, None, :]
        )
        HS = xp.asarray(HS_host)
        cross = xp.to_float(xp.einsum(_CROSS, TE, HS, VtD))
        model = xp.to_float(
            xp.einsum(_MODEL, HS, HS, xp.matmul(xp.transpose(V64), V64))
        )
        return max(self.data_term - 2.0 * cross + model, 0.0)


# --------------------------------------------------------------------- #
# workspace cache
# --------------------------------------------------------------------- #

_CACHE_CAPACITY = 8
#: Workspaces bigger than this are never cached, and the cache as a whole
#: evicts oldest-first past it — buffers scale with K, and parking a
#: 100k-slice geometry's buffers for the process lifetime is not a cache,
#: it is a leak.
_CACHE_MAX_BYTES = 64 * 2**20
_workspace_cache: "OrderedDict[tuple, SweepWorkspace]" = OrderedDict()
_cache_lock = threading.Lock()


def acquire_sweep_workspace(
    K: int, J: int, R: int, Rc: int | None = None, dtype=np.float64,
    xp: "ArrayModule | str | None" = None,
) -> "SweepWorkspace | DeviceSweepWorkspace":
    """Check a workspace for this geometry out of the module cache.

    The instance is *removed* from the cache while in use, so concurrent
    ``dpar2`` calls on the same geometry each get a private workspace.
    Return it with :func:`release_sweep_workspace` when the call finishes.

    A non-numpy ``xp`` yields a fresh :class:`DeviceSweepWorkspace` — the
    cache only parks host buffer sets; device allocations are recycled by
    the backend's own caching allocator.
    """
    xp = get_xp(xp)
    if not xp.is_numpy:
        return DeviceSweepWorkspace(K, J, R, Rc, dtype, xp=xp)
    key = (K, J, R, R if Rc is None else Rc, np.dtype(dtype).str)
    with _cache_lock:
        ws = _workspace_cache.pop(key, None)
    return ws if ws is not None else SweepWorkspace(K, J, R, Rc, dtype)


def release_sweep_workspace(ws: "SweepWorkspace | DeviceSweepWorkspace") -> None:
    """Return a workspace to the cache.

    Oldest geometries are evicted past the entry cap, and the cache is
    bounded in total bytes — a workspace too large to fit is simply
    dropped (its next acquisition pays the allocation again rather than
    the process pinning K-scaled buffers forever).  Device workspaces are
    never cached: unbinding hands their memory back to the allocator.
    """
    ws.unbind()
    if ws.is_device:
        return
    size = ws.nbytes
    if size > _CACHE_MAX_BYTES:
        return
    with _cache_lock:
        _workspace_cache[ws.key] = ws
        _workspace_cache.move_to_end(ws.key)
        while len(_workspace_cache) > _CACHE_CAPACITY:
            _workspace_cache.popitem(last=False)
        total = sum(cached.nbytes for cached in _workspace_cache.values())
        while total > _CACHE_MAX_BYTES and len(_workspace_cache) > 1:
            _, evicted = _workspace_cache.popitem(last=False)
            total -= evicted.nbytes
