"""SPARTan — slice-parallel MTTKRP PARAFAC2 [Perros et al., KDD'17].

SPARTan's contribution is computing the three MTTKRPs of the inner CP step
slice-by-slice (never materializing the stacked tensor ``Y`` or a Khatri–Rao
product) and parallelizing every per-slice stage over ``K``.  Its efficiency
on *sparse* data additionally comes from sparse ``Qkᵀ Xk`` products; on
dense inputs — the adaptation the paper benchmarks — each sweep still pays
the full ``O(Σk Ik J R)`` slice work, which is why its iteration times track
PARAFAC2-ALS in Fig. 9(b).

This implementation accepts both dense slices and this library's
:class:`~repro.sparse.csr.CsrMatrix` slices through one code path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import normalize_columns, slice_mttkrp
from repro.decomposition.initialization import initialize_factors, rank_report
from repro.decomposition.parafac2_als import procrustes_step
from repro.decomposition.result import (
    IterationRecord,
    Parafac2Result,
    residuals_from_projections,
)
from repro.linalg.pinv import solve_gram
from repro.parallel.backends import get_backend
from repro.sparse.ops import slice_squared_norm
from repro.tensor.irregular import IrregularTensor
from repro.tensor.products import hadamard
from repro.util.config import DecompositionConfig


def spartan(
    tensor,
    config: DecompositionConfig | None = None,
    **overrides,
) -> Parafac2Result:
    """Fit PARAFAC2 with SPARTan's slice-parallel formulation.

    Parameters
    ----------
    tensor:
        An :class:`IrregularTensor`, or a plain list of slices where each
        slice is a dense array or a :class:`CsrMatrix` (all sharing ``J``);
        a list is validated as an :class:`IrregularTensor` whose CSR slices
        stay CSR.
    config:
        Shared hyper-parameters (``n_threads``/``backend`` control the
        slice-level worker pool; slices are dealt uniformly, matching
        SPARTan's own scheduling rather than DPar2's Algorithm 4).
    """
    config = (config or DecompositionConfig()).with_(**overrides)
    if not isinstance(tensor, IrregularTensor):
        # density_threshold=1.0 keeps every CSR slice in CSR at any density.
        tensor = IrregularTensor(tensor, copy=False, density_threshold=1.0)
    slices = tensor.slices
    K = tensor.n_slices
    rank_stats = rank_report(config.rank, tensor.n_columns, tensor.row_counts)
    R = rank_stats["effective"]

    init = initialize_factors(tensor.n_columns, K, R, config.random_state)
    H, V, W = init.H, init.V, init.W
    slice_norms_sq = np.array([slice_squared_norm(Xk) for Xk in slices])

    monitor = ConvergenceMonitor(config.tolerance)
    history: list[IterationRecord] = []
    converged = False
    iteration = 0
    Q: list[np.ndarray] = [None] * K

    engine = get_backend(config.backend, config.n_threads)
    start = time.perf_counter()
    for iteration in range(1, config.max_iterations + 1):
        sweep_start = time.perf_counter()
        items = [(slices[k], (V * W[k]) @ H.T) for k in range(K)]
        pairs = engine.map(procrustes_step, items)
        Q = [Qk for Qk, _ in pairs]
        Y_slices = [Yk for _, Yk in pairs]

        # One CP sweep via slice-wise MTTKRP (no Y materialization).
        H = solve_gram(
            hadamard(W.T @ W, V.T @ V), slice_mttkrp(Y_slices, H, V, W, mode=1)
        )
        H, _ = normalize_columns(H)
        V = solve_gram(
            hadamard(W.T @ W, H.T @ H), slice_mttkrp(Y_slices, H, V, W, mode=2)
        )
        V, _ = normalize_columns(V)
        W = solve_gram(
            hadamard(V.T @ V, H.T @ H), slice_mttkrp(Y_slices, H, V, W, mode=3)
        )

        P = np.stack([Yk @ V for Yk in Y_slices])  # Qkᵀ Xk V
        error_sq = max(
            float(residuals_from_projections(slice_norms_sq, P, H, W, V).sum()),
            0.0,
        )

        history.append(
            IterationRecord(iteration, error_sq, time.perf_counter() - sweep_start)
        )
        if monitor.update(error_sq):
            converged = True
            break
    iterate_seconds = time.perf_counter() - start

    if Q and Q[0] is None:
        # Zero sweeps (``max_iterations=0``): factors from the initialization.
        Q = [procrustes_step((slices[k], (V * W[k]) @ H.T))[0] for k in range(K)]

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W,
        V=V,
        method="spartan",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=0.0,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=tensor.nbytes,
        history=history,
        stats={"rank": rank_stats},
    )
