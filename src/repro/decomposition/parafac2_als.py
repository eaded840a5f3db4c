"""PARAFAC2-ALS — the direct-fitting baseline (Algorithm 2, Kiers et al.).

Every sweep touches the raw slices twice: an ``Ik×R`` SVD to update ``Qk``
and the projection ``Yk = Qkᵀ Xk`` — both ``O(Σk Ik J R)`` — followed by a
single CP-ALS iteration on the stacked ``R×J×K`` tensor computed naively
(full unfoldings and materialized Khatri–Rao products).  This cost profile
is exactly the one the paper contrasts DPar2 against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import cp_single_iteration
from repro.decomposition.initialization import initialize_factors, rank_report
from repro.decomposition.result import (
    IterationRecord,
    Parafac2Result,
    residuals_from_projections,
)
from repro.linalg.truncated_svd import polar
from repro.parallel.backends import get_backend
from repro.sparse.ops import slice_squared_norm
from repro.tensor.dense import DenseTensor
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig


def procrustes_step(item) -> tuple[np.ndarray, np.ndarray]:
    """One slice's ``(Qk, Qkᵀ Xk)`` from ``(Xk, V Sk Hᵀ)`` (Alg. 2, lines 4–5).

    ``Qk = Zk Pkᵀ`` from the SVD ``Zk Σk Pkᵀ`` of ``Xk V Sk Hᵀ`` is the
    Procrustes minimizer of ``‖Xk − Qk H Sk Vᵀ‖`` over column-orthogonal
    ``Qk``.  PARAFAC2-ALS, RD-ALS (on its projected slices) and SPARTan
    all update ``Qk`` here.  ``Xk`` is a dense array or a
    :class:`~repro.sparse.csr.CsrMatrix`, read in place — in RAM or
    memory-mapped — so worker threads copy nothing per sweep; a CSR
    slice's products run through its SpMM kernels and pin no transpose.
    """
    Xk, target = item
    Qk = polar(Xk @ target)
    return Qk, Qk.T @ Xk


def parafac2_als(
    tensor: IrregularTensor,
    config: DecompositionConfig | None = None,
    **overrides,
) -> Parafac2Result:
    """Fit PARAFAC2 by direct ALS (Algorithm 2).

    Parameters
    ----------
    tensor:
        The irregular input ``{Xk}``.
    config:
        Shared hyper-parameters; keyword overrides (e.g. ``rank=15``) are
        applied on top.

    Returns
    -------
    Parafac2Result
        With ``preprocess_seconds == 0`` (this method has no preprocessing)
        and ``preprocessed_bytes`` equal to the input size, matching how
        Fig. 10 accounts for methods that iterate on the raw tensor.

    Notes
    -----
    The per-slice ``Qk`` update and projection are distributed over
    ``config.backend`` workers with Algorithm-4 load balancing on the row
    counts — the same slice-parallelism DPar2's compression uses, so the
    baseline is not handicapped in multi-worker comparisons.
    """
    config = (config or DecompositionConfig()).with_(**overrides)
    if not isinstance(tensor, IrregularTensor):
        tensor = IrregularTensor(tensor)
    if tensor.has_sparse_slices:
        raise ValueError(
            "parafac2_als does not support sparse (CSR) slices; densify "
            "with tensor.densified(), or use dpar2/spartan"
        )
    rank_stats = rank_report(config.rank, tensor.n_columns, tensor.row_counts)
    R = rank_stats["effective"]

    init = initialize_factors(
        tensor.n_columns, tensor.n_slices, R, config.random_state
    )
    H, V, W = init.H, init.V, init.W
    slice_norms_sq = np.array([slice_squared_norm(Xk) for Xk in tensor])

    monitor = ConvergenceMonitor(config.tolerance)
    history: list[IterationRecord] = []
    Q: list[np.ndarray] = [None] * tensor.n_slices
    converged = False
    iteration = 0
    row_counts = tensor.row_counts

    engine = get_backend(config.backend, config.n_threads)
    start = time.perf_counter()
    for iteration in range(1, config.max_iterations + 1):
        sweep_start = time.perf_counter()
        items = [(Xk, (V * W[k]) @ H.T) for k, Xk in enumerate(tensor)]
        pairs = engine.map_partitioned(
            procrustes_step, items, weights=row_counts
        )
        Q = [Qk for Qk, _ in pairs]
        Y_slices = [Yk for _, Yk in pairs]

        Y = DenseTensor.from_frontal_slices(Y_slices)
        H, V, W = cp_single_iteration(
            (Y.unfold(1), Y.unfold(2), Y.unfold(3)), H, V, W
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
        # Zero sweeps (``max_iterations=0``): materialize the Procrustes
        # factors implied by the random initialization.
        Q = [
            procrustes_step((Xk, (V * W[k]) @ H.T))[0]
            for k, Xk in enumerate(tensor)
        ]

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W,
        V=V,
        method="parafac2_als",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=0.0,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=tensor.nbytes,
        history=history,
        stats={"rank": rank_stats},
    )
