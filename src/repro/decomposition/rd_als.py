"""RD-ALS — Cheng & Haardt's SVD-preprocessed PARAFAC2 baseline [18].

Preprocessing takes the rank-``R`` truncated SVD of the concatenation of
the transposed slices ``∥k Xkᵀ ∈ R^{J×ΣIk}`` — the paper explicitly
attributes RD-ALS's slow preprocessing to this step ("RD-ALS performs SVD
of the concatenated slice matrices", Section IV-B) — and projects every
slice onto the common right subspace: ``Gk = Xk V̂``.  ALS then runs on the
projected ``Ik×R`` slices, and the learned right factor is lifted back as
``V = V̂ Ṽ``.

Two properties the paper leans on are preserved faithfully:

* preprocessing materializes and SVDs the full-width concatenation —
  ``O(Σk Ik J²)`` with a dense-LAPACK constant — which is why DPar2's
  per-slice randomized SVDs beat it by up to 10× (Fig. 9(a));
* the convergence check evaluates the *true* reconstruction error
  ``Σk ‖Xk − Qk H Sk Vᵀ‖²`` against the raw slices every sweep —
  ``O(Σk Ik J R)`` — which is why its iterations stay well behind DPar2's
  (Fig. 9(b)) even though its CP step is compressed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import cp_single_iteration
from repro.decomposition.initialization import initialize_factors, rank_report
from repro.decomposition.parafac2_als import procrustes_step
from repro.decomposition.result import (
    IterationRecord,
    Parafac2Result,
    residuals_from_projections,
)
from repro.linalg.truncated_svd import truncated_svd
from repro.parallel.backends import get_backend
from repro.sparse.ops import slice_squared_norm
from repro.tensor.dense import DenseTensor
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig


def _criterion_projection(item) -> np.ndarray:
    """One slice's ``(Qkᵀ Xk) V`` from ``(Qk, Xk, V)``, against the raw slice."""
    Qk, Xk, V = item
    return (Qk.T @ Xk) @ V


def rd_als(
    tensor: IrregularTensor,
    config: DecompositionConfig | None = None,
    **overrides,
) -> Parafac2Result:
    """Fit PARAFAC2 with RD-ALS (preprocess, iterate on projected slices).

    Returns a :class:`Parafac2Result` whose ``preprocess_seconds`` covers the
    SVD of the concatenated slices and the slice projections, and whose
    ``preprocessed_bytes`` counts the projected slices plus ``V̂`` — the
    quantities Fig. 9(a) and Fig. 10 report for RD-ALS.

    The per-slice ``Qk`` update and the criterion's per-slice projection
    run over ``config.backend`` workers with Algorithm-4 load balancing on
    the row counts, as in :func:`~repro.decomposition.parafac2_als.parafac2_als`.
    """
    config = (config or DecompositionConfig()).with_(**overrides)
    if not isinstance(tensor, IrregularTensor):
        tensor = IrregularTensor(tensor)
    if tensor.has_sparse_slices:
        raise ValueError(
            "rd_als does not support sparse (CSR) slices; densify with "
            "tensor.densified(), or use dpar2/spartan"
        )
    rank_stats = rank_report(config.rank, tensor.n_columns, tensor.row_counts)
    R = rank_stats["effective"]

    # ------------------------------------------------------------------ #
    # preprocessing: common right subspace + slice projections
    # ------------------------------------------------------------------ #
    pre_start = time.perf_counter()
    # SVD of ∥k Xkᵀ (J × ΣIk), exactly the step the paper times for RD-ALS.
    concatenated = tensor.transpose_concatenation()
    V_hat = truncated_svd(concatenated, R).U  # J x R
    projected = [Xk @ V_hat for Xk in tensor]  # Ik x R each
    preprocess_seconds = time.perf_counter() - pre_start
    preprocessed_bytes = sum(Gk.nbytes for Gk in projected) + V_hat.nbytes

    # ------------------------------------------------------------------ #
    # ALS on the projected slices
    # ------------------------------------------------------------------ #
    init = initialize_factors(R, tensor.n_slices, R, config.random_state)
    H, V_tilde, W = init.H, init.V, init.W
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
        items = [(Gk, (V_tilde * W[k]) @ H.T) for k, Gk in enumerate(projected)]
        pairs = engine.map_partitioned(
            procrustes_step, items, weights=row_counts
        )
        Q = [Qk for Qk, _ in pairs]
        Y_slices = [Yk for _, Yk in pairs]

        Y = DenseTensor.from_frontal_slices(Y_slices)
        H, V_tilde, W = cp_single_iteration(
            (Y.unfold(1), Y.unfold(2), Y.unfold(3)), H, V_tilde, W
        )

        # RD-ALS's distinguishing (expensive) convergence criterion: the
        # true error against the raw slices, whose projection Qkᵀ Xk is
        # the O(Σk Ik J R) step the paper attributes to it.
        V_full = V_hat @ V_tilde
        P = np.stack(engine.map_partitioned(
            _criterion_projection,
            [(Q[k], Xk, V_full) for k, Xk in enumerate(tensor)],
            weights=row_counts,
        ))
        error_sq = max(
            float(residuals_from_projections(slice_norms_sq, P, H, W, V_full).sum()),
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
        Q = [
            procrustes_step((Gk, (V_tilde * W[k]) @ H.T))[0]
            for k, Gk in enumerate(projected)
        ]

    return Parafac2Result(
        Q=Q,
        H=H,
        S=W,
        V=V_hat @ V_tilde,
        method="rd_als",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=preprocess_seconds,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=preprocessed_bytes,
        history=history,
        stats={"rank": rank_stats},
    )
