"""Constrained DPar2 — COPA-style constraints on the compressed iteration.

The paper's related work (COPA [12]) shows that practical PARAFAC2 pipelines
often need constrained factors: non-negative weights for interpretability,
temporally smooth factors for longitudinal data.  COPA implements these for
*sparse* inputs; this module grafts the same two constraints onto DPar2's
compressed iteration, preserving its O(JR² + KR³) sweep cost:

* ``nonnegative_weights`` — after each ``W`` update, project onto the
  non-negative orthant (projected ALS).  ``Sk = diag(W(k, :)) ≥ 0`` makes
  slice weights read as intensities.
* ``smooth_v`` — ridge-style smoothing of ``V`` updates toward the previous
  iterate (proximal term), damping oscillation on noisy features.

Both default to off, in which case the solver matches :func:`dpar2` exactly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomposition.convergence import ConvergenceMonitor
from repro.decomposition.cp_als import normalize_columns
from repro.decomposition.dpar2 import (
    CompressedTensor,
    _batched_polar,
    _compressed_error,
    compress_tensor,
)
from repro.decomposition.initialization import initialize_factors
from repro.decomposition.result import IterationRecord, Parafac2Result
from repro.linalg.pinv import solve_gram
from repro.parallel.backends import get_backend
from repro.tensor.irregular import IrregularTensor
from repro.tensor.products import hadamard
from repro.util.config import DecompositionConfig


def project_nonnegative(matrix: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the non-negative orthant."""
    return np.clip(matrix, 0.0, None)


def constrained_dpar2(
    tensor: IrregularTensor,
    config: DecompositionConfig | None = None,
    *,
    nonnegative_weights: bool = False,
    smooth_v: float = 0.0,
    compressed: CompressedTensor | None = None,
    **overrides,
) -> Parafac2Result:
    """DPar2 with optional COPA-style constraints.

    Parameters
    ----------
    tensor:
        The irregular input ``{Xk}``.
    config:
        Shared hyper-parameters; keyword overrides apply on top.
    nonnegative_weights:
        Project ``W`` (hence every ``Sk``) onto the non-negative orthant
        after its least-squares update.
    smooth_v:
        Proximal weight ``µ ≥ 0``: each ``V`` update solves
        ``min ‖Y(2) − V (W ⊙ H)ᵀ‖² + µ‖V − V_prev‖²``, i.e. the normal
        matrix gains ``µ I`` and the right-hand side gains ``µ V_prev``.
    compressed:
        Optional precomputed :func:`compress_tensor` result.

    Returns
    -------
    Parafac2Result
        With ``method`` set to ``"constrained_dpar2"``.
    """
    config = (config or DecompositionConfig()).with_(**overrides)
    if smooth_v < 0:
        raise ValueError(f"smooth_v must be >= 0, got {smooth_v}")
    if not isinstance(tensor, IrregularTensor):
        tensor = IrregularTensor(tensor)
    R = min(config.rank, tensor.n_columns, min(tensor.row_counts))

    engine = get_backend(config.backend, config.n_threads)
    if compressed is None:
        compressed = compress_tensor(
            tensor,
            R,
            oversampling=config.oversampling,
            power_iterations=config.power_iterations,
            random_state=config.random_state,
            backend=engine,
        )
    elif compressed.rank < R:
        raise ValueError(
            f"precomputed compression has rank {compressed.rank} < target {R}"
        )

    D, E, F = compressed.D, compressed.E, compressed.F_blocks
    K = compressed.n_slices
    init = initialize_factors(tensor.n_columns, K, R, config.random_state)
    H, V, W = init.H, init.V, init.W

    FE = F * E
    data_term = float(np.sum(FE * FE))
    monitor = ConvergenceMonitor(config.tolerance)
    history: list[IterationRecord] = []
    converged = False
    iteration = 0
    polar = None

    start = time.perf_counter()
    for iteration in range(1, config.max_iterations + 1):
        sweep_start = time.perf_counter()
        EDtV = (D.T @ V) * E[:, None]
        small = np.einsum("kij,jr,kr,sr->kis", F, EDtV, W, H, optimize=True)
        polar = _batched_polar(small, config.n_threads, backend=engine)
        T = np.einsum("kji,kjs->kis", polar, F, optimize=True)

        G1 = np.einsum("kr,kij,jr->ir", W, T, EDtV, optimize=True)
        H = solve_gram(hadamard(W.T @ W, V.T @ V), G1)
        H, _ = normalize_columns(H)

        inner = np.einsum("kr,kji,jr->ir", W, T, H, optimize=True)
        G2 = (D * E) @ inner
        gram_v = hadamard(W.T @ W, H.T @ H)
        if smooth_v > 0:
            # Proximal/ridge update toward the previous V.
            gram_v = gram_v + smooth_v * np.eye(R)
            G2 = G2 + smooth_v * V
        V = solve_gram(gram_v, G2)
        V, _ = normalize_columns(V)

        EDtV = (D.T @ V) * E[:, None]
        G3 = np.einsum("ir,kij,jr->kr", H, T, EDtV, optimize=True)
        W = solve_gram(hadamard(V.T @ V, H.T @ H), G3)
        if nonnegative_weights:
            W = project_nonnegative(W)

        error_sq = _compressed_error(T, E, data_term, D, H, V, W)
        history.append(
            IterationRecord(iteration, error_sq, time.perf_counter() - sweep_start)
        )
        if monitor.update(error_sq):
            converged = True
            break
    iterate_seconds = time.perf_counter() - start

    Z_Pt = (
        polar
        if polar is not None
        else np.tile(np.eye(compressed.rank, R), (K, 1, 1))
    )
    Q = [compressed.A[k] @ Z_Pt[k] for k in range(K)]
    return Parafac2Result(
        Q=Q,
        H=H,
        S=W,
        V=V,
        method="constrained_dpar2",
        n_iterations=iteration,
        converged=converged,
        preprocess_seconds=compressed.seconds,
        iterate_seconds=iterate_seconds,
        preprocessed_bytes=compressed.nbytes,
        history=history,
    )
