"""CP-ALS kernels shared by the PARAFAC2 solvers.

* :func:`cp_single_iteration` — one ALS sweep over the factors of the small
  regular tensor ``Y ∈ R^{R×J×K}`` given its unfoldings; this is the inner
  step of PARAFAC2-ALS and RD-ALS (Algorithm 2, lines 11–16).
* :func:`normalize_columns` — the unit-norm column rescaling after each
  factor update (Algorithm 3, lines 15/17), shared with SPARTan and DPar2.

The MTTKRP ``X(n)(· ⊙ ·)`` dominates; :func:`cp_single_iteration`
materializes the Khatri–Rao product (the "naive" cost profile the paper
assigns to PARAFAC2-ALS), while :func:`slice_mttkrp` computes the same
quantities slice-by-slice without forming ``Y`` — the SPARTan-style kernel.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.pinv import solve_gram
from repro.tensor.products import hadamard, khatri_rao


def normalize_columns(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column to unit 2-norm; return (normalized, norms).

    Zero columns are left untouched (their reported norm is 1 so that the
    caller's rescaling is a no-op) — this happens legitimately when the data
    rank is below the target rank.
    """
    norms = np.linalg.norm(matrix, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return matrix / safe, np.where(norms > 0, norms, 1.0)


def cp_single_iteration(
    unfoldings: tuple[np.ndarray, np.ndarray, np.ndarray],
    H: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
    *,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One CP-ALS sweep updating ``H`` (mode 1), ``V`` (mode 2), ``W`` (mode 3).

    ``unfoldings`` are the three matricizations of the tensor being fitted.
    When ``normalize`` is set, the columns of the updated ``H`` and ``V`` are
    rescaled to unit norm (Algorithm 3, lines 15/17); all scale then flows
    into ``W``, i.e. into the diagonal factors ``Sk``.
    """
    Y1, Y2, Y3 = unfoldings

    H = solve_gram(hadamard(W.T @ W, V.T @ V), Y1 @ khatri_rao(W, V))
    if normalize:
        H, _ = normalize_columns(H)

    V = solve_gram(hadamard(W.T @ W, H.T @ H), Y2 @ khatri_rao(W, H))
    if normalize:
        V, _ = normalize_columns(V)

    W = solve_gram(hadamard(V.T @ V, H.T @ H), Y3 @ khatri_rao(V, H))
    return H, V, W


def slice_mttkrp(
    slices: list[np.ndarray],
    H: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
    mode: int,
) -> np.ndarray:
    """MTTKRP of the stacked tensor ``Y`` computed from its frontal slices.

    ``slices[k]`` is ``Yk = Y(:, :, k)`` of shape ``(R, J)``.  Computing the
    three products slice-wise avoids materializing ``Y`` or any Khatri–Rao
    product — this is SPARTan's formulation, and it parallelizes over ``k``.

    mode 1: ``Σk Yk V diag(W[k])``        → shape ``(R, R)``
    mode 2: ``Σk Ykᵀ H diag(W[k])``       → shape ``(J, R)``
    mode 3: rows ``Σj (Ykᵀ H ∗ V)[j]``    → shape ``(K, R)``
    """
    if mode == 1:
        out = np.zeros((H.shape[0], H.shape[1]))
        for k, Yk in enumerate(slices):
            out += (Yk @ V) * W[k]
        return out
    if mode == 2:
        out = np.zeros((V.shape[0], V.shape[1]))
        for k, Yk in enumerate(slices):
            out += (Yk.T @ H) * W[k]
        return out
    if mode == 3:
        out = np.zeros((len(slices), H.shape[1]))
        for k, Yk in enumerate(slices):
            out[k] = np.sum((Yk.T @ H) * V, axis=0)
        return out
    raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
