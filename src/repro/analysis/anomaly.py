"""Anomaly scoring from a fitted PARAFAC2 model.

Fault detection is one of PARAFAC2's canonical applications (the paper
cites Wise et al. [14], semiconductor etch monitoring): fit the model to
normal operation, then flag slices or time steps the model reconstructs
poorly.  Scores are plain relative reconstruction errors so they compose
with any thresholding policy.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition.result import Parafac2Result
from repro.sparse.ops import slice_squared_norm
from repro.tensor.irregular import IrregularTensor


def slice_anomaly_scores(
    result: Parafac2Result,
    tensor: IrregularTensor,
) -> np.ndarray:
    """Per-slice relative reconstruction error ``‖Xk − X̂k‖ / ‖Xk‖``.

    A slice that does not follow the shared latent structure (a faulty
    batch, a manipulated stock, a corrupted recording) scores high.
    Zero-norm slices score 0 by convention.  The residuals come from
    :meth:`~repro.decomposition.result.Parafac2Result.slice_residuals_squared`,
    so nothing slice-sized is reconstructed and CSR slices are accepted.
    """
    residuals = result.slice_residuals_squared(tensor)
    norms_sq = np.array([slice_squared_norm(Xk) for Xk in tensor])
    scores = np.zeros(tensor.n_slices)
    nonzero = norms_sq > 0.0
    scores[nonzero] = np.sqrt(
        np.maximum(residuals[nonzero], 0.0) / norms_sq[nonzero]
    )
    return scores


def row_anomaly_scores(
    result: Parafac2Result,
    tensor: IrregularTensor,
    k: int,
) -> np.ndarray:
    """Per-time-step relative error within slice ``k``.

    Localizes *when* a slice deviates: returns one score per row of
    ``Xk``, each the residual norm of that row over the row norm (rows
    with zero norm score 0).
    """
    if not 0 <= k < tensor.n_slices:
        raise IndexError(f"slice {k} out of range [0, {tensor.n_slices})")
    Xk = tensor[k]
    residual = Xk - result.reconstruct_slice(k)
    row_norms = np.linalg.norm(Xk, axis=1)
    res_norms = np.linalg.norm(residual, axis=1)
    return np.where(row_norms > 0, res_norms / np.where(row_norms > 0, row_norms, 1.0), 0.0)


def anomaly_threshold(scores, *, n_sigmas: float = 3.0) -> float:
    """A robust flagging threshold: ``median + n_sigmas · MAD·1.4826``.

    The median absolute deviation resists contamination by the anomalies
    themselves; 1.4826 rescales MAD to a Gaussian sigma.
    """
    values = np.asarray(scores, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("scores must be non-empty")
    if n_sigmas <= 0:
        raise ValueError(f"n_sigmas must be positive, got {n_sigmas}")
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    return median + n_sigmas * 1.4826 * mad
