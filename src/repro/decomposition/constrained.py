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

Both are hooks of the one DPar2 sweep loop
(:func:`~repro.decomposition.sharded.sharded_dpar2`), so the solver honours
every :class:`~repro.util.config.DecompositionConfig` knob ``dpar2`` does —
``dtype``, ``compute_backend``, ``shards`` — and with both constraints off
it returns exactly what :func:`~repro.decomposition.dpar2.dpar2` returns.
"""

from __future__ import annotations

from repro.decomposition.dpar2 import CompressedTensor
from repro.decomposition.result import Parafac2Result
from repro.decomposition.sharded import project_nonnegative, sharded_dpar2
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig

__all__ = ["constrained_dpar2", "project_nonnegative"]


def constrained_dpar2(
    tensor: IrregularTensor | None,
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
        The irregular input ``{Xk}``, or ``None`` when ``compressed`` is
        given (as in :func:`~repro.decomposition.dpar2.dpar2`).
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
    return sharded_dpar2(
        tensor,
        config,
        compressed=compressed,
        nonnegative_weights=nonnegative_weights,
        smooth_v=smooth_v,
        method="constrained_dpar2",
    )
