"""Random tensor constructors.

``random_irregular_tensor`` draws uniform-[0, 1) entries (Tensor Toolbox's
``tenrand``) for a given per-slice row-count profile, and
``low_rank_irregular_tensor`` plants a PARAFAC2-structured signal so that
fitness has a meaningful target.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.qr import random_orthonormal
from repro.tensor.irregular import IrregularTensor
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int


def random_irregular_tensor(
    row_counts,
    n_columns: int,
    random_state=None,
) -> IrregularTensor:
    """Uniform-[0, 1) irregular tensor with the given ``Ik`` profile."""
    counts = [check_positive_int(int(ik), "row count") for ik in row_counts]
    J = check_positive_int(n_columns, "n_columns")
    rng = as_generator(random_state)
    return IrregularTensor([rng.random((ik, J)) for ik in counts], copy=False)


def low_rank_irregular_tensor(
    row_counts,
    n_columns: int,
    rank: int,
    *,
    noise: float = 0.1,
    random_state=None,
) -> IrregularTensor:
    """Irregular tensor with an exact PARAFAC2 structure plus Gaussian noise.

    Each slice is ``Qk H Sk Vᵀ + noise·N(0,1)`` with column-orthogonal
    ``Qk`` — precisely the model class all four solvers fit, so fitness
    differences between methods reflect the solvers, not the data.
    """
    counts = [check_positive_int(int(ik), "row count") for ik in row_counts]
    J = check_positive_int(n_columns, "n_columns")
    R = check_positive_int(rank, "rank")
    if R > J:
        raise ValueError(f"rank {R} cannot exceed n_columns {J}")
    if any(ik < R for ik in counts):
        raise ValueError("every slice must have at least `rank` rows")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = as_generator(random_state)

    H = rng.standard_normal((R, R))
    V = random_orthonormal(J, R, rng)
    slices = []
    for ik in counts:
        Qk = random_orthonormal(ik, R, rng)
        sk = rng.uniform(0.5, 1.5, size=R)
        clean = Qk @ H @ np.diag(sk) @ V.T
        if noise > 0:
            clean = clean + noise * rng.standard_normal((ik, J))
        slices.append(clean)
    return IrregularTensor(slices, copy=False)
