"""Linear-algebra substrate.

Everything the decompositions need, implemented from scratch on top of the
dense BLAS/LAPACK kernels numpy exposes:

* :func:`randomized_svd` — Algorithm 1 of the paper (Halko et al. sketch +
  power iteration), the compression primitive of DPar2.
* :func:`truncated_svd` — deterministic rank-``R`` SVD (RD-ALS's
  preprocessing).
* :func:`polar` — the orthogonal Procrustes factor ``Z Pᵀ`` of a thin SVD,
  of one matrix or a stack: the ``Qk`` update of every PARAFAC2 solver
  (the baselines' slice SVDs, DPar2's ``R×R`` inner SVDs, the serving
  fold-in).
* :func:`pseudoinverse` / :func:`solve_gram` — shared helpers.
* :mod:`repro.linalg.kernels` — batched/stacked kernels for the DPar2 hot
  paths: :func:`batched_randomized_svd` (bucketed stage-1 compression),
  :func:`batched_stacked_matmul`, and the allocation-free
  :class:`~repro.linalg.kernels.CellSweepWorkspace` behind the DPar2
  sweep loop.
* :mod:`repro.linalg.array_module` — the ``xp`` dispatch layer that lets
  every kernel above run on numpy (default, bitwise-stable), PyTorch
  (CPU/CUDA), or CuPy: :func:`get_xp` resolves a backend name into an
  :class:`ArrayModule`.
"""

from repro.linalg.array_module import (
    COMPUTE_BACKEND_NAMES,
    ArrayModule,
    BackendUnavailableError,
    backend_available,
    get_xp,
)
from repro.linalg.kernels import (
    batched_randomized_svd,
    batched_stacked_matmul,
    bucket_by_rows,
)
from repro.linalg.pinv import pseudoinverse, solve_gram
from repro.linalg.randomized_svd import RandomizedSVDResult, randomized_svd
from repro.linalg.truncated_svd import polar, truncated_svd

__all__ = [
    "ArrayModule",
    "BackendUnavailableError",
    "COMPUTE_BACKEND_NAMES",
    "RandomizedSVDResult",
    "backend_available",
    "get_xp",
    "batched_randomized_svd",
    "batched_stacked_matmul",
    "bucket_by_rows",
    "polar",
    "pseudoinverse",
    "randomized_svd",
    "solve_gram",
    "truncated_svd",
]
