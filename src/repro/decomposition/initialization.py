"""Rank resolution and factor initialization for ALS-style PARAFAC2 solvers.

All four methods fit the same rank, ``R = min(rank, J, min Ik)``
(:func:`effective_rank`), and report it the same way (:func:`rank_report`).
They initialize identically (Algorithm 2/3, line 1): ``H`` as the ``R×R``
identity, ``V`` with orthonormal columns, and every ``Sk`` as the
identity — the standard direct-fitting initialization of Kiers et al.,
which keeps cross-method fitness comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.qr import random_orthonormal
from repro.obs.metrics import get_registry
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int


def effective_rank(rank: int, n_columns: int, row_counts) -> int:
    """The rank a run fits: ``min(rank, J, min Ik)``.

    Every ``Qk`` needs ``R`` orthonormal columns in ``Ik`` rows, so the
    shortest slice (or the column count) caps the rank of the whole model.
    """
    return min(rank, n_columns, min(row_counts))


def rank_report(rank: int, n_columns: int, row_counts) -> dict:
    """A run's ``stats["rank"]``; a clamped run is counted.

    Holds the requested and the :func:`effective_rank`, the slices with
    fewer rows than requested and whether J was too small.  Every solver
    calls this once per run, after validating its input, and fits the
    ``"effective"`` rank; a run whose effective rank falls below the
    requested one increments ``repro_decompose_rank_clamps_total``.
    """
    report = {
        "requested": rank,
        "effective": effective_rank(rank, n_columns, row_counts),
        "short_slices": [k for k, rows in enumerate(row_counts) if rows < rank],
        "column_limited": n_columns < rank,
    }
    if report["effective"] < rank:
        get_registry().counter(
            "repro_decompose_rank_clamps_total",
            "Decompositions whose effective rank fell below the requested rank.",
        ).inc()
    return report


@dataclass
class InitialFactors:
    """The shared starting point ``(H, V, W)`` of an ALS run.

    ``W`` is the ``K×R`` matrix whose rows are ``diag(Sk)``.
    """

    H: np.ndarray
    V: np.ndarray
    W: np.ndarray


def initialize_factors(
    n_columns: int,
    n_slices: int,
    rank: int,
    random_state=None,
) -> InitialFactors:
    """Build the initial ``H``, ``V``, ``W`` for a rank-``rank`` run.

    Parameters
    ----------
    n_columns:
        ``J`` — the shared column dimension, rows of ``V``.
    n_slices:
        ``K`` — number of slices, rows of ``W``.
    rank:
        Target rank ``R``.
    random_state:
        Seed/generator for the random orthonormal ``V``.  With ``J >= R``
        (the usual case) ``V`` starts orthonormal; otherwise it falls back
        to i.i.d. Gaussian columns.
    """
    J = check_positive_int(n_columns, "n_columns")
    K = check_positive_int(n_slices, "n_slices")
    R = check_positive_int(rank, "rank")
    rng = as_generator(random_state)

    H = np.eye(R)
    if J >= R:
        V = random_orthonormal(J, R, rng)
    else:
        V = rng.standard_normal((J, R))
    W = np.ones((K, R))
    return InitialFactors(H=H, V=V, W=W)
