"""PARAFAC2 solvers: the paper's contribution and its three competitors.

Public entry points
-------------------
* :func:`dpar2` — the paper's method (Algorithm 3).
* :func:`parafac2_als` — direct-fitting ALS baseline (Algorithm 2).
* :func:`rd_als` — Cheng & Haardt's SVD-preprocessed ALS.
* :func:`spartan` — SPARTan's slice-parallel MTTKRP ALS (dense-adapted,
  also accepts sparse slices).

PARAFAC2-ALS and RD-ALS share one inner CP step,
:func:`~repro.decomposition.cp_als.cp_single_iteration`.

All solvers accept a shared :class:`~repro.util.config.DecompositionConfig`
and return a :class:`~repro.decomposition.result.Parafac2Result`.
"""

from repro.decomposition.constrained import constrained_dpar2
from repro.decomposition.dpar2 import CompressedTensor, compress_tensor, dpar2
from repro.decomposition.parafac2_als import parafac2_als
from repro.decomposition.rd_als import rd_als
from repro.decomposition.registry import SOLVERS, get_solver
from repro.decomposition.result import Parafac2Result
from repro.decomposition.spartan import spartan
from repro.decomposition.streaming import StreamingDpar2

__all__ = [
    "CompressedTensor",
    "Parafac2Result",
    "SOLVERS",
    "StreamingDpar2",
    "compress_tensor",
    "constrained_dpar2",
    "dpar2",
    "get_solver",
    "parafac2_als",
    "rd_als",
    "spartan",
]
