"""repro — a from-scratch reproduction of DPar2 (ICDE 2022).

DPar2 (Jang & Kang) is a fast and scalable PARAFAC2 decomposition method for
irregular *dense* tensors.  This package implements the method, the three
baselines it is evaluated against, every substrate they need, synthetic
equivalents of the paper's datasets, the discovery pipeline of Section IV-E,
and one harness per table/figure of the evaluation.

Quickstart
----------
>>> from repro import DecompositionConfig, dpar2, random_irregular_tensor
>>> tensor = random_irregular_tensor([40, 60, 50], n_columns=30, random_state=0)
>>> result = dpar2(tensor, DecompositionConfig(rank=5, random_state=0))
>>> 0.0 <= result.fitness(tensor) <= 1.0
True
"""

from repro.decomposition import (
    CompressedTensor,
    Parafac2Result,
    SOLVERS,
    StreamingDpar2,
    compress_tensor,
    constrained_dpar2,
    dpar2,
    get_solver,
    parafac2_als,
    rd_als,
    spartan,
)
from repro.tensor import (
    DenseTensor,
    IrregularTensor,
    MmapSliceStore,
    random_irregular_tensor,
)
from repro.util.config import DecompositionConfig

__version__ = "1.2.0"

__all__ = [
    "CompressedTensor",
    "DecompositionConfig",
    "DenseTensor",
    "IrregularTensor",
    "MmapSliceStore",
    "Parafac2Result",
    "SOLVERS",
    "StreamingDpar2",
    "compress_tensor",
    "constrained_dpar2",
    "dpar2",
    "get_solver",
    "parafac2_als",
    "random_irregular_tensor",
    "rd_als",
    "spartan",
]
