"""Discovery pipeline — Section IV-E of the paper.

* :mod:`repro.analysis.correlation` — Pearson correlation of the rows of
  ``V`` (feature similarity heatmaps, Fig. 12).
* :mod:`repro.analysis.similarity` — the Gaussian similarity
  ``sim(si, sj) = exp(−γ‖U_si − U_sj‖²)`` between slices (Eq. 10) and the
  similarity-graph adjacency (Eq. 11).
* :mod:`repro.analysis.knn` — k-nearest-neighbour retrieval (Table III(a)).
* :mod:`repro.analysis.rwr` — Random Walk with Restart by power iteration
  (Eq. 12, Table III(b)).
"""

from repro.analysis.anomaly import anomaly_threshold, slice_anomaly_scores
from repro.analysis.correlation import (
    feature_correlation,
    model_feature_correlation,
    pearson_correlation,
)
from repro.analysis.knn import top_k_neighbors
from repro.analysis.metrics import (
    congruence,
    factor_match_score,
    parafac2_factor_match,
    subspace_angle,
)
from repro.analysis.rwr import random_walk_with_restart, row_normalize
from repro.analysis.similarity import similarity_graph, slice_similarity

__all__ = [
    "anomaly_threshold",
    "congruence",
    "factor_match_score",
    "feature_correlation",
    "model_feature_correlation",
    "parafac2_factor_match",
    "pearson_correlation",
    "random_walk_with_restart",
    "row_normalize",
    "similarity_graph",
    "slice_anomaly_scores",
    "slice_similarity",
    "subspace_angle",
    "top_k_neighbors",
]
