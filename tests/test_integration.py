"""Integration tests across modules.

These exercise the full pipelines the paper's evaluation relies on:
all four solvers agreeing on quality, DPar2's compressed machinery matching
the exact ALS trajectory when compression is lossless, and the discovery
pipeline recovering planted structure end to end.
"""

import importlib

import numpy as np
import pytest

from repro import (
    DecompositionConfig,
    dpar2,
    parafac2_als,
    rd_als,
    spartan,
)
from repro.data.registry import load_dataset
from repro.tensor.random import low_rank_irregular_tensor
from repro.tensor.irregular import IrregularTensor

ALL_SOLVERS = (dpar2, rd_als, parafac2_als, spartan)


class TestCrossSolverAgreement:
    @pytest.fixture(scope="class")
    def tensor(self):
        return low_rank_irregular_tensor(
            [50, 70, 40, 60, 55], 30, rank=5, noise=0.03, random_state=10
        )

    @pytest.fixture(scope="class")
    def fits(self, tensor):
        config = DecompositionConfig(rank=5, max_iterations=40,
                                     random_state=10)
        return {
            solver.__name__: solver(tensor, config).fitness(tensor)
            for solver in ALL_SOLVERS
        }

    def test_all_reach_decent_fitness(self, fits):
        for name, fit in fits.items():
            assert fit > 0.6, f"{name} fitness only {fit:.3f}"

    def test_dpar2_comparable_to_best(self, fits):
        best = max(fits.values())
        assert best - fits["dpar2"] < 0.05  # the paper's "comparable"

    def test_exact_methods_agree_closely(self, fits):
        assert abs(fits["parafac2_als"] - fits["spartan"]) < 1e-6


class TestDpar2MatchesExactAlsWhenLossless:
    def test_noiseless_trajectories_align(self):
        """With exact-rank data the compression is lossless, so DPar2 and
        PARAFAC2-ALS optimize the same objective and reach the same fit."""
        tensor = low_rank_irregular_tensor(
            [40, 50, 45], 25, rank=4, noise=0.0, random_state=3
        )
        config = DecompositionConfig(rank=4, max_iterations=60,
                                     tolerance=1e-12, power_iterations=2,
                                     random_state=3)
        fit_fast = dpar2(tensor, config).fitness(tensor)
        fit_exact = parafac2_als(tensor, config).fitness(tensor)
        assert fit_fast == pytest.approx(fit_exact, abs=5e-3)
        assert fit_fast > 0.99


class TestRealisticDatasets:
    @pytest.mark.parametrize(
        "name,threshold",
        [
            ("activity", 0.35),  # 5 video classes x 8 latent dims >> rank 10
            ("traffic", 0.90),   # strongly low-rank daily profiles
        ],
    )
    def test_dpar2_beats_trivial_fit(self, name, threshold):
        tensor = load_dataset(name, random_state=0)
        config = DecompositionConfig(rank=10, max_iterations=10,
                                     random_state=0)
        result = dpar2(tensor, config)
        assert result.fitness(tensor) > threshold

    def test_rank_sweep_improves_fitness(self):
        tensor = load_dataset("activity", random_state=0)
        fits = []
        for rank in (2, 5, 10):
            config = DecompositionConfig(rank=rank, max_iterations=10,
                                         random_state=0)
            fits.append(dpar2(tensor, config).fitness(tensor))
        assert fits[0] < fits[-1]


class TestDiscoveryPipeline:
    def test_planted_clusters_recovered(self):
        """Slices generated from two distinct PARAFAC2 processes must be
        separated by the Uk-similarity + kNN pipeline."""
        from repro.analysis.knn import top_k_neighbors
        from repro.analysis.similarity import similarity_matrix
        from repro.linalg.qr import random_orthonormal

        rng = np.random.default_rng(0)
        R, J, I = 4, 20, 30
        V = random_orthonormal(J, R, rng)
        slices = []
        for group in range(2):
            H = rng.standard_normal((R, R))
            base_Q = random_orthonormal(I, R, rng)
            for _ in range(5):
                # Same temporal pattern per group, tiny perturbation.
                Q = np.linalg.qr(base_Q + 0.05 * rng.standard_normal((I, R)))[0]
                s = rng.uniform(0.9, 1.1, R)
                slices.append(Q @ H @ np.diag(s) @ V.T
                              + 0.01 * rng.standard_normal((I, J)))
        tensor = IrregularTensor(slices, copy=False)

        config = DecompositionConfig(rank=4, max_iterations=30,
                                     random_state=0)
        result = dpar2(tensor, config)
        factors = [result.U(k) for k in range(result.n_slices)]
        sims = similarity_matrix(factors, gamma=0.05)

        # For each slice, most nearest neighbours must be in its own group.
        correct = 0
        for query in range(10):
            neighbors = top_k_neighbors(sims, query, k=4)
            own_group = query // 5
            correct += sum(1 for i, _ in neighbors if i // 5 == own_group)
        assert correct >= 0.7 * 40

    def test_stock_pipeline_end_to_end(self):
        """generate -> standardize -> decompose -> rank similar stocks."""
        from repro.analysis.rwr import rwr_ranking
        from repro.analysis.similarity import similarity_graph
        from repro.data.stock import generate_market, standardize_features

        market = generate_market(n_stocks=12, max_days=90, min_days=90,
                                 random_state=1)
        tensor = standardize_features(market.tensor)
        result = dpar2(tensor, DecompositionConfig(rank=5, max_iterations=10,
                                                   random_state=1))
        factors = [result.U(k) for k in range(result.n_slices)]
        adjacency = similarity_graph(factors, gamma=0.01)
        ranking = rwr_ranking(adjacency, 0, k=5)
        assert len(ranking) == 5
        assert all(score > 0 for _, score in ranking)


class TestPublicApi:
    @pytest.mark.parametrize("package", [
        "repro", "repro.analysis", "repro.data", "repro.decomposition",
        "repro.experiments", "repro.linalg", "repro.obs", "repro.parallel",
        "repro.serve", "repro.sparse", "repro.tensor", "repro.util",
    ])
    def test_top_level_imports(self, package):
        """Every ``__all__`` entry resolves, so a deletion leaves none stale."""
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.2.0"

    def test_docstring_example(self):
        from repro import DecompositionConfig, dpar2, random_irregular_tensor

        tensor = random_irregular_tensor([40, 60, 50], n_columns=30,
                                         random_state=0)
        result = dpar2(tensor, DecompositionConfig(rank=5, random_state=0))
        assert 0.0 <= result.fitness(tensor) <= 1.0
