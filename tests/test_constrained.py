"""Tests for the COPA-style constrained DPar2 extension."""

import numpy as np
import pytest

from repro.decomposition.constrained import constrained_dpar2, project_nonnegative
from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.util.config import DecompositionConfig
from tests.conftest import assert_valid_parafac2_result


class TestProjection:
    def test_clips_negatives(self):
        out = project_nonnegative(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0], [0.0, 0.0]])

    def test_idempotent(self, rng):
        x = np.abs(rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(project_nonnegative(x), x)


class TestUnconstrainedEquivalence:
    def test_matches_plain_dpar2(self, structured_tensor):
        """With every constraint off, the solver must equal dpar2 exactly."""
        config = DecompositionConfig(rank=4, max_iterations=8,
                                     tolerance=0.0, random_state=0)
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        plain = dpar2(structured_tensor, config, compressed=compressed)
        constrained = constrained_dpar2(
            structured_tensor, config, compressed=compressed
        )
        assert np.array_equal(constrained.V, plain.V)
        assert np.array_equal(constrained.H, plain.H)
        assert np.array_equal(constrained.S, plain.S)

    def test_bitwise_equal_to_dpar2_without_compression(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=8,
                                     tolerance=0.0, random_state=0)
        plain = dpar2(structured_tensor, config)
        constrained = constrained_dpar2(structured_tensor, config)
        assert constrained.method == "constrained_dpar2"
        for Qa, Qb in zip(constrained.Q, plain.Q):
            assert np.array_equal(Qa, Qb)
        assert np.array_equal(constrained.V, plain.V)
        assert np.array_equal(constrained.H, plain.H)
        assert np.array_equal(constrained.S, plain.S)
        assert [r.criterion for r in constrained.history] == [
            r.criterion for r in plain.history
        ]


class TestConfigHonoured:
    def test_float32_config_gives_float32_factors(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=5,
                                     random_state=0, dtype="float32")
        result = constrained_dpar2(
            structured_tensor, config, nonnegative_weights=True, smooth_v=0.1
        )
        assert result.V.dtype == np.float32
        assert result.S.dtype == np.float32
        assert all(Qk.dtype == np.float32 for Qk in result.Q)
        assert np.all(result.S >= 0.0)

    def test_shards_run_through_the_coordinator(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=5, random_state=0,
                                     shards=2, shard_backend="serial")
        result = constrained_dpar2(
            structured_tensor, config, nonnegative_weights=True
        )
        assert result.stats["sharding"]["shards"] == 2
        assert np.all(result.S >= 0.0)
        invariant = constrained_dpar2(
            structured_tensor, config.with_(shards=1), nonnegative_weights=True
        )
        assert np.array_equal(result.S, invariant.S)
        assert np.array_equal(result.V, invariant.V)


class TestNonnegativeWeights:
    def test_weights_are_nonnegative(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=10,
                                     random_state=0)
        result = constrained_dpar2(
            structured_tensor, config, nonnegative_weights=True
        )
        assert np.all(result.S >= 0.0)

    def test_result_still_valid(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=10,
                                     random_state=0)
        result = constrained_dpar2(
            structured_tensor, config, nonnegative_weights=True
        )
        assert result.method == "constrained_dpar2"
        assert_valid_parafac2_result(result, structured_tensor)

    def test_fitness_cost_is_bounded(self, structured_tensor):
        """Projection may cost fitness but must stay in the same regime."""
        config = DecompositionConfig(rank=4, max_iterations=20,
                                     random_state=0)
        free = dpar2(structured_tensor, config).fitness(structured_tensor)
        constrained = constrained_dpar2(
            structured_tensor, config, nonnegative_weights=True
        ).fitness(structured_tensor)
        assert constrained > free - 0.25


class TestSmoothV:
    def test_zero_smoothing_matches_plain(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=5,
                                     tolerance=0.0, random_state=0)
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        a = constrained_dpar2(structured_tensor, config,
                              compressed=compressed, smooth_v=0.0)
        b = dpar2(structured_tensor, config, compressed=compressed)
        assert np.array_equal(a.V, b.V)

    def test_smoothing_damps_updates(self, structured_tensor):
        """Stronger smoothing keeps V closer to its initialization after
        one sweep."""
        from repro.decomposition.initialization import initialize_factors

        config = DecompositionConfig(rank=4, max_iterations=1,
                                     tolerance=0.0, random_state=0)
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        init = initialize_factors(
            structured_tensor.n_columns, structured_tensor.n_slices, 4,
            random_state=0,
        )
        light = constrained_dpar2(structured_tensor, config,
                                  compressed=compressed, smooth_v=0.0)
        heavy = constrained_dpar2(structured_tensor, config,
                                  compressed=compressed, smooth_v=100.0)
        # Compare subspace distance to the initial V (sign-insensitive).
        def distance(V):
            P = V @ V.T
            P0 = init.V @ init.V.T
            return np.linalg.norm(P - P0)

        assert distance(heavy.V) < distance(light.V)

    def test_negative_smoothing_rejected(self, structured_tensor):
        with pytest.raises(ValueError, match="smooth_v"):
            constrained_dpar2(
                structured_tensor,
                DecompositionConfig(rank=4, max_iterations=1),
                smooth_v=-1.0,
            )

    def test_smoothed_fitness_reasonable(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=15,
                                     random_state=0)
        result = constrained_dpar2(structured_tensor, config, smooth_v=0.1)
        assert result.fitness(structured_tensor) > 0.5
