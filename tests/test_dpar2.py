"""Tests for DPar2 (Algorithm 3): compression, update rules, convergence."""

import numpy as np
import pytest

from repro.decomposition.dpar2 import CompressedTensor, compress_tensor, dpar2
from repro.decomposition.initialization import InitialFactors, initialize_factors
from repro.decomposition.parafac2_als import parafac2_als
from repro.decomposition.rd_als import rd_als
from repro.decomposition.spartan import spartan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig
from tests.conftest import assert_same_fit, assert_valid_parafac2_result


class TestCompression:
    def test_factor_shapes(self, small_tensor):
        R = 3
        c = compress_tensor(small_tensor, R, random_state=0)
        assert c.rank == R
        assert c.n_slices == small_tensor.n_slices
        assert c.D.shape == (small_tensor.n_columns, R)
        assert c.E.shape == (R,)
        assert c.F_blocks.shape == (small_tensor.n_slices, R, R)
        for k, Ak in enumerate(c.A):
            assert Ak.shape == (small_tensor.row_counts[k], R)

    def test_A_orthonormal(self, small_tensor):
        c = compress_tensor(small_tensor, 3, random_state=0)
        for Ak in c.A:
            np.testing.assert_allclose(Ak.T @ Ak, np.eye(3), atol=1e-8)

    def test_D_orthonormal(self, small_tensor):
        c = compress_tensor(small_tensor, 3, random_state=0)
        np.testing.assert_allclose(c.D.T @ c.D, np.eye(3), atol=1e-8)

    def test_exact_on_low_rank_data(self):
        tensor = low_rank_irregular_tensor([25, 30, 20], 15, rank=3,
                                           noise=0.0, random_state=0)
        c = compress_tensor(tensor, 3, power_iterations=2, random_state=0)
        for k, Xk in enumerate(tensor):
            np.testing.assert_allclose(c.reconstruct_slice(k), Xk, atol=1e-6)

    def test_compression_shrinks_storage(self, structured_tensor):
        c = compress_tensor(structured_tensor, 4, random_state=0)
        assert c.nbytes < structured_tensor.nbytes
        assert c.compression_ratio(structured_tensor) > 1.0

    def test_threaded_matches_sequential(self, structured_tensor):
        a = compress_tensor(structured_tensor, 4, random_state=5, n_threads=1)
        b = compress_tensor(structured_tensor, 4, random_state=5, n_threads=3)
        for Ak, Bk in zip(a.A, b.A):
            np.testing.assert_allclose(Ak, Bk, atol=1e-10)
        np.testing.assert_allclose(a.D, b.D, atol=1e-10)

    def test_naive_partition_matches_greedy(self, structured_tensor):
        a = compress_tensor(structured_tensor, 4, random_state=5,
                            n_threads=2, use_greedy_partition=True)
        b = compress_tensor(structured_tensor, 4, random_state=5,
                            n_threads=2, use_greedy_partition=False)
        np.testing.assert_allclose(a.D, b.D, atol=1e-10)

    def test_records_time(self, small_tensor):
        c = compress_tensor(small_tensor, 3, random_state=0)
        assert c.seconds > 0.0

    def test_inconsistent_shapes_rejected(self, small_tensor):
        c = compress_tensor(small_tensor, 3, random_state=0)
        with pytest.raises(ValueError, match="E must have shape"):
            CompressedTensor(A=c.A, D=c.D, E=np.ones(5), F_blocks=c.F_blocks)


class TestDpar2:
    def test_result_structure(self, small_tensor, default_config):
        result = dpar2(small_tensor, default_config)
        assert result.method == "dpar2"
        assert_valid_parafac2_result(result, small_tensor)

    def test_fits_noiseless_data(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=100,
                                     tolerance=1e-12, power_iterations=2,
                                     random_state=0)
        result = dpar2(noiseless_tensor, config)
        assert result.fitness(noiseless_tensor) > 0.99

    def test_comparable_fitness_to_exact_als(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=30, random_state=0)
        fit_fast = dpar2(structured_tensor, config).fitness(structured_tensor)
        fit_exact = parafac2_als(structured_tensor, config).fitness(structured_tensor)
        assert abs(fit_fast - fit_exact) < 0.05

    def test_criterion_monotone(self, structured_tensor, default_config):
        result = dpar2(structured_tensor, default_config)
        values = [r.criterion for r in result.history]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6 * max(abs(earlier), 1.0)

    def test_compressed_criterion_equals_exact_identity(self, structured_tensor):
        """Section III-E: the compressed criterion equals
        Σk ‖Ak F(k) E Dᵀ − X̂k‖² computed on materialized matrices."""
        config = DecompositionConfig(rank=4, max_iterations=5,
                                     tolerance=0.0, random_state=0)
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        result = dpar2(structured_tensor, config, compressed=compressed)

        # Recompute the criterion naively from the returned factors.
        naive = 0.0
        for k in range(result.n_slices):
            X_tilde = compressed.reconstruct_slice(k)
            X_hat = result.reconstruct_slice(k)
            naive += np.sum((X_tilde - X_hat) ** 2)
        assert result.history[-1].criterion == pytest.approx(naive, rel=1e-6)

    def test_exact_convergence_ablation(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=5,
                                     tolerance=0.0, random_state=0)
        result = dpar2(structured_tensor, config, exact_convergence=True)
        exact = result.residual_squared(structured_tensor)
        assert result.history[-1].criterion == pytest.approx(exact, rel=1e-6)

    def test_precomputed_compression_reused(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=5, random_state=0)
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        result = dpar2(structured_tensor, config, compressed=compressed)
        assert result.preprocess_seconds == compressed.seconds
        assert result.preprocessed_bytes == compressed.nbytes

    def test_precomputed_compression_rank_check(self, structured_tensor):
        compressed = compress_tensor(structured_tensor, 2, random_state=0)
        with pytest.raises(ValueError, match="rank"):
            dpar2(structured_tensor,
                  DecompositionConfig(rank=4, max_iterations=2),
                  compressed=compressed)

    def test_deterministic_given_seed(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=8, random_state=9)
        a = dpar2(structured_tensor, config)
        b = dpar2(structured_tensor, config)
        np.testing.assert_allclose(a.V, b.V, atol=1e-12)
        np.testing.assert_allclose(a.H, b.H, atol=1e-12)

    def test_threaded_iterations_match(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=8,
                                     tolerance=0.0, random_state=2)
        seq = dpar2(structured_tensor, config)
        par = dpar2(structured_tensor, config.with_(n_threads=3))
        assert seq.fitness(structured_tensor) == pytest.approx(
            par.fitness(structured_tensor), abs=1e-6
        )

    def test_preprocessed_smaller_than_input(self, structured_tensor,
                                             default_config):
        result = dpar2(structured_tensor, default_config)
        assert result.preprocessed_bytes < structured_tensor.nbytes

    def test_rank_capped_by_smallest_slice(self, rng):
        from repro.tensor.random import random_irregular_tensor

        tensor = random_irregular_tensor([4, 20, 20], 10, random_state=0)
        result = dpar2(tensor, DecompositionConfig(rank=8, max_iterations=2))
        assert result.rank == 4

    def test_keyword_overrides(self, small_tensor, default_config):
        result = dpar2(small_tensor, default_config, rank=2, max_iterations=3)
        assert result.rank == 2
        assert result.n_iterations <= 3

    def test_converges(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=200,
                                     tolerance=1e-6, random_state=0)
        result = dpar2(noiseless_tensor, config)
        assert result.converged


class TestZeroIterations:
    """Regression: ``max_iterations=0`` must not hit an unbound ``polar``.

    The sweep loop never runs, so the solver has to materialize
    ``Qk = Ak`` (identity polar factor) instead of reading a name only the
    loop body binds.
    """

    def test_dpar2_zero_sweeps(self, structured_tensor):
        result = dpar2(
            structured_tensor,
            DecompositionConfig(rank=4, max_iterations=0, random_state=0),
        )
        assert result.n_iterations == 0
        assert result.converged is False
        assert result.history == []
        assert_valid_parafac2_result(result, structured_tensor)

    def test_dpar2_zero_sweeps_q_equals_compression_subspace(
        self, structured_tensor
    ):
        compressed = compress_tensor(structured_tensor, 4, random_state=0)
        result = dpar2(
            structured_tensor,
            DecompositionConfig(rank=4, max_iterations=0, random_state=0),
            compressed=compressed,
        )
        for Qk, Ak in zip(result.Q, compressed.A):
            np.testing.assert_array_equal(Qk, Ak)

    def test_all_solvers_survive_zero_sweeps(self, structured_tensor):
        from repro.decomposition.registry import SOLVERS

        config = DecompositionConfig(rank=3, max_iterations=0, random_state=1)
        for name, solver in SOLVERS.items():
            result = solver(structured_tensor, config)
            assert result.n_iterations == 0, name
            assert_valid_parafac2_result(result, structured_tensor)


class TestHigherRankCompressionReuse:
    """A precomputed compression may have more rank than the target; its
    extra directions must be truncated, not crash the polar SVDs."""

    def test_higher_rank_compressed_accepted(self, structured_tensor):
        compressed = compress_tensor(structured_tensor, 6, random_state=0)
        result = dpar2(
            structured_tensor,
            DecompositionConfig(rank=3, max_iterations=4, random_state=0),
            compressed=compressed,
        )
        assert_valid_parafac2_result(result, structured_tensor)
        assert result.rank == 3

    def test_higher_rank_compressed_zero_sweeps(self, structured_tensor):
        compressed = compress_tensor(structured_tensor, 6, random_state=0)
        result = dpar2(
            structured_tensor,
            DecompositionConfig(rank=3, max_iterations=0, random_state=0),
            compressed=compressed,
        )
        for Qk, Ak in zip(result.Q, compressed.A):
            np.testing.assert_array_equal(Qk, Ak[:, :3])


class TestFloat32Accuracy:
    """The fma stand-in at rank 10, seed 0, in float32.

    Its ``H Sk`` is ill-conditioned, which amplifies any float32 rounding
    of ``VᵀV`` past the residual itself: with a float32 Gram the criterion
    reads 0 after sweep 1, the run stops "converged" at sweep 14, and
    fitness comes out 0.0043 too high.
    """

    @pytest.fixture(scope="class")
    def fma(self):
        from repro.data.registry import load_dataset

        return load_dataset("fma", random_state=0)

    @staticmethod
    def _model64(result, k):
        H, S, V = (np.asarray(M, np.float64) for M in (result.H, result.S, result.V))
        return np.asarray(result.Q[k], np.float64) @ (H * S[k]) @ V.T

    def test_criterion_is_exact_compressed_error(self, fma):
        tensor = fma.astype(np.float32)
        compressed = compress_tensor(tensor, 10, random_state=0)
        D, E = (np.asarray(M, np.float64) for M in (compressed.D, compressed.E))
        config = DecompositionConfig(
            rank=10, tolerance=0.0, random_state=0, dtype="float32"
        )
        for sweeps in (1, 3, 8):
            result = dpar2(
                tensor, config.with_(max_iterations=sweeps), compressed=compressed
            )
            exact = sum(
                np.sum((
                    np.asarray(compressed.A[k], np.float64)
                    @ (np.asarray(compressed.F_blocks[k], np.float64) * E) @ D.T
                    - self._model64(result, k)
                ) ** 2)
                for k in range(tensor.n_slices)
            )
            assert result.history[-1].criterion == pytest.approx(exact, rel=1e-3)

    def test_fitness_matches_float64_evaluation(self, fma):
        result = dpar2(fma, DecompositionConfig(rank=10, random_state=0, dtype="float32"))
        for data in (fma, fma.astype(np.float32)):
            dense = [np.asarray(Xk, np.float64) for Xk in data]
            direct = 1.0 - sum(
                np.sum((Xk - self._model64(result, k)) ** 2)
                for k, Xk in enumerate(dense)
            ) / sum(np.sum(Xk * Xk) for Xk in dense)
            assert abs(result.fitness(data) - direct) <= 1e-6


@pytest.fixture
def refuse_sweeps(monkeypatch):
    """Fail the test if the sweep loop starts a shard runner."""
    from repro.decomposition import sharded

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep loop started")

    monkeypatch.setattr(sharded, "get_shard_runner", refuse)


class TestTensorFreeCompression:
    """``dpar2(None, compressed=c)``: the sweeps read only the compression."""

    @pytest.fixture(scope="class")
    def inputs(self):
        from repro.data.registry import load_dataset

        return {
            "dense": low_rank_irregular_tensor(
                [40, 60, 35, 50, 45, 30], 24, rank=4, noise=0.02, random_state=1
            ),
            "csr": load_dataset("sparse", random_state=0),
        }

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("data", ["dense", "csr"])
    def test_matches_the_tensor_backed_call(self, inputs, data, dtype, shards):
        tensor = inputs[data].astype(dtype)
        compressed = compress_tensor(tensor, 4, random_state=0)
        config = DecompositionConfig(
            rank=4, max_iterations=6, tolerance=0.0, random_state=0,
            dtype=dtype, shards=shards, shard_backend="serial",
        )
        assert_same_fit(
            dpar2(None, config, compressed=compressed),
            dpar2(tensor, config, compressed=compressed),
        )

    def test_constrained_matches_the_tensor_backed_call(self, inputs):
        from repro.decomposition.constrained import constrained_dpar2

        tensor = inputs["dense"]
        compressed = compress_tensor(tensor, 4, random_state=0)
        config = DecompositionConfig(rank=4, max_iterations=6, random_state=0)
        assert_same_fit(
            constrained_dpar2(
                None, config, nonnegative_weights=True, compressed=compressed
            ),
            constrained_dpar2(
                tensor, config, nonnegative_weights=True, compressed=compressed
            ),
        )

    def test_exact_convergence_needs_the_slices(self, inputs, refuse_sweeps):
        compressed = compress_tensor(inputs["dense"], 4, random_state=0)
        with pytest.raises(ValueError, match="exact_convergence"):
            dpar2(
                None,
                DecompositionConfig(rank=4, max_iterations=2),
                compressed=compressed,
                exact_convergence=True,
            )

    def test_needs_a_tensor_or_a_compression(self):
        with pytest.raises(ValueError, match="precomputed compression"):
            dpar2(None, DecompositionConfig(rank=2))


class TestCompressionShapeCheck:
    """A tensor passed with ``compressed=`` must have the compression's shape."""

    @pytest.fixture(scope="class")
    def compressed(self):
        tensor = low_rank_irregular_tensor(
            [30, 40, 50, 60, 35, 45], 20, 4, noise=0.01, random_state=0
        )
        return tensor, compress_tensor(tensor, 4, random_state=0)

    @staticmethod
    def _fit(tensor, compressed):
        dpar2(
            tensor,
            DecompositionConfig(rank=4, max_iterations=2, random_state=0),
            compressed=compressed,
        )

    def test_fewer_slices(self, compressed, refuse_sweeps):
        tensor, c = compressed
        with pytest.raises(ValueError, match="tensor has 4 slices .* has 6"):
            self._fit(tensor.slices[:4], c)

    def test_more_slices(self, compressed, refuse_sweeps):
        tensor, c = compressed
        with pytest.raises(ValueError, match="tensor has 8 slices .* has 6"):
            self._fit(list(tensor.slices) + list(tensor.slices[:2]), c)

    def test_row_counts(self, compressed, refuse_sweeps):
        tensor, c = compressed
        taller = [np.vstack([Xk, Xk[:1]]) for Xk in tensor.slices]
        with pytest.raises(ValueError, match=r"slice 0 has 31 rows .* A\[0\] has 30"):
            self._fit(taller, c)

    def test_columns(self, compressed, refuse_sweeps):
        tensor, c = compressed
        wider = low_rank_irregular_tensor(
            tensor.row_counts, 25, 4, noise=0.01, random_state=0
        )
        with pytest.raises(ValueError, match="tensor has 25 columns .* has 20"):
            self._fit(wider, c)


class TestStartingFactors:
    """``init=``: the sweeps start from given ``H``, ``V``, ``W``."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return low_rank_irregular_tensor(
            [30, 40, 50, 60, 35, 45], 20, 4, noise=0.01, random_state=0
        )

    @staticmethod
    def _config(**overrides):
        return DecompositionConfig(
            rank=4, max_iterations=4, tolerance=0.0, random_state=0, **overrides
        )

    @pytest.mark.parametrize("shards", [None, 2])
    def test_the_default_start_passed_explicitly(self, tensor, shards):
        config = self._config(shards=shards, shard_backend="serial")
        init = initialize_factors(20, 6, 4, config.random_state)
        assert_same_fit(dpar2(tensor, config, init=init), dpar2(tensor, config))

    def test_a_fitted_start_continues_the_fit(self, tensor):
        first = dpar2(tensor, self._config())
        init = InitialFactors(H=first.H, V=first.V, W=first.S)
        warm = dpar2(tensor, self._config(), init=init)
        assert warm.history[0].criterion < first.history[0].criterion
        assert warm.fitness(tensor) >= first.fitness(tensor)

    def test_cast_to_the_working_dtype(self, tensor):
        config = self._config(dtype="float32")
        init = initialize_factors(20, 6, 4, random_state=3)
        as32 = InitialFactors(
            *(factor.astype(np.float32) for factor in (init.H, init.V, init.W))
        )
        result = dpar2(tensor, config, init=init)
        assert result.V.dtype == np.float32
        assert_same_fit(result, dpar2(tensor, config, init=as32))

    @pytest.mark.parametrize(
        "factor, shape",
        [("H", (3, 3)), ("V", (21, 4)), ("W", (5, 4))],
    )
    @pytest.mark.parametrize("shards", [None, 2])
    def test_wrong_shape_rejected_before_any_work(
        self, tensor, refuse_sweeps, factor, shape, shards
    ):
        init = initialize_factors(20, 6, 4, random_state=0)
        setattr(init, factor, np.ones(shape))
        with pytest.raises(ValueError, match=f"starting factor {factor} has shape"):
            dpar2(tensor, self._config(shards=shards, shard_backend="serial"), init=init)

    def test_shapes_follow_the_effective_rank(self, tensor, refuse_sweeps):
        short = list(tensor.slices)
        short[1] = short[1][:3]
        with pytest.raises(ValueError, match=r"needs \(3, 3\) \(effective rank 3\)"):
            dpar2(short, self._config(), init=initialize_factors(20, 6, 4, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tensor, refuse_sweeps, bad):
        init = initialize_factors(20, 6, 4, random_state=0)
        init.W[2, 1] = bad
        with pytest.raises(ValueError, match="starting factor W has non-finite"):
            dpar2(tensor, self._config(), init=init)


class TestRankClamp:
    """``R = min(rank, J, min Ik)`` is recorded, not applied silently."""

    # One 3-row slice among 40 of 50 rows caps every slice at rank 3.
    _SHORT_SLICE = (
        [50] * 40 + [3], 20, 8, None,
        {"effective": 3, "short_slices": [40], "column_limited": False},
    )

    @pytest.mark.parametrize(
        "solver, row_counts, n_columns, rank, shards, expected",
        [
            (dpar2, *_SHORT_SLICE),
            (dpar2, [30] * 4, 5, 8, 2,
             {"effective": 5, "short_slices": [], "column_limited": True}),
            (dpar2, [30, 40, 50], 20, 4, None,
             {"effective": 4, "short_slices": [], "column_limited": False}),
            (parafac2_als, *_SHORT_SLICE),
            (rd_als, *_SHORT_SLICE),
            (spartan, *_SHORT_SLICE),
        ],
        ids=[
            "short-slice", "columns-sharded", "unclamped",
            "short-slice-parafac2_als", "short-slice-rd_als", "short-slice-spartan",
        ],
    )
    def test_recorded_and_counted(
        self, solver, row_counts, n_columns, rank, shards, expected
    ):
        rng = np.random.default_rng(0)
        slices = [rng.standard_normal((rows, n_columns)) for rows in row_counts]
        config = DecompositionConfig(
            rank=rank, max_iterations=2, random_state=0, shards=shards,
            shard_backend="serial",
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            result = solver(slices, config)
        assert result.rank == expected["effective"]
        assert result.stats["rank"] == {"requested": rank, **expected}
        clamps = registry.counter("repro_decompose_rank_clamps_total", "").value
        assert clamps == int(expected["effective"] < rank)
