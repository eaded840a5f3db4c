"""Tests for QueryEngine: rankings, reconstruction, fold-in, anomaly.

The acceptance-criteria tests live here: fold-in projections and
similar-entity rankings are checked against *offline reference
computations* — independent dense-numpy implementations of the same math —
to 1e-8 in float64, and every batched path is checked bitwise against its
single-request execution.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_array_module import _LoopbackModule
from test_device_queries import LARGE_N, LARGE_TIED_BLOCK, _large_tied_result

from repro.analysis.anomaly import slice_anomaly_scores
from repro.decomposition.dpar2 import dpar2
from repro.decomposition.result import Parafac2Result
from repro.linalg.randomized_svd import randomized_svd
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import queries
from repro.serve.queries import _FULL_SORT_MAX_N, QueryEngine
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture(scope="module")
def tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40, 35, 28], n_columns=16, rank=3, noise=0.02,
        random_state=4,
    )


@pytest.fixture(scope="module")
def config():
    return DecompositionConfig(rank=4, max_iterations=10, random_state=0)


@pytest.fixture(scope="module")
def result(tensor, config):
    return dpar2(tensor, config)


@pytest.fixture(scope="module")
def engine(result, config):
    return QueryEngine(result, config=config, version=1)


@pytest.fixture(scope="module")
def large_engine():
    """Ranks above the sort/select crossover, with ties across the cut."""
    engine = QueryEngine(_large_tied_result(), version=1)
    assert engine.n_slices > _FULL_SORT_MAX_N
    return engine


#: A 16-query batch over ``large_engine``: the tied rows, a repeat, and
#: background rows.
LARGE_BATCH = [2, 4, 1, 5, *LARGE_TIED_BLOCK, 0, 3, 2, 42, 150, 201, 256, LARGE_N - 2]


def _stable_sort_top_k(scores, k):
    """The reference ranking: a stable full sort of the negated scores."""
    k = max(min(k, scores.shape[1]), 0)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order.astype(np.int64), np.take_along_axis(scores, order, axis=1)


def _assert_same_ranking(got, want):
    """Indices equal, scores equal bit for bit (NaN and signed zeros too)."""
    assert got[0].dtype == want[0].dtype == np.int64
    assert np.array_equal(got[0], want[0])
    assert got[1].shape == want[1].shape
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))


class TestSimilar:
    def test_matches_offline_reference(self, engine, result):
        """Acceptance: rankings match a naive offline computation to 1e-8."""
        S = np.asarray(result.S, dtype=np.float64)
        for query in range(result.n_slices):
            ref = []
            for j in range(result.n_slices):
                if j == query:
                    continue
                num = float(np.dot(S[query], S[j]))
                den = float(np.linalg.norm(S[query]) * np.linalg.norm(S[j]))
                ref.append((j, num / den))
            ref.sort(key=lambda pair: (-pair[1], pair[0]))
            neighbors, scores = engine.similar([query], k=3)
            for rank_pos, (j, score) in enumerate(ref[:3]):
                assert neighbors[0, rank_pos] == j
                assert scores[0, rank_pos] == pytest.approx(score, abs=1e-8)

    def test_feature_mode_reference(self, engine, result):
        V = np.asarray(result.V, dtype=np.float64)
        unit = V / np.linalg.norm(V, axis=1, keepdims=True)
        query = 5
        ref = unit @ unit[query]
        ref[query] = -np.inf
        order = np.lexsort((np.arange(ref.size), -ref))[:4]
        neighbors, scores = engine.similar([query], k=4, mode="feature")
        assert np.array_equal(neighbors[0], order)
        np.testing.assert_allclose(scores[0], ref[order], atol=1e-8)

    def test_batch_is_bitwise_identical_to_single(self, engine, large_engine):
        """The batch-invariance contract the micro-batcher relies on.

        ``large_engine`` ranks through the partial selection, with exact
        ties across the k-th position.
        """
        for eng, indices in ((engine, [0, 3, 1, 5, 2]), (large_engine, LARGE_BATCH)):
            neighbors, scores = eng.similar(indices, k=4)
            for row, idx in enumerate(indices):
                n1, s1 = eng.similar([idx], k=4)
                assert np.array_equal(neighbors[row], n1[0])
                assert np.array_equal(scores[row], s1[0])  # bitwise

    @pytest.mark.parametrize("k", [1, 4, 10, LARGE_N - 1, LARGE_N + 3])
    def test_large_model_matches_full_sort(self, large_engine, k):
        """Above the crossover, ``similar`` and ``similar_to`` rank exactly
        as a stable full sort of the same scores."""
        unit = large_engine._unit["slice"]
        n = unit.shape[0]
        every = np.arange(n)
        scores = np.einsum("nr,br->bn", unit, unit[every])
        scores[every, every] = -np.inf
        _assert_same_ranking(
            large_engine.similar(every, k=k), _stable_sort_top_k(scores, min(k, n - 1))
        )
        S = np.asarray(large_engine.result.S)
        _assert_same_ranking(
            large_engine.similar_to(S, k=k),
            _stable_sort_top_k(np.einsum("nr,br->bn", unit, unit), min(k, n)),
        )

    def test_self_excluded_and_k_capped(self, engine, result):
        neighbors, scores = engine.similar([2], k=100)
        assert neighbors.shape == (1, result.n_slices - 1)
        assert 2 not in neighbors[0]
        assert np.all(np.diff(scores[0]) <= 0)

    def test_similar_to_vector(self, engine, result):
        S = np.asarray(result.S, dtype=np.float64)
        neighbors, scores = engine.similar_to(S[3], k=1)
        assert neighbors[0, 0] == 3  # its own row is the perfect match
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_errors(self, engine):
        with pytest.raises(ValueError, match="mode"):
            engine.similar([0], mode="nope")
        with pytest.raises(IndexError, match="out of range"):
            engine.similar([99])
        with pytest.raises(ValueError, match="k must be"):
            engine.similar([0], k=0)
        with pytest.raises(ValueError, match=r"vectors must be"):
            engine.similar_to(np.ones((2, 3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_similar_to_rejects_non_finite_vectors(self, engine, bad):
        """Like ``fold_in`` with a non-finite slice: a ValueError, and no
        NaN neighbours or overflow warning on the way."""
        vectors = np.ones((2, engine.rank))
        vectors[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                engine.similar_to(vectors, k=3)
            with pytest.raises(ValueError, match="NaN or Inf"):
                engine.similar_to(vectors[1], k=3)


@st.composite
def score_batches(draw):
    """``(scores, k)`` for ``_top_k``, shaped like the serving batches.

    B is 0, 1 or 16; n falls on both sides of ``_FULL_SORT_MAX_N``; k runs
    from 0 to n + 3.  Palette rows draw every score from a few values, so
    exact ties are common and often straddle the k-th position.  ``-inf``
    (self-exclusion), NaN, signed zeros and all-zero rows are mixed in.
    """
    batch = draw(st.sampled_from([0, 1, 16]))
    n = draw(
        st.one_of(
            st.integers(1, 24),
            st.integers(_FULL_SORT_MAX_N - 4, _FULL_SORT_MAX_N + 100),
        )
    )
    k = draw(st.integers(0, n + 3))
    specials = st.sampled_from([0.0, -0.0, 1.0, -np.inf, np.nan])
    palette = draw(
        st.lists(st.one_of(st.floats(-1.0, 1.0), specials), min_size=1, max_size=5)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = np.asarray(palette)[rng.integers(len(palette), size=(batch, n))]
    else:
        scores = rng.uniform(-1.0, 1.0, (batch, n))
        sprinkle = rng.random((batch, n)) < draw(st.sampled_from([0.0, 0.02, 0.5, 0.98]))
        scores[sprinkle] = rng.choice(palette, size=int(sprinkle.sum()))
    if batch and draw(st.booleans()):
        scores[rng.random(batch) < 0.5] = 0.0
    if batch and draw(st.booleans()):
        scores[np.arange(batch), rng.integers(n, size=batch)] = -np.inf
    return scores, k


class TestTopK:
    """``_top_k`` against the stable full sort it replaces, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(score_batches())
    def test_matches_stable_full_sort(self, case):
        scores, k = case
        _assert_same_ranking(QueryEngine._top_k(scores, k), _stable_sort_top_k(scores, k))

    N = _FULL_SORT_MAX_N + 1

    @pytest.mark.parametrize(
        "row, k, expected",
        [
            # A tied block of 0.5s split by the cut: lowest indices first.
            ([0.5] * (N - 3) + [0.9, 0.9, 0.9], 5, [N - 3, N - 2, N - 1, 0, 1]),
            # Self-exclusion at the top; the -inf only returns once k > n - 1.
            ([-np.inf] + [0.25] * (N - 1), N, [*range(1, N), 0]),
            # An all-zero row: index order.
            ([0.0] * N, 4, [0, 1, 2, 3]),
            # Fewer finite scores than k: the NaN threshold falls back to
            # the full sort, which keeps NaNs last in index order.
            ([np.nan] * (N - 2) + [0.1, 0.3], 4, [N - 1, N - 2, 0, 1]),
            # Signed zeros tie with each other.
            ([-0.0, 0.0] * (N // 2) + [-1.0] * (N % 2), 3, [0, 1, 2]),
        ],
        ids=["tie-across-cut", "self-excluded", "zero-row", "nan-threshold", "signed-zero"],
    )
    def test_hand_built_rows(self, row, k, expected):
        scores = np.array([row, row[::-1]])
        got = QueryEngine._top_k(scores, k)
        assert got[0][0].tolist() == expected
        _assert_same_ranking(got, _stable_sort_top_k(scores, k))

    def test_path_follows_row_length(self, monkeypatch):
        """Rows longer than ``_FULL_SORT_MAX_N`` select; shorter ones sort."""
        calls = []
        select = queries._select_smallest
        monkeypatch.setattr(
            queries, "_select_smallest", lambda values, k: calls.append(k) or select(values, k)
        )
        rng = np.random.default_rng(0)
        QueryEngine._top_k(rng.random((16, _FULL_SORT_MAX_N)), 10)
        assert calls == []
        QueryEngine._top_k(rng.random((16, _FULL_SORT_MAX_N + 1)), 10)
        assert calls == [10]


class TestReconstruct:
    def test_matches_result(self, engine, result):
        np.testing.assert_array_equal(
            engine.reconstruct(1), result.reconstruct_slice(1)
        )

    def test_row_subset(self, engine, result):
        rows = [4, 0, 2]
        np.testing.assert_array_equal(
            engine.reconstruct(1, rows=rows),
            result.reconstruct_slice(1)[rows],
        )

    def test_errors(self, engine):
        with pytest.raises(IndexError, match="slice"):
            engine.reconstruct(99)
        with pytest.raises(IndexError, match="row index"):
            engine.reconstruct(0, rows=[10_000])


def _reference_fold_in(X, result, config, seed, sweeps):
    """Independent dense implementation of the fold-in projection.

    Materializes ``A``, ``G``, and ``Q`` explicitly and evaluates every
    quantity against the dense slice (``Qᵀ X`` as an actual product, the
    residual as an actual subtraction) — no shared code with the engine's
    compressed-arithmetic path beyond the stage-1 sketch kernel itself.
    """
    H = np.asarray(result.H, dtype=np.float64)
    V = np.asarray(result.V, dtype=np.float64)
    R = H.shape[0]
    svd = randomized_svd(
        X, R,
        oversampling=config.oversampling,
        power_iterations=config.power_iterations,
        random_state=np.random.default_rng(seed),
    )
    A = svd.U
    Xs = (A * svd.singular_values) @ svd.V.T  # the sketch A G, densified
    w = np.ones(R)
    for _ in range(sweeps):
        Z, _, Pt = np.linalg.svd(A.T @ Xs @ V @ np.diag(w) @ H.T, full_matrices=False)
        Q = A @ (Z @ Pt)
        C = Q.T @ Xs @ V
        g = np.diag(H.T @ C)
        gram = (H.T @ (Q.T @ Q) @ H) * (V.T @ V)
        try:
            w = np.linalg.solve(gram, g)
        except np.linalg.LinAlgError:  # singular: the minimum-norm solution
            w = np.linalg.lstsq(gram, g, rcond=None)[0]
    residual = Xs - Q @ (H * w) @ V.T
    # The engine's residual is vs the *actual* slice: add the sketch error
    # (orthogonal complement), ‖X − X̂‖² = ‖X − Xs‖² + ‖Xs − X̂‖².
    residual_sq = float(np.sum((X - Xs) ** 2)) + float(np.sum(residual**2))
    return w, Q, residual_sq


class TestFoldIn:
    def test_matches_offline_reference(self, engine, result, config, tensor):
        """Acceptance: fold-in matches the dense reference to 1e-8."""
        rng = np.random.default_rng(99)
        X = rng.standard_normal((33, tensor.n_columns))
        fold = engine.fold_in(X, seed=11, return_q=True)
        w_ref, Q_ref, res_ref = _reference_fold_in(
            X, result, config, seed=11, sweeps=engine.fold_in_sweeps
        )
        np.testing.assert_allclose(fold.weights, w_ref, atol=1e-8)
        np.testing.assert_allclose(fold.Q, Q_ref, atol=1e-8)
        assert fold.residual_squared == pytest.approx(res_ref, rel=1e-8)

    def test_training_slice_projects_close(self, engine, tensor, result):
        """A training slice folded in should land near its own S-row."""
        k = 2
        fold = engine.fold_in(tensor[k], seed=0)
        neighbors, scores = engine.similar_to(fold.weights, k=1)
        assert neighbors[0, 0] == k
        assert scores[0, 0] > 0.999
        # and reconstruct about as well as the trained model does
        trained_score = slice_anomaly_scores(result, tensor)[k]
        assert fold.relative_residual == pytest.approx(
            trained_score, abs=0.05
        )

    def test_batched_is_bitwise_identical(self, engine, tensor):
        """Equal-row-count slices share one stacked sketch; answers must
        not depend on batch membership."""
        rng = np.random.default_rng(5)
        batch = [
            rng.standard_normal((20, tensor.n_columns)) for _ in range(3)
        ] + [rng.standard_normal((31, tensor.n_columns))]
        seeds = [3, 1, 4, 1]
        together = engine.fold_in_many(batch, seeds=seeds)
        for X, seed, folded in zip(batch, seeds, together):
            alone = engine.fold_in(X, seed=seed)
            assert np.array_equal(folded.weights, alone.weights)
            assert folded.residual_squared == alone.residual_squared

    def test_q_is_orthonormal(self, engine, tensor, rng):
        fold = engine.fold_in(
            rng.standard_normal((25, tensor.n_columns)), return_q=True
        )
        QtQ = fold.Q.T @ fold.Q
        np.testing.assert_allclose(QtQ, np.eye(engine.rank), atol=1e-10)

    def test_short_slice_handled(self, engine, tensor):
        """Fewer rows than the model rank: Qᵀ Q ≠ I, still well-defined."""
        rng = np.random.default_rng(6)
        fold = engine.fold_in(rng.standard_normal((2, tensor.n_columns)))
        assert fold.weights.shape == (engine.rank,)
        assert np.isfinite(fold.relative_residual)

    def test_errors(self, engine, tensor, rng):
        with pytest.raises(ValueError, match="columns"):
            engine.fold_in(rng.standard_normal((10, tensor.n_columns + 1)))
        with pytest.raises(ValueError, match="seeds"):
            engine.fold_in_many([rng.standard_normal((5, tensor.n_columns))],
                                seeds=[1, 2])
        with pytest.raises(ValueError, match="sweeps"):
            engine.fold_in(rng.standard_normal((5, tensor.n_columns)), sweeps=0)

    def test_square_sweeps_make_no_gram_solve(self, engine, tensor, monkeypatch):
        """Once the engine is built, a slice of at least R rows solves
        against the cached factor: no ``solve_gram``, no Cholesky.  A
        shorter slice still rebuilds and solves its system every sweep."""
        calls = {"solve_gram": 0, "cholesky": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(queries, "solve_gram", counting("solve_gram", queries.solve_gram))
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
        rng = np.random.default_rng(8)
        for rows in (engine.rank, 40):
            engine.fold_in(rng.standard_normal((rows, tensor.n_columns)), sweeps=5)
        assert calls == {"solve_gram": 0, "cholesky": 0}
        engine.fold_in(rng.standard_normal((engine.rank - 1, tensor.n_columns)), sweeps=5)
        assert calls == {"solve_gram": 5, "cholesky": 5}


def _well_conditioned(rng, rows, cols):
    """A ``rows×cols`` matrix (``rows >= cols``), singular values in [0.5, 2]."""
    U = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    W = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return (U * rng.uniform(0.5, 2.0, cols)) @ W.T


def _model(rng, R, J, H=None):
    """A served model with well-conditioned ``H`` and ``V``."""
    return Parafac2Result(
        Q=[np.linalg.qr(rng.standard_normal((R + 2, R)))[0] for _ in range(3)],
        H=_well_conditioned(rng, R, R) if H is None else H,
        S=rng.uniform(0.5, 2.0, (3, R)),
        V=_well_conditioned(rng, J, R),
    )


def _unseen_slice(rng, result, rows, noise=0.1):
    """A slice the model explains, weights bounded away from zero, plus noise."""
    R, J = result.rank, result.V.shape[0]
    weights = rng.choice([-1.0, 1.0], R) * rng.uniform(0.5, 2.0, R)
    X = rng.standard_normal((rows, R)) @ (result.H * weights) @ result.V.T
    return X + noise * rng.standard_normal((rows, J))


@st.composite
def fold_in_cases(draw):
    """``(result, config, X, seed)``: a generated model and an unseen slice.

    R runs from 1 to 6 and J from R to R + 8.  The slice has 1 to 3R rows,
    so both the square sweep (at least R rows) and the general one run.
    """
    R = draw(st.integers(1, 6))
    J = draw(st.integers(R, R + 8))
    rows = draw(st.integers(1, 3 * R))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    result = _model(rng, R, J)
    X = _unseen_slice(rng, result, rows)
    return result, DecompositionConfig(rank=R), X, draw(st.integers(0, 2**16))


def _assert_same_fold_in(fold, weights, Q, residual_sq):
    """``fold`` agrees with an expected fold-in to 1e-8.

    The residual is compared relative to ``‖X‖²`` and the weights relative
    to the largest of them (at least 1).  A one-row slice is fitted equally
    well by any unit ``q`` with ``(Hᵀq) ∗ w`` fixed, so the sweeps leave its
    weights and ``Q`` undetermined: over 20,000 generated one-row cases at
    R = 4 to 6, rounding moved them by up to 1e-5.  Only its residual, which
    is the same all along that family, is compared.
    """
    assert abs(fold.residual_squared - residual_sq) <= 1e-8 * fold.norm_squared
    if Q.shape[0] == 1:
        return
    scale = max(1.0, float(np.abs(weights).max()))
    np.testing.assert_allclose(fold.weights, weights, rtol=0, atol=1e-8 * scale)
    np.testing.assert_allclose(fold.Q, Q, rtol=0, atol=1e-8)


class TestFoldInProperty:
    """The fold-in on generated models, against the dense reference."""

    @settings(max_examples=120, deadline=None)
    @given(fold_in_cases())
    def test_matches_offline_reference(self, case):
        result, config, X, seed = case
        engine = QueryEngine(result, config=config)
        fold = engine.fold_in(X, seed=seed, return_q=True)
        _assert_same_fold_in(
            fold, *_reference_fold_in(X, result, config, seed, engine.fold_in_sweeps)
        )

    @settings(max_examples=60, deadline=None)
    @given(fold_in_cases())
    def test_loopback_device_matches_host(self, case):
        result, config, X, seed = case
        host = QueryEngine(result, config=config).fold_in(X, seed=seed, return_q=True)
        device = QueryEngine(
            result, config=config, compute_backend=_LoopbackModule()
        ).fold_in(X, seed=seed, return_q=True)
        _assert_same_fold_in(device, host.weights, host.Q, host.residual_squared)

    def test_singular_normal_matrix(self):
        """A zero column in ``H`` makes ``(HᵀH) ∗ (VᵀV)`` singular.  The
        engine falls back to the pseudoinverse once, when it is built, and
        still matches the reference's minimum-norm solve.  ``Q`` is then
        determined only up to the null direction, which ``Q H`` drops."""
        rng = np.random.default_rng(21)
        R, J = 4, 9
        H = _well_conditioned(rng, R, R)
        H[:, 2] = 0.0
        result = _model(rng, R, J, H=H)
        config = DecompositionConfig(rank=R)
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = QueryEngine(result, config=config)
            assert registry.counter("repro_decompose_pinv_fallbacks_total").value == 1
            for rows, seed in ((R, 1), (12, 2), (30, 3)):
                X = _unseen_slice(rng, result, rows)
                fold = engine.fold_in(X, seed=seed, return_q=True)
                w_ref, Q_ref, res_ref = _reference_fold_in(
                    X, result, config, seed, engine.fold_in_sweeps
                )
                assert fold.weights[2] == pytest.approx(0.0, abs=1e-12)
                np.testing.assert_allclose(fold.weights, w_ref, rtol=0, atol=1e-8)
                np.testing.assert_allclose(fold.Q @ H, Q_ref @ H, rtol=0, atol=1e-8)
                assert abs(fold.residual_squared - res_ref) <= 1e-8 * fold.norm_squared
            assert registry.counter("repro_decompose_pinv_fallbacks_total").value == 1
            QueryEngine(result, config=config)
            assert registry.counter("repro_decompose_pinv_fallbacks_total").value == 2


class TestAnomaly:
    def test_planted_anomaly_scores_highest(self, engine, tensor):
        rng = np.random.default_rng(3)
        outlier = rng.standard_normal((30, tensor.n_columns)) * 10.0
        normal_scores = [
            engine.anomaly_score(tensor[k]) for k in range(tensor.n_slices)
        ]
        assert engine.anomaly_score(outlier) > max(normal_scores)


class TestMetadata:
    def test_metadata_card(self, engine, result):
        card = engine.metadata()
        assert card["rank"] == result.rank
        assert card["n_slices"] == result.n_slices
        assert card["modes"] == {
            "slice": result.n_slices, "feature": result.V.shape[0]
        }
        assert card["version"] == 1

    def test_float32_model_serves_float64_queries(self, tensor):
        config = DecompositionConfig(
            rank=3, max_iterations=4, dtype="float32", random_state=1
        )
        result = dpar2(tensor, config)
        engine = QueryEngine(result, config=config)
        neighbors, scores = engine.similar([0], k=2)
        assert scores.dtype == np.float64
        fold = engine.fold_in(np.asarray(tensor[0], dtype=np.float64))
        assert np.isfinite(fold.relative_residual)
