"""Property-based tests (hypothesis) for the core invariants.

These stress the substrates with generated inputs: products and unfoldings
must satisfy their algebraic identities, partitioning must be a permutation
that never loses to round-robin, SVDs must reconstruct within the
Eckart-Young bound, the sparse kernels must agree with dense numpy, and
the one exact-residual kernel must equal a dense float64 evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.decomposition.result import Parafac2Result
from repro.linalg.randomized_svd import randomized_svd
from repro.linalg.truncated_svd import truncated_svd
from repro.parallel.partition import (
    greedy_partition,
    partition_imbalance,
    round_robin_partition,
)
from repro.sparse.coo import CooMatrix
from repro.sparse.ops import dense_to_sparse
from repro.tensor.irregular import IrregularTensor
from repro.tensor.matricization import fold, unfold
from repro.tensor.products import hadamard, khatri_rao, vec

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False, width=64)
small_dim = st.integers(min_value=1, max_value=6)


def matrix_strategy(rows=small_dim, cols=small_dim):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite)
    )


@st.composite
def matrix_pair_same_cols(draw):
    cols = draw(small_dim)
    a = draw(arrays(np.float64, (draw(small_dim), cols), elements=finite))
    b = draw(arrays(np.float64, (draw(small_dim), cols), elements=finite))
    return a, b


class TestProductProperties:
    @settings(max_examples=40, deadline=None)
    @given(matrix_pair_same_cols())
    def test_khatri_rao_columns_are_kroneckers(self, pair):
        a, b = pair
        out = khatri_rao(a, b)
        for r in range(a.shape[1]):
            np.testing.assert_allclose(
                out[:, r], np.kron(a[:, r], b[:, r]), atol=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy())
    def test_hadamard_with_ones_is_identity(self, a):
        np.testing.assert_array_equal(hadamard(a, np.ones_like(a)), a)

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy())
    def test_vec_roundtrip(self, a):
        np.testing.assert_array_equal(
            vec(a).reshape(a.shape, order="F"), a
        )

    @settings(max_examples=30, deadline=None)
    @given(matrix_pair_same_cols())
    def test_khatri_rao_gram_identity(self, pair):
        a, b = pair
        kr = khatri_rao(a, b)
        np.testing.assert_allclose(
            kr.T @ kr, (a.T @ a) * (b.T @ b), atol=1e-7
        )


class TestMatricizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(small_dim, small_dim, small_dim).flatmap(
            lambda shape: arrays(np.float64, shape, elements=finite)
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_unfold_fold_roundtrip(self, tensor, mode):
        np.testing.assert_array_equal(
            fold(unfold(tensor, mode), mode, tensor.shape), tensor
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(small_dim, small_dim, small_dim).flatmap(
            lambda shape: arrays(np.float64, shape, elements=finite)
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_unfold_preserves_norm(self, tensor, mode):
        np.testing.assert_allclose(
            np.linalg.norm(unfold(tensor, mode)),
            np.linalg.norm(tensor.ravel()),
            atol=1e-9,
        )


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                 min_size=0, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_partition_is_permutation(self, weights, n_parts):
        parts = greedy_partition(weights, n_parts)
        flat = sorted(idx for group in parts for idx in group)
        assert flat == list(range(len(weights)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1000, allow_nan=False),
                 min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_greedy_close_to_round_robin_or_better(self, weights, n_parts):
        """Round-robin can win by luck on tiny instances, but greedy can
        never lose by more than the Graham slack (m-1)*max_w/total — a
        provable consequence of the list-scheduling bound."""
        greedy = partition_imbalance(
            weights, greedy_partition(weights, n_parts)
        )
        naive = partition_imbalance(
            weights, round_robin_partition(len(weights), n_parts)
        )
        slack = (n_parts - 1) * max(weights) / max(sum(weights), 1e-12)
        assert greedy <= naive + slack + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1000, allow_nan=False),
                 min_size=1, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    def test_graham_bound(self, weights, n_parts):
        """Graham's list-scheduling guarantee: the max load of any greedy
        assignment is at most mean load + (1 - 1/m) * max weight."""
        parts = greedy_partition(weights, n_parts)
        loads = [sum(weights[i] for i in group) for group in parts]
        bound = sum(weights) / n_parts + (1 - 1 / n_parts) * max(weights)
        assert max(loads) <= bound + 1e-9


class TestSvdProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=2, max_value=12),
            st.integers(min_value=2, max_value=12),
        ).flatmap(lambda s: arrays(np.float64, s, elements=finite)),
        st.integers(min_value=1, max_value=4),
    )
    def test_truncated_svd_eckart_young(self, matrix, rank):
        out = truncated_svd(matrix, rank)
        s = np.linalg.svd(matrix, compute_uv=False)
        r = min(rank, *matrix.shape)
        optimal = np.sqrt(np.sum(s[r:] ** 2))
        actual = np.linalg.norm(matrix - out.reconstruct())
        assert actual <= optimal + 1e-6 * max(1.0, np.linalg.norm(matrix))

    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=3, max_value=15),
            st.integers(min_value=3, max_value=15),
        ).flatmap(lambda s: arrays(np.float64, s, elements=finite)),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_randomized_svd_orthonormal_factors(self, matrix, rank, seed):
        out = randomized_svd(matrix, rank, random_state=seed)
        r = out.rank
        np.testing.assert_allclose(out.U.T @ out.U, np.eye(r), atol=1e-7)
        np.testing.assert_allclose(out.V.T @ out.V, np.eye(r), atol=1e-7)
        assert np.all(out.singular_values >= -1e-12)


class TestSparseProperties:
    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
    ))
    def test_coo_csr_dense_roundtrip(self, dense):
        csr = CooMatrix.from_dense(dense).to_csr()
        np.testing.assert_allclose(csr.to_dense(), dense, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
    ))
    def test_csr_matvec_matches_dense(self, dense):
        csr = CooMatrix.from_dense(dense).to_csr()
        x = np.arange(dense.shape[1], dtype=np.float64)
        np.testing.assert_allclose(csr.matvec(x), dense @ x,
                                   rtol=1e-9, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
    ))
    def test_csr_transpose_involution(self, dense):
        csr = CooMatrix.from_dense(dense).to_csr()
        np.testing.assert_allclose(
            csr.transpose().transpose().to_dense(), csr.to_dense(),
            atol=1e-12,
        )


@st.composite
def parafac2_model_and_tensor(draw):
    """A random PARAFAC2 model and an unrelated irregular tensor.

    K 1–6, R 1–5, Ik from R to 4R+3, J from R to 12; dense or CSR slices
    (CSR kept at any density); float32 or float64.  Every ``Qk`` is a
    random column-orthonormal matrix built in float64 and then cast, so a
    float32 ``Qk`` is orthonormal only to float32 rounding.
    """
    K = draw(st.integers(min_value=1, max_value=6))
    R = draw(st.integers(min_value=1, max_value=5))
    J = draw(st.integers(min_value=R, max_value=12))
    rows = draw(st.lists(st.integers(min_value=R, max_value=4 * R + 3),
                         min_size=K, max_size=K))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))

    dense = []
    for n in rows:
        Xk = (scale * rng.standard_normal((n, J))).astype(dtype)
        if sparse:
            Xk[rng.random((n, J)) < 0.6] = 0.0
        dense.append(Xk)
    slices = [dense_to_sparse(Xk) for Xk in dense] if sparse else dense
    tensor = IrregularTensor(slices, dtype=dtype, density_threshold=1.0)
    result = Parafac2Result(
        Q=[np.linalg.qr(rng.standard_normal((n, R)))[0].astype(dtype)
           for n in rows],
        H=(scale * rng.standard_normal((R, R))).astype(dtype),
        S=rng.standard_normal((K, R)).astype(dtype),
        V=rng.standard_normal((J, R)).astype(dtype),
    )
    return result, tensor, dense


class TestResidualKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(parafac2_model_and_tensor())
    def test_slice_residuals_match_dense_float64(self, case):
        """``slice_residuals_squared`` equals ``‖Xk − Qk H Sk Vᵀ‖²``.

        The reference is evaluated densely from float64 copies of the same
        values.  Let ``scale_k = ‖Xk‖² + ‖H Sk‖²·‖V‖²`` (Frobenius norms),
        a bound on every term of the identity.  float64 inputs must agree
        within ``1e-10·scale_k``.

        For float32 inputs the kernel's own arithmetic is float64 after
        two float32 steps, and ``Qk`` is orthonormal only to rounding.
        With unit roundoff ``u = 2⁻²⁴``, ``γ = Ik·u / (1 − Ik·u)`` and
        ``δ = ‖QkᵀQk − I‖₂``:

        * ``‖Xk‖²`` squares float32 entries: error ≤ ``u·‖Xk‖²``;
        * ``Qkᵀ Xk`` is a float32 sum over ``Ik`` terms, so its error
          ``E`` has ``‖E‖ ≤ γ·‖Qk‖·‖Xk‖`` with ``‖Qk‖² ≤ R(1 + δ)``; the
          cross term moves by ``2|⟨E, H Sk Vᵀ⟩| ≤ γ·√(R(1+δ))·scale_k``;
        * the identity assumes ``‖Qk M‖ = ‖M‖``; the reference differs by
          ``|tr(Mᵀ(QkᵀQk − I)M)| ≤ δ·‖M‖² ≤ δ·scale_k``.

        So the float32 tolerance is ``(u + γ·√(R(1+δ)) + δ + 1e-10)·scale_k``.
        """
        result, tensor, dense = case
        got = result.slice_residuals_squared(tensor)
        assert got.dtype == np.float64 and got.shape == (tensor.n_slices,)
        H, S, V = (np.asarray(M, np.float64) for M in (result.H, result.S, result.V))
        u = np.finfo(np.float32).eps / 2
        for k, Xk in enumerate(dense):
            X, Q = Xk.astype(np.float64), result.Q[k].astype(np.float64)
            expected = float(np.sum((X - Q @ (H * S[k]) @ V.T) ** 2))
            scale = np.sum(X * X) + np.sum((H * S[k]) ** 2) * np.sum(V * V)
            if Xk.dtype == np.float64:
                tol = 1e-10 * scale
            else:
                delta = np.linalg.norm(Q.T @ Q - np.eye(result.rank), 2)
                n = Xk.shape[0]
                gamma = n * u / (1 - n * u)
                tol = (u + gamma * np.sqrt(result.rank * (1 + delta)) + delta
                       + 1e-10) * scale
            assert abs(got[k] - expected) <= tol, (k, got[k], expected, tol)


class TestIndicatorProperties:
    price = arrays(
        np.float64,
        st.integers(min_value=2, max_value=60),
        elements=st.floats(min_value=1.0, max_value=1000.0,
                           allow_nan=False),
    )

    @settings(max_examples=40, deadline=None)
    @given(price, st.integers(min_value=1, max_value=20))
    def test_sma_within_data_range(self, close, window):
        from repro.data.indicators import sma

        out = sma(close, window)
        assert np.all(out >= close.min() - 1e-9)
        assert np.all(out <= close.max() + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(price, st.integers(min_value=1, max_value=20))
    def test_ema_within_data_range(self, close, window):
        from repro.data.indicators import ema

        out = ema(close, window)
        assert np.all(out >= close.min() - 1e-9)
        assert np.all(out <= close.max() + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(price, st.integers(min_value=1, max_value=15))
    def test_rsi_bounds(self, close, window):
        from repro.data.indicators import rsi

        out = rsi(close, window)
        assert np.all(out >= -1e-9) and np.all(out <= 100.0 + 1e-9)
