"""Cross-backend QueryEngine + sparse stage-1 parity (ISSUE 8 tentpole).

Two layers of evidence that device-resident serving answers like the host:

* **Loopback** — ``_LoopbackModule`` (numpy pretending to be a device)
  drives every upload/download branch on a machine with no torch at all:
  similarity, reconstruction, fold-in, anomaly scores, the CSR SpMM
  routes, and the transfer counters.  Values match the numpy reference to
  roundoff (the device branches contract identical math, but e.g. the
  transpose SpMM sums in cached-CSC order, so "bitwise" is not the claim —
  ≤1e-8 is, with lots of margin).
* **Torch (CPU)** — the same parity suite on a real second array library,
  plus batch-invariance and deterministic tiebreak checks *per backend*:
  a backend must answer itself identically however requests are batched,
  and exactly-tied cosine scores must rank lower-index-first everywhere.
"""

import json
import urllib.request

import numpy as np
import pytest

from test_array_module import _LoopbackModule, torch_only

from repro.data.synthetic import sparse_irregular_tensor
from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.result import Parafac2Result
from repro.linalg.randomized_svd import randomized_svd
from repro.serve.queries import _FULL_SORT_MAX_N, QueryEngine
from repro.serve.service import ModelHost, start_server_in_thread
from repro.serve.store import FactorStore
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

ZERO_TRANSFERS = {
    "h2d_calls": 0, "h2d_bytes": 0, "d2h_calls": 0, "d2h_bytes": 0,
}


@pytest.fixture(scope="module")
def tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40, 35, 28], n_columns=16, rank=3, noise=0.02,
        random_state=4,
    )


@pytest.fixture(scope="module")
def sparse_tensor():
    return sparse_irregular_tensor(40, 16, 5, density=0.15, random_state=0)


@pytest.fixture(scope="module")
def config():
    return DecompositionConfig(rank=4, max_iterations=8, random_state=0)


@pytest.fixture(scope="module")
def result(tensor, config):
    return dpar2(tensor, config)


@pytest.fixture(scope="module")
def host_engine(result, config):
    return QueryEngine(result, config=config, version=1)


def _parity_suite(reference, engine, tensor, sparse_tensor, atol):
    """Assert ``engine`` answers every query family like ``reference``."""
    n0, s0 = reference.similar([0, 2, 5], k=5)
    n1, s1 = engine.similar([0, 2, 5], k=5)
    np.testing.assert_array_equal(n1, n0)
    np.testing.assert_allclose(s1, s0, atol=atol)

    np.testing.assert_allclose(
        engine.reconstruct(1, rows=[0, 3]),
        reference.reconstruct(1, rows=[0, 3]),
        atol=atol,
    )
    np.testing.assert_allclose(
        engine.reconstruct(2), reference.reconstruct(2), atol=atol
    )

    new = tensor.slices[2] * 1.01
    f0 = reference.fold_in(new, seed=3, return_q=True)
    f1 = engine.fold_in(new, seed=3, return_q=True)
    np.testing.assert_allclose(f1.weights, f0.weights, atol=atol)
    assert abs(f1.relative_residual - f0.relative_residual) < atol
    np.testing.assert_allclose(f1.Q, f0.Q, atol=atol)

    csr = sparse_tensor.slices[1]
    g0 = reference.fold_in(csr, seed=2)
    g1 = engine.fold_in(csr, seed=2)
    np.testing.assert_allclose(g1.weights, g0.weights, atol=atol)

    v0 = reference.similar_to(f0.weights, k=4)
    v1 = engine.similar_to(f1.weights, k=4)
    np.testing.assert_array_equal(v1[0], v0[0])
    np.testing.assert_allclose(v1[1], v0[1], atol=atol)


class TestLoopbackEngineParity:
    """Device branches under test without any device library installed."""

    @pytest.fixture()
    def loop_engine(self, result, config):
        return QueryEngine(
            result, config=config, version=1,
            compute_backend=_LoopbackModule(),
        )

    def test_all_queries_match_numpy(
        self, host_engine, loop_engine, tensor, sparse_tensor
    ):
        _parity_suite(host_engine, loop_engine, tensor, sparse_tensor, 1e-8)

    def test_transfer_counters(self, host_engine, loop_engine, tensor):
        # Construction alone uploads the resident factors...
        stats = loop_engine.transfer_stats()
        assert stats["h2d_calls"] >= 5  # unit x2, H, V, VtV
        assert stats["h2d_bytes"] > 0
        # ...and queries move rows up and scores down.
        loop_engine.similar([0, 1], k=3)
        after = loop_engine.transfer_stats()
        assert after["h2d_calls"] == stats["h2d_calls"] + 1
        assert after["d2h_calls"] == stats["d2h_calls"] + 1
        # The numpy engine never touches a device.
        host_engine.similar([0, 1], k=3)
        assert host_engine.transfer_stats() == ZERO_TRANSFERS

    def test_fold_in_sweep_downloads_one_vector(self, loop_engine, tensor):
        """A sweep uploads the R weights and downloads the R-vector ``g``;
        only a slice with fewer than R rows also downloads its R×R system."""
        R, sweeps = loop_engine.rank, 5
        rng = np.random.default_rng(4)
        before = loop_engine.transfer_stats()
        loop_engine.fold_in(rng.standard_normal((30, tensor.n_columns)), sweeps=sweeps)
        after = loop_engine.transfer_stats()
        assert after["h2d_calls"] - before["h2d_calls"] == 1 + sweeps  # sketch + w
        assert after["d2h_calls"] - before["d2h_calls"] == sweeps
        assert after["d2h_bytes"] - before["d2h_bytes"] == sweeps * R * 8
        loop_engine.fold_in(rng.standard_normal((R - 1, tensor.n_columns)), sweeps=sweeps)
        short = loop_engine.transfer_stats()
        assert short["d2h_calls"] - after["d2h_calls"] == 2 * sweeps
        assert short["d2h_bytes"] - after["d2h_bytes"] == sweeps * (R + R * R) * 8

    def test_backend_names(self, host_engine, loop_engine):
        assert host_engine.compute_backend == "numpy"
        assert loop_engine.compute_backend == "loopback"

    def test_batch_invariance(self, loop_engine):
        batch_n, batch_s = loop_engine.similar([0, 2, 5], k=4)
        for row, idx in enumerate([0, 2, 5]):
            single_n, single_s = loop_engine.similar([idx], k=4)
            np.testing.assert_array_equal(single_n[0], batch_n[row])
            np.testing.assert_array_equal(single_s[0], batch_s[row])

    def test_fold_in_batch_invariance(self, loop_engine, tensor):
        a, b = tensor.slices[0], tensor.slices[3]
        batch = loop_engine.fold_in_many([a, b], seeds=[7, 9])
        np.testing.assert_array_equal(
            loop_engine.fold_in(a, seed=7).weights, batch[0].weights
        )
        np.testing.assert_array_equal(
            loop_engine.fold_in(b, seed=9).weights, batch[1].weights
        )


def _tied_result() -> Parafac2Result:
    """A model whose S has exact duplicate rows → exactly tied cosines."""
    rng = np.random.default_rng(0)
    R, J, K = 3, 6, 6
    S = rng.standard_normal((K, R))
    S[2] = S[4]  # indices 2 and 4 tie exactly against any query
    S[1] = S[5]
    Q = [np.linalg.qr(rng.standard_normal((5, R)))[0] for _ in range(K)]
    V = np.linalg.qr(rng.standard_normal((J, R)))[0]
    return Parafac2Result(Q=Q, H=np.eye(R), S=S, V=V, method="crafted")


#: Entities in :func:`_large_tied_result`: above the sort/select crossover.
LARGE_N = _FULL_SORT_MAX_N + 44

#: The block of duplicate rows whose ties straddle the k-th position.
LARGE_TIED_BLOCK = [7, 100, 250, LARGE_N - 1]


def _large_tied_result() -> Parafac2Result:
    """A model whose rankings take the partial selection, with exact ties.

    Against query 2 the ranking opens with 4 (a duplicate of 2), then the
    mutual duplicates 1 and 5, then :data:`LARGE_TIED_BLOCK`, four
    duplicate rows.  For k = 4 or 5 the cut falls inside that block, so
    exact ties straddle the k-th position and only the lower indices are
    kept.  The rows near the query are sparse, so their cosines are exact
    whatever the reduction order; the background rows score at most
    0.45 against query 2.
    """
    rng = np.random.default_rng(1)
    R, J, n = 4, 6, LARGE_N
    e = np.eye(R)
    S = rng.standard_normal((n, R))
    S[:, 1:] /= np.linalg.norm(S[:, 1:], axis=1, keepdims=True)
    S[:, 0] = rng.uniform(-1.0, 0.5, n)
    S[2] = S[4] = e[0]
    S[1] = S[5] = e[0] + 0.1 * e[1]
    S[LARGE_TIED_BLOCK] = e[0] + 0.3 * e[2]
    Q = [np.linalg.qr(rng.standard_normal((5, R)))[0] for _ in range(n)]
    V = np.linalg.qr(rng.standard_normal((J, R)))[0]
    return Parafac2Result(Q=Q, H=np.eye(R), S=S, V=V, method="crafted")


@pytest.mark.parametrize(
    "backend_factory, model",
    [
        pytest.param(lambda: "numpy", _tied_result, id="numpy"),
        pytest.param(_LoopbackModule, _tied_result, id="loopback"),
        pytest.param(lambda: "numpy", _large_tied_result, id="numpy-large"),
        pytest.param(_LoopbackModule, _large_tied_result, id="loopback-large"),
    ],
)
def test_deterministic_tiebreak(backend_factory, model):
    """Exactly tied scores rank lower-index-first on every backend.

    Duplicate factor rows produce bit-identical cosine scores whatever the
    reduction order, so this is checkable machine-independently.  The
    ``-large`` cases rank above the sort/select crossover.
    """
    engine = QueryEngine(model(), compute_backend=backend_factory())
    neighbors, scores = engine.similar([2], k=5)
    order = list(neighbors[0])
    # 4 duplicates the query row: maximal score, first.
    assert order[0] == 4
    assert scores[0][0] == pytest.approx(1.0)
    # 1 and 5 are mutual duplicates: equal scores, 1 must precede 5.
    assert order.index(1) < order.index(5)
    tied = scores[0][order.index(1)], scores[0][order.index(5)]
    assert tied[0] == tied[1]


@pytest.mark.parametrize(
    "backend_factory", [lambda: "numpy", _LoopbackModule], ids=["numpy", "loopback"]
)
def test_ties_straddling_the_cut(backend_factory):
    """Above the crossover, a tied block split by the k-th position keeps
    its lower indices on every backend."""
    engine = QueryEngine(_large_tied_result(), compute_backend=backend_factory())
    assert engine.n_slices > _FULL_SORT_MAX_N
    neighbors, scores = engine.similar([2], k=5)
    assert neighbors[0].tolist() == [4, 1, 5] + LARGE_TIED_BLOCK[:2]
    assert scores[0, 3] == scores[0, 4]
    # The tie runs on past the cut: the next two are the rest of the block.
    neighbors, scores = engine.similar([2], k=7)
    assert neighbors[0, 5:].tolist() == LARGE_TIED_BLOCK[2:]
    assert len(set(scores[0, 3:].tolist())) == 1
    neighbors, _ = engine.similar([1], k=4)
    assert neighbors[0].tolist() == [5, 2, 4, LARGE_TIED_BLOCK[0]]
    neighbors, _ = engine.similar([LARGE_TIED_BLOCK[0]], k=4)
    assert neighbors[0].tolist() == LARGE_TIED_BLOCK[1:] + [2]


class TestLoopbackSparseStage1:
    """CSR stage 1 through the xp sparse surface, without a device."""

    def test_compress_matches_host(self, sparse_tensor):
        ref = compress_tensor(
            sparse_tensor, 4, random_state=0, backend="serial"
        )
        out = compress_tensor(
            sparse_tensor, 4, random_state=0, backend="serial",
            compute_backend=_LoopbackModule(),
        )
        np.testing.assert_allclose(out.D, ref.D, atol=1e-10)
        np.testing.assert_allclose(out.E, ref.E, atol=1e-10)
        np.testing.assert_allclose(out.F_blocks, ref.F_blocks, atol=1e-10)
        for A_out, A_ref in zip(out.A, ref.A):
            np.testing.assert_allclose(A_out, A_ref, atol=1e-10)

    def test_dpar2_end_to_end_matches_host(self, sparse_tensor):
        host = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=4, random_state=0, backend="serial"
            ),
        )
        loop = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=4, random_state=0, backend="serial",
                compute_backend="numpy",
            ),
        )
        np.testing.assert_array_equal(host.V, loop.V)  # numpy stays bitwise

    def test_single_csr_randomized_svd(self, sparse_tensor):
        A = sparse_tensor.slices[0]
        ref = randomized_svd(A, 4, random_state=0)
        out = randomized_svd(A, 4, random_state=0, xp=_LoopbackModule())
        np.testing.assert_allclose(
            np.abs(out.U), np.abs(ref.U), atol=1e-10
        )
        np.testing.assert_allclose(
            out.singular_values, ref.singular_values, atol=1e-10
        )


@torch_only
class TestTorchEngineParity:
    """The real second backend: torch CPU vs the numpy reference, ≤1e-8."""

    @pytest.fixture()
    def torch_engine(self, result, config):
        return QueryEngine(
            result, config=config, version=1, compute_backend="torch"
        )

    def test_all_queries_match_numpy(
        self, host_engine, torch_engine, tensor, sparse_tensor
    ):
        _parity_suite(host_engine, torch_engine, tensor, sparse_tensor, 1e-8)

    def test_batch_invariance(self, torch_engine):
        batch_n, batch_s = torch_engine.similar([0, 2, 5], k=4)
        for row, idx in enumerate([0, 2, 5]):
            single_n, single_s = torch_engine.similar([idx], k=4)
            np.testing.assert_array_equal(single_n[0], batch_n[row])
            np.testing.assert_array_equal(single_s[0], batch_s[row])

    def test_deterministic_tiebreak(self):
        engine = QueryEngine(_tied_result(), compute_backend="torch")
        neighbors, scores = engine.similar([2], k=5)
        order = list(neighbors[0])
        assert order[0] == 4
        assert order.index(1) < order.index(5)
        assert scores[0][order.index(1)] == scores[0][order.index(5)]

    def test_sparse_stage1_matches_host(self, sparse_tensor):
        ref = compress_tensor(
            sparse_tensor, 4, random_state=0, backend="serial"
        )
        out = compress_tensor(
            sparse_tensor, 4, random_state=0, backend="serial",
            compute_backend="torch",
        )
        np.testing.assert_allclose(out.D, ref.D, atol=1e-8)
        np.testing.assert_allclose(out.E, ref.E, atol=1e-8)
        for A_out, A_ref in zip(out.A, ref.A):
            np.testing.assert_allclose(A_out, A_ref, atol=1e-8)

    def test_sparse_dpar2_matches_host(self, sparse_tensor):
        host = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=4, random_state=0, backend="serial"
            ),
        )
        device = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=4, random_state=0, backend="serial",
                compute_backend="torch",
            ),
        )
        np.testing.assert_allclose(device.V, host.V, atol=1e-8)
        np.testing.assert_allclose(device.S, host.S, atol=1e-8)

    def test_transfers_counted(self, result, config):
        engine = QueryEngine(result, config=config, compute_backend="torch")
        engine.similar([0], k=3)
        stats = engine.transfer_stats()
        assert stats["h2d_calls"] > 0 and stats["d2h_calls"] > 0


class TestServiceSurface:
    """healthz + host plumbing for the engine backend and counters."""

    @pytest.fixture()
    def store(self, result, config, tmp_path):
        registry = FactorStore(tmp_path / "registry")
        registry.publish(result, config=config)
        return registry

    def test_model_host_aggregates_transfers(self, store):
        host = ModelHost(
            store, engine_kwargs={"compute_backend": _LoopbackModule()}
        )
        engine = host.refresh()
        assert host.engine_backend() == "loopback"
        engine.similar([0], k=2)
        totals = host.transfer_stats()
        assert totals["h2d_calls"] > 0 and totals["d2h_calls"] > 0

    def test_model_host_numpy_defaults(self, store):
        host = ModelHost(store)
        host.refresh().similar([0], k=2)
        assert host.engine_backend() == "numpy"
        assert host.transfer_stats() == ZERO_TRANSFERS

    def test_healthz_reports_engine(self, store):
        with start_server_in_thread(
            store, engine_kwargs={"compute_backend": _LoopbackModule()}
        ) as handle:
            with urllib.request.urlopen(
                handle.base_url + "/healthz", timeout=15
            ) as response:
                body = json.loads(response.read())
            assert body["engine"]["compute_backend"] == "loopback"
            assert body["engine"]["transfers"]["h2d_calls"] > 0
            # Loopback "device" answers must still round-trip correctly.
            request = urllib.request.Request(
                handle.base_url + "/v1/similar",
                data=json.dumps({"indices": [0], "k": 3}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=15) as response:
                answer = json.loads(response.read())
            assert len(answer["results"][0]["neighbors"]) == 3

    def test_healthz_numpy_zero_counters(self, store):
        with start_server_in_thread(store) as handle:
            with urllib.request.urlopen(
                handle.base_url + "/healthz", timeout=15
            ) as response:
                body = json.loads(response.read())
            assert body["engine"]["compute_backend"] == "numpy"
            assert body["engine"]["transfers"] == ZERO_TRANSFERS
