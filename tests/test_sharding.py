"""Tests for the shard coordinator: planner, transports, and sharded DPar2.

The load-bearing contract is **shard-count invariance**: for a fixed
``shard_cells`` the final factors must be bitwise-identical for any shard
count and any shard backend.  The sharded path is *not* required to be
bitwise-equal to the unsharded one-cell plan (cell-order accumulation
differs) — that plan is its own baseline.
"""

import multiprocessing

import numpy as np
import pytest

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.sharded import sharded_stage1
from repro.decomposition.streaming import StreamingDpar2
from repro.linalg.kernels import batched_randomized_svd
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.sharding import (
    ProcessShardRunner,
    ShardPlan,
    get_shard_runner,
    payload_nbytes,
    plan_shards,
)
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig
from repro.util.rng import spawn_generators

ROWS = (40, 55, 23, 80, 12, 34, 61, 29, 17, 44)


@pytest.fixture(scope="module")
def dense_tensor():
    rng = np.random.default_rng(0)
    return IrregularTensor([rng.standard_normal((n, 30)) for n in ROWS])


@pytest.fixture(scope="module")
def sparse_tensor():
    rng = np.random.default_rng(1)
    slices = [
        np.where(rng.random((n, 30)) < 0.15, rng.standard_normal((n, 30)), 0.0)
        for n in ROWS
    ]
    return IrregularTensor(slices).sparsify()


def config(shards, backend="serial", **kw):
    kw.setdefault("rank", 5)
    kw.setdefault("max_iterations", 6)
    kw.setdefault("random_state", 7)
    return DecompositionConfig(shards=shards, shard_backend=backend, **kw)


def assert_same_factors(a, b):
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.S, b.S)
    for Qa, Qb in zip(a.Q, b.Q):
        assert np.array_equal(Qa, Qb)


# --------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------- #


class TestPlanShards:
    def test_covers_every_slice_once(self):
        plan = plan_shards(ROWS, 3, n_cells=8)
        owned = sorted(k for cell in plan.cells for k in cell)
        assert owned == list(range(len(ROWS)))
        cells = sorted(c for shard in plan.shard_cells for c in shard)
        assert cells == list(range(plan.n_cells))

    def test_cells_fixed_by_cell_count_not_shards(self):
        # The determinism contract hinges on this: cell membership must
        # not depend on how many shards the cells are later dealt onto.
        plans = [plan_shards(ROWS, n, n_cells=8) for n in (1, 2, 4, 7)]
        assert all(p.cells == plans[0].cells for p in plans)

    def test_cell_count_clamped_to_slices(self):
        plan = plan_shards([10, 20], 1, n_cells=8)
        assert plan.n_cells == 2

    def test_shards_clamped_to_cells(self):
        plan = plan_shards(ROWS, 64, n_cells=4)
        assert plan.n_shards == 4

    def test_no_empty_shards_or_cells(self):
        plan = plan_shards(ROWS, 4, n_cells=6)
        assert all(cell for cell in plan.cells)
        assert all(shard for shard in plan.shard_cells)

    def test_imbalance_at_least_one(self):
        plan = plan_shards(ROWS, 3, n_cells=8)
        assert plan.imbalance >= 1.0
        assert plan.cell_imbalance >= 1.0

    def test_describe_is_json_ready(self):
        import json

        desc = plan_shards(ROWS, 2, n_cells=4).describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["shards"] == 2
        assert desc["cells"] == 4

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            plan_shards([], 2)

    def test_deterministic(self):
        assert plan_shards(ROWS, 3, n_cells=8) == plan_shards(ROWS, 3, n_cells=8)

    def test_is_frozen(self):
        plan = plan_shards(ROWS, 2, n_cells=4)
        assert isinstance(plan, ShardPlan)
        with pytest.raises(AttributeError):
            plan.imbalance = 2.0


class TestPayloadNbytes:
    def test_counts_nested_arrays(self):
        payload = {
            "a": np.zeros((3, 4)),
            "b": [np.zeros(5, dtype=np.float32), (np.zeros(2),)],
            "c": "not an array",
        }
        assert payload_nbytes(payload) == 96 + 20 + 16


# --------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------- #


class _Echo:
    """Minimal shard state for transport tests."""

    def __init__(self, init):
        self.tag = init["tag"]
        self.value = init["value"]

    def startup(self):
        return {self.tag: self.value * 2}

    def add(self, delta):
        return {self.tag: self.value + delta}

    def ping(self, payload):
        return {self.tag: np.zeros(4)}

    def boom(self):
        raise RuntimeError("worker exploded")


@pytest.mark.parametrize("backend", ["serial", "process"])
class TestShardRunners:
    def test_start_call_roundtrip(self, backend):
        payloads = [
            {"tag": i, "value": np.full(3, float(i))} for i in range(3)
        ]
        with get_shard_runner(backend, _Echo, payloads) as runner:
            started = runner.start()
            merged = {}
            for out in started:
                merged.update(out)
            assert sorted(merged) == [0, 1, 2]
            assert np.array_equal(merged[2], np.full(3, 4.0))
            replies = runner.call("add", np.ones(3))
            assert np.array_equal(replies[1][1], np.full(3, 2.0))

    def test_call_each_per_shard_args(self, backend):
        payloads = [{"tag": i, "value": np.zeros(2)} for i in range(2)]
        with get_shard_runner(backend, _Echo, payloads) as runner:
            runner.start()
            replies = runner.call_each(
                "add", [(np.full(2, 10.0),), (np.full(2, 20.0),)]
            )
            assert np.array_equal(replies[0][0], np.full(2, 10.0))
            assert np.array_equal(replies[1][1], np.full(2, 20.0))

    def test_worker_error_propagates(self, backend):
        payloads = [{"tag": 0, "value": np.zeros(1)}]
        with get_shard_runner(backend, _Echo, payloads) as runner:
            runner.start()
            with pytest.raises(RuntimeError, match="worker exploded"):
                runner.call("boom")

    def test_byte_accounting_monotone(self, backend):
        payloads = [{"tag": i, "value": np.zeros(4)} for i in range(2)]
        with get_shard_runner(backend, _Echo, payloads) as runner:
            runner.start()
            before = runner.bytes_transferred
            runner.call("ping", np.zeros((8, 8)))
            delta = runner.bytes_transferred - before
            # two shards x (64-float send + 4-float reply)
            assert delta == 2 * (8 * 8 * 8 + 4 * 8)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="shard backend"):
        get_shard_runner("carrier-pigeon", _Echo, [{"tag": 0, "value": 0}])


# --------------------------------------------------------------------- #
# sharded dpar2: the invariance contract
# --------------------------------------------------------------------- #


class TestShardCountInvariance:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("data", ["dense", "sparse"])
    def test_factors_invariant_across_shard_counts(
        self, data, dtype, dense_tensor, sparse_tensor
    ):
        tensor = dense_tensor if data == "dense" else sparse_tensor
        ref = dpar2(tensor, config(1, dtype=dtype))
        for shards in (2, 4):
            assert_same_factors(ref, dpar2(tensor, config(shards, dtype=dtype)))

    @pytest.mark.parametrize("backend", ["process"])
    def test_factors_invariant_across_backends(self, backend, dense_tensor):
        ref = dpar2(dense_tensor, config(2, "serial"))
        assert_same_factors(ref, dpar2(dense_tensor, config(3, backend)))

    def test_matches_unsharded_numerically(self, dense_tensor):
        exact = dpar2(dense_tensor, config(None))
        sharded = dpar2(dense_tensor, config(2))
        assert sharded.n_iterations == exact.n_iterations
        assert sharded.fitness(dense_tensor) == pytest.approx(
            exact.fitness(dense_tensor), rel=1e-9
        )

    def test_zero_sweeps(self, dense_tensor):
        a = dpar2(dense_tensor, config(2, max_iterations=0))
        b = dpar2(dense_tensor, config(4, max_iterations=0))
        assert_same_factors(a, b)
        assert a.n_iterations == 0

    def test_precomputed_compression_higher_rank(self, dense_tensor):
        compressed = compress_tensor(dense_tensor, 8, random_state=7)
        a = dpar2(dense_tensor, config(2), compressed=compressed)
        b = dpar2(dense_tensor, config(4, "process"), compressed=compressed)
        assert_same_factors(a, b)

    def test_cell_count_changes_accumulation(self, dense_tensor):
        # Different shard_cells => different reduction order => a
        # *different* (equally valid) bitwise family.  Guards against the
        # planner quietly ignoring the knob.
        a = dpar2(dense_tensor, config(2, shard_cells=2))
        b = dpar2(dense_tensor, config(2, shard_cells=8))
        assert not np.array_equal(a.H, b.H)
        assert a.fitness(dense_tensor) == pytest.approx(
            b.fitness(dense_tensor), rel=1e-9
        )

    def test_more_shards_than_slices(self, dense_tensor):
        a = dpar2(dense_tensor, config(64, shard_cells=64))
        b = dpar2(dense_tensor, config(1, shard_cells=64))
        assert_same_factors(a, b)

    def test_exact_convergence_invariant_to_shard_count(self, dense_tensor):
        runs = {
            shards: dpar2(
                dense_tensor, config(shards, tolerance=0.0), exact_convergence=True
            )
            for shards in (None, 2, 3)
        }
        history = {
            shards: [record.criterion for record in result.history]
            for shards, result in runs.items()
        }
        assert len(history[2]) == 6
        assert history[2] == history[3]
        assert_same_factors(runs[2], runs[3])
        np.testing.assert_allclose(history[2], history[None], rtol=1e-9)

    def test_memmap_cells_stream_stage1_per_slice(
        self, tmp_path, batched_stage1_calls
    ):
        # Equal heights: one stacked call per cell would copy the whole
        # cell into RAM, which is what out-of-core must not do.
        rng = np.random.default_rng(5)
        tensor = IrregularTensor([rng.standard_normal((24, 16)) for _ in range(12)])
        mapped = IrregularTensor.from_store(tensor.to_store(tmp_path / "store"))
        cfg = config(2, rank=4)
        out_of_core = dpar2(mapped, cfg)
        assert batched_stage1_calls == []
        in_ram = dpar2(tensor, cfg)
        assert batched_stage1_calls  # in-RAM cells keep the stacked route
        assert_same_factors(out_of_core, in_ram)

    def test_memmap_slices_through_process_runner(self, tmp_path):
        rng = np.random.default_rng(5)
        mm = []
        for i, n in enumerate((40, 55, 23, 80)):
            path = tmp_path / f"s{i}.npy"
            np.save(path, rng.standard_normal((n, 20)))
            mm.append(np.load(path, mmap_mode="r"))
        tensor = IrregularTensor(mm, copy=False)
        a = dpar2(tensor, config(2, "process", max_iterations=4))
        b = dpar2(tensor, config(4, "serial", max_iterations=4))
        assert_same_factors(a, b)


@pytest.mark.usefixtures("forbid_shm_segments")
class TestProcessTransportInheritsPayload:
    """Process shards fork with their slices: no shared-memory segment."""

    @pytest.mark.parametrize("data", ["dense", "csr", "memmap"])
    def test_dpar2_matches_serial(self, data, dense_tensor, sparse_tensor, tmp_path):
        if data == "memmap":
            mm = []
            for k, Xk in enumerate(dense_tensor.slices):
                np.save(tmp_path / f"s{k}.npy", Xk)
                mm.append(np.load(tmp_path / f"s{k}.npy", mmap_mode="r"))
            tensor = IrregularTensor(mm, copy=False)
        else:
            tensor = dense_tensor if data == "dense" else sparse_tensor
        ref = dpar2(tensor, config(2, "serial"))
        assert_same_factors(ref, dpar2(tensor, config(2, "process")))

    def test_streaming_absorb_many_matches_serial(self):
        rng = np.random.default_rng(6)
        batch = [rng.standard_normal((n, 24)) for n in (30, 45, 18, 52)]

        def absorbed(backend):
            model = StreamingDpar2(DecompositionConfig(
                rank=4, max_iterations=5, random_state=11,
                shards=2, shard_backend=backend,
            ))
            model.absorb_many(batch, refresh=False)
            return model.result()

        assert_same_factors(absorbed("serial"), absorbed("process"))

    def test_platform_without_fork_rejected(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ValueError, match="'serial' shard transport"):
            ProcessShardRunner(_Echo, [{"tag": 0, "value": 0}])


class TestShardingStats:
    def test_stats_populated(self, dense_tensor):
        result = dpar2(dense_tensor, config(2))
        stats = result.stats["sharding"]
        assert stats["shards"] == 2
        assert stats["backend"] == "serial"
        assert stats["requested_shards"] == 2
        assert stats["imbalance"] >= 1.0
        assert stats["allreduce_bytes_total"] > 0
        assert stats["allreduce_bytes_per_sweep"] > 0
        assert (
            stats["allreduce_bytes_per_sweep_per_shard"]
            == stats["allreduce_bytes_per_sweep"] / 2
        )

    def test_allreduce_independent_of_row_counts(self):
        # Same K, same rank, 8x taller slices: sweep traffic must not move.
        rng = np.random.default_rng(2)
        small = IrregularTensor(
            [rng.standard_normal((n, 24)) for n in (20, 30, 25, 35)]
        )
        tall = IrregularTensor(
            [rng.standard_normal((8 * n, 24)) for n in (20, 30, 25, 35)]
        )
        cfg = config(2, max_iterations=4)
        bytes_small = dpar2(small, cfg).stats["sharding"][
            "allreduce_bytes_per_sweep"
        ]
        bytes_tall = dpar2(tall, cfg).stats["sharding"][
            "allreduce_bytes_per_sweep"
        ]
        assert bytes_small == bytes_tall

    def test_unsharded_has_no_sharding_stats(self, dense_tensor):
        result = dpar2(dense_tensor, config(None))
        assert "sharding" not in result.stats

    def test_unsharded_run_registers_no_shard_metrics(self, dense_tensor):
        registry = MetricsRegistry()
        with use_registry(registry):
            dpar2(dense_tensor, config(None))
        snapshot = registry.snapshot()
        assert "repro_decompose_sweeps_total" in snapshot
        assert [name for name in snapshot if name.startswith("repro_shard_")] == []

    @pytest.mark.parametrize("shards", [None, 2])
    def test_every_run_counts_its_compression(self, dense_tensor, shards):
        registry = MetricsRegistry()
        with use_registry(registry):
            dpar2(dense_tensor, config(shards))
            dpar2(dense_tensor, config(shards))
        assert registry.counter("repro_decompose_compressions_total").value == 2
        assert registry.histogram("repro_decompose_compress_seconds").count == 2


class TestConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            DecompositionConfig(shards=-1)

    def test_bad_shard_backend_rejected(self):
        with pytest.raises(ValueError, match="shard_backend"):
            DecompositionConfig(shard_backend="smoke-signals")

    def test_bad_shard_cells_rejected(self):
        with pytest.raises(ValueError, match="shard_cells"):
            DecompositionConfig(shard_cells=0)

    def test_shards_require_numpy_compute(self):
        with pytest.raises(ValueError, match="numpy"):
            DecompositionConfig(shards=2, compute_backend="torch")

    def test_partition_ablation_rejected(self, dense_tensor):
        with pytest.raises(ValueError, match="greedy"):
            dpar2(dense_tensor, config(2), use_greedy_partition=False)


# --------------------------------------------------------------------- #
# streaming through the coordinator
# --------------------------------------------------------------------- #


class TestShardedStreaming:
    def _batches(self):
        rng = np.random.default_rng(3)
        return [
            [rng.standard_normal((n, 24)) for n in (30, 45, 18)],
            [rng.standard_normal((n, 24)) for n in (60, 12, 27, 33)],
        ]

    def _stream(self, batches, shards=None, backend="serial"):
        cfg = DecompositionConfig(
            rank=4, max_iterations=5, random_state=11,
            shards=shards, shard_backend=backend,
        )
        stream = StreamingDpar2(cfg)
        for batch in batches:
            stream.absorb_many(batch, refresh=False)
        return stream

    def test_stage1_matches_batched_kernel_bitwise(self):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((n, 20)) for n in (25, 40, 15, 33)]
        ref = batched_randomized_svd(
            mats, 4, oversampling=5, power_iterations=1,
            generators=spawn_generators(9, len(mats)),
        )
        sharded = sharded_stage1(
            mats, spawn_generators(9, len(mats)),
            rank=4, oversampling=5, power_iterations=1,
            n_shards=2, shard_backend="serial", n_cells=4,
        )
        for a, b in zip(ref, sharded):
            assert np.array_equal(a.U, b.U)
            assert np.array_equal(a.singular_values, b.singular_values)
            assert np.array_equal(a.V, b.V)

    def test_absorbed_state_matches_in_process_path(self):
        batches = self._batches()
        ref = self._stream(batches)
        sharded = self._stream(batches, shards=2)
        assert np.array_equal(ref._D, sharded._D)
        for a, b in zip(ref._A, sharded._A):
            assert np.array_equal(a, b)
        for a, b in zip(ref._G, sharded._G):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "shards,backend", [(2, "serial"), (4, "process")]
    )
    def test_result_invariant_across_shard_counts(self, shards, backend):
        batches = self._batches()
        ref = self._stream(batches, shards=1).result()
        other = self._stream(batches, shards=shards, backend=backend).result()
        assert_same_factors(ref, other)

    def test_publish_serve_round_trip(self, tmp_path):
        from repro.serve.store import FactorStore

        batches = self._batches()
        stream = self._stream(batches, shards=2)
        result = stream.result()
        assert result.stats["sharding"]["shards"] == 2

        store = FactorStore(tmp_path / "registry")
        version = store.publish(result, config=stream.config)
        loaded = store.get(version).result
        assert_same_factors(result, loaded)
