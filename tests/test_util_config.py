"""Tests for repro.util.config.DecompositionConfig."""

import pytest

from repro.util.config import DecompositionConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = DecompositionConfig()
        assert config.rank == 10
        assert config.max_iterations == 32
        assert config.oversampling == 5
        assert config.power_iterations == 1

    def test_frozen(self):
        config = DecompositionConfig()
        with pytest.raises(AttributeError):
            config.rank = 20


class TestValidation:
    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            DecompositionConfig(rank=0)

    def test_zero_iterations_allowed(self):
        # "Preprocess only" runs are legal; solvers skip the sweep loop.
        assert DecompositionConfig(max_iterations=0).max_iterations == 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            DecompositionConfig(max_iterations=-1)

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError, match="n_threads"):
            DecompositionConfig(n_threads=0)

    def test_negative_oversampling_rejected(self):
        with pytest.raises(ValueError, match="oversampling"):
            DecompositionConfig(oversampling=-1)

    def test_negative_power_iterations_rejected(self):
        with pytest.raises(ValueError, match="power_iterations"):
            DecompositionConfig(power_iterations=-1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            DecompositionConfig(tolerance=-1e-3)

    def test_zero_tolerance_allowed(self):
        assert DecompositionConfig(tolerance=0.0).tolerance == 0.0

    def test_zero_oversampling_allowed(self):
        assert DecompositionConfig(oversampling=0).oversampling == 0


class TestBackendValidation:
    """Backend typos must fail at construction, not deep inside a solver."""

    def test_default_is_thread(self):
        assert DecompositionConfig().backend == "thread"

    def test_known_backends_accepted(self):
        for name in ("serial", "thread"):
            assert DecompositionConfig(backend=name).backend == name

    def test_backend_normalized(self):
        assert DecompositionConfig(backend="  Serial ").backend == "serial"

    def test_unknown_backend_rejected_with_options(self):
        with pytest.raises(ValueError, match="serial, thread;"):
            DecompositionConfig(backend="gpu")

    def test_process_backend_points_at_shards(self):
        # Worker processes come from the shard coordinator; the error says so.
        with pytest.raises(ValueError, match="shards"):
            DecompositionConfig(backend="process")

    def test_recorded_process_backend_loads_as_thread(self):
        payload = DecompositionConfig(rank=4, random_state=3).to_dict()
        payload["backend"] = "process"
        config = DecompositionConfig.from_dict(payload)
        assert config.backend == "thread"
        assert (config.rank, config.random_state) == (4, 3)
        assert payload["backend"] == "process"  # the caller's dict is untouched

    def test_recorded_thread_shard_transport_loads_as_serial(self):
        payload = DecompositionConfig(rank=4, shards=2, random_state=3).to_dict()
        payload["shard_backend"] = "thread"
        config = DecompositionConfig.from_dict(payload)
        assert config.shard_backend == "serial"
        assert (config.rank, config.shards, config.random_state) == (4, 2, 3)
        assert payload["shard_backend"] == "thread"  # the caller's dict is untouched
        with pytest.raises(ValueError, match="shard_backend"):
            DecompositionConfig(shard_backend="thread")

    def test_non_string_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            DecompositionConfig(backend=7)

    def test_with_validates_backend(self):
        with pytest.raises(ValueError, match="backend"):
            DecompositionConfig().with_(backend="cluster")


class TestComputeBackendValidation:
    """Compute-backend typos and impossible combos fail at construction."""

    def test_default_is_numpy(self):
        assert DecompositionConfig().compute_backend == "numpy"

    def test_known_names_accepted_without_importing_libraries(self):
        # Validation is by name only — torch/cupy need not be installed to
        # *construct* a config naming them.
        for name in ("numpy", "torch", "torch-cuda", "cupy"):
            assert DecompositionConfig(compute_backend=name).compute_backend == name

    def test_name_normalized(self):
        assert (
            DecompositionConfig(compute_backend=" Torch ").compute_backend
            == "torch"
        )

    def test_unknown_backend_rejected_with_options(self):
        with pytest.raises(ValueError, match="numpy, torch, torch-cuda, cupy"):
            DecompositionConfig(compute_backend="tensorflow")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="compute_backend"):
            DecompositionConfig(compute_backend=3)

    def test_serial_and_thread_allowed_with_device_compute(self):
        for backend in ("serial", "thread"):
            config = DecompositionConfig(
                backend=backend, compute_backend="torch-cuda"
            )
            assert config.compute_backend == "torch-cuda"

    def test_with_validates_combination(self):
        config = DecompositionConfig(shards=2)
        with pytest.raises(ValueError, match="sharded"):
            config.with_(compute_backend="torch")

    def test_array_module_resolves_numpy(self):
        assert DecompositionConfig().array_module.is_numpy


class TestWith:
    def test_with_replaces_field(self):
        config = DecompositionConfig(rank=10)
        assert config.with_(rank=15).rank == 15

    def test_with_keeps_other_fields(self):
        config = DecompositionConfig(rank=10, n_threads=4)
        assert config.with_(rank=15).n_threads == 4

    def test_with_returns_new_object(self):
        config = DecompositionConfig()
        assert config.with_(rank=5) is not config

    def test_with_validates(self):
        with pytest.raises(ValueError):
            DecompositionConfig().with_(rank=-1)
