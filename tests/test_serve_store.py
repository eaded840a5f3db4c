"""Tests for the model payload format and the versioned FactorStore."""

import json

import numpy as np
import pytest

from repro.decomposition.dpar2 import dpar2
from repro.decomposition.streaming import StreamingDpar2
from repro.serve.store import (
    MODEL_MANIFEST_NAME,
    SCHEMA_VERSION,
    FactorStore,
    read_model,
    write_model,
)
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture(scope="module")
def tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40], n_columns=16, rank=3, noise=0.02, random_state=4
    )


@pytest.fixture(scope="module")
def config():
    return DecompositionConfig(rank=4, max_iterations=6, random_state=0)


@pytest.fixture(scope="module")
def result(tensor, config):
    return dpar2(tensor, config)


class TestModelPayload:
    def test_roundtrip_factors(self, result, config, tmp_path):
        write_model(tmp_path / "m", result, config=config)
        artifact = read_model(tmp_path / "m")
        assert np.array_equal(np.asarray(artifact.result.H), result.H)
        assert np.array_equal(np.asarray(artifact.result.S), result.S)
        assert np.array_equal(np.asarray(artifact.result.V), result.V)
        for Qa, Qb in zip(artifact.result.Q, result.Q):
            assert np.array_equal(np.asarray(Qa), Qb)
        assert artifact.result.method == result.method
        assert artifact.result.n_iterations == result.n_iterations
        assert artifact.result.converged == result.converged
        assert len(artifact.result.history) == len(result.history)
        assert artifact.schema_version == SCHEMA_VERSION

    def test_config_and_dtype_roundtrip(self, tensor, tmp_path):
        config = DecompositionConfig(
            rank=3, max_iterations=2, dtype="float32", random_state=5,
            backend="serial",
        )
        result = dpar2(tensor, config)
        assert result.H.dtype == np.float32
        result.save(tmp_path / "m32", config=config)
        artifact = read_model(tmp_path / "m32")
        assert artifact.dtype == np.dtype(np.float32)
        assert artifact.config == config  # frozen dataclass equality
        assert artifact.result.H.dtype == np.float32

    def test_mmap_backed_load(self, result, tmp_path):
        write_model(tmp_path / "m", result)
        artifact = read_model(tmp_path / "m")
        assert isinstance(artifact.result.H, np.memmap)
        assert all(isinstance(Qk, np.memmap) for Qk in artifact.result.Q)
        in_ram = read_model(tmp_path / "m", mmap=False)
        assert not isinstance(in_ram.result.H, np.memmap)

    def test_save_load_methods(self, result, tmp_path):
        result.save(tmp_path / "m")
        loaded = type(result).load(tmp_path / "m")
        assert np.array_equal(np.asarray(loaded.V), result.V)

    def test_payloads_are_immutable(self, result, tmp_path):
        write_model(tmp_path / "m", result)
        with pytest.raises(FileExistsError, match="immutable"):
            write_model(tmp_path / "m", result)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no model payload"):
            read_model(tmp_path / "nowhere")

    def test_unknown_schema_version_rejected(self, result, tmp_path):
        write_model(tmp_path / "m", result)
        manifest_path = tmp_path / "m" / MODEL_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema version"):
            read_model(tmp_path / "m")

    def test_missing_segment_rejected(self, result, tmp_path):
        write_model(tmp_path / "m", result)
        (tmp_path / "m" / "V.npy").unlink()
        with pytest.raises(ValueError, match="segment missing"):
            read_model(tmp_path / "m")

    def test_dtype_mismatch_rejected(self, result, tmp_path):
        write_model(tmp_path / "m", result)
        np.save(tmp_path / "m" / "H.npy", result.H.astype(np.float32))
        with pytest.raises(ValueError, match="corrupt"):
            read_model(tmp_path / "m")


class TestFactorStore:
    def test_publish_and_latest(self, result, config, tmp_path):
        store = FactorStore(tmp_path / "reg")
        assert store.latest_version() is None
        with pytest.raises(LookupError, match="no published versions"):
            store.latest()
        v1 = store.publish(result, config=config, extra={"dataset": "demo"})
        assert v1 == 1
        v2 = store.publish(result)
        assert v2 == 2
        assert store.versions() == [1, 2]
        assert store.latest_version() == 2
        artifact = store.latest()
        assert artifact.version == 2
        assert store.get(1).meta["dataset"] == "demo"

    def test_version_recorded_with_process_backend_loads(
        self, result, config, tmp_path
    ):
        """Versions published with the retired ``--backend process`` still
        load, through the registry and through ``Parafac2Result.load``."""
        store = FactorStore(tmp_path / "reg")
        version = store.publish(result, config=config)
        manifest_path = store.version_dir(version) / MODEL_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["backend"] = "process"
        manifest_path.write_text(json.dumps(manifest))

        artifact = store.get(version)
        assert artifact.config == config.with_(backend="thread")
        assert np.array_equal(np.asarray(artifact.result.V), result.V)
        loaded = type(result).load(store.version_dir(version))
        assert np.array_equal(np.asarray(loaded.H), result.H)

    def test_get_unknown_version(self, result, tmp_path):
        store = FactorStore(tmp_path / "reg")
        store.publish(result)
        with pytest.raises(KeyError, match="not in registry"):
            store.get(7)

    def test_reopen_existing_registry(self, result, tmp_path):
        store = FactorStore(tmp_path / "reg")
        store.publish(result)
        reopened = FactorStore(tmp_path / "reg")
        assert reopened.versions() == [1]
        assert np.array_equal(
            np.asarray(reopened.latest().result.H), result.H
        )

    def test_not_a_registry_rejected(self, tmp_path):
        (tmp_path / "registry.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a"):
            FactorStore(tmp_path)

    @pytest.mark.parametrize(
        "text", ["", '{"format": "repro-factor-reg'], ids=["empty", "truncated"]
    )
    def test_damaged_marker_names_the_file(self, tmp_path, text):
        (tmp_path / "registry.json").write_text(text)
        with pytest.raises(ValueError, match="registry.json"):
            FactorStore(tmp_path)

    def test_stale_latest_pointer_falls_back(self, result, tmp_path):
        """A crashed publisher may leave LATEST behind the version dirs (or
        pointing at a pruned one); readers fall back to the newest complete
        version."""
        store = FactorStore(tmp_path / "reg")
        store.publish(result)
        store.publish(result)
        (store.root / "LATEST").write_text("99\n")
        assert store.latest_version() == 2
        (store.root / "LATEST").unlink()
        assert store.latest_version() == 2

    def test_half_written_version_invisible(self, result, tmp_path):
        """A version directory without a manifest (mid-publish crash before
        the rename) must not be listed or served."""
        store = FactorStore(tmp_path / "reg")
        store.publish(result)
        (store.version_dir(2)).mkdir()
        assert store.versions() == [1]
        assert store.latest_version() == 1

    def test_prune_keeps_newest_and_live(self, result, tmp_path):
        store = FactorStore(tmp_path / "reg")
        for _ in range(4):
            store.publish(result)
        removed = store.prune(keep=2)
        assert removed == [1, 2]
        assert store.versions() == [3, 4]
        assert store.latest().version == 4

    def test_streaming_publish_to(self, tensor, tmp_path):
        config = DecompositionConfig(rank=3, max_iterations=3, random_state=0)
        stream = StreamingDpar2(config, refresh_iterations=2)
        store = FactorStore(tmp_path / "reg")
        stream.absorb_many(list(tensor.slices[:2]), refresh=False)
        v1 = stream.publish_to(store)
        stream.absorb_many(list(tensor.slices[2:]), refresh=False)
        v2 = stream.publish_to(store, extra={"checkpoint": "final"})
        assert (v1, v2) == (1, 2)
        assert store.get(1).result.n_slices == 2
        final = store.get(2)
        assert final.result.n_slices == tensor.n_slices
        assert final.meta["source"] == "streaming"
        assert final.meta["checkpoint"] == "final"
        assert final.config == config
