"""Shared fixtures for the test suite."""

import importlib
import multiprocessing.shared_memory

import numpy as np
import pytest

from repro.tensor.random import low_rank_irregular_tensor, random_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_tensor():
    """A small uniform-random irregular tensor (no planted structure)."""
    return random_irregular_tensor([15, 25, 20, 30], n_columns=12, random_state=0)


@pytest.fixture
def structured_tensor():
    """An irregular tensor with exact rank-4 PARAFAC2 structure + mild noise."""
    return low_rank_irregular_tensor(
        [40, 60, 35, 50, 45], n_columns=24, rank=4, noise=0.02, random_state=1
    )


@pytest.fixture
def noiseless_tensor():
    """Exact rank-3 PARAFAC2 data — solvers should fit it almost perfectly."""
    return low_rank_irregular_tensor(
        [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
    )


@pytest.fixture
def default_config():
    return DecompositionConfig(rank=4, max_iterations=20, random_state=7)


@pytest.fixture(params=["orjson", "json"])
def wire_codec(request, monkeypatch):
    """Run the test under each wire codec: orjson (where installed) and the stdlib."""
    from repro.serve import wire

    if request.param == "orjson":
        if wire._orjson is None:
            pytest.skip("orjson is not installed")
    else:
        monkeypatch.setattr(wire, "_orjson", None)
        monkeypatch.setattr(wire, "NAME", "json")
    return request.param


@pytest.fixture
def forbid_shm_segments(monkeypatch):
    """Fail the test if anything constructs a shared-memory segment."""

    def refuse(*args, **kwargs):
        raise AssertionError("a multiprocessing.shared_memory segment was created")

    monkeypatch.setattr(multiprocessing.shared_memory, "SharedMemory", refuse)


@pytest.fixture
def batched_stage1_calls(monkeypatch):
    """Slice counts of the stacked stage-1 calls the stage-1 router makes."""
    # ``repro.decomposition.dpar2`` the attribute is the function; the
    # router's module is only reachable through the import system.
    module = importlib.import_module("repro.decomposition.dpar2")
    real = module.batched_randomized_svd
    calls = []

    def spy(slices, *args, **kwargs):
        calls.append(len(slices))
        return real(slices, *args, **kwargs)

    monkeypatch.setattr(module, "batched_randomized_svd", spy)
    return calls


def make_irregular(row_counts, n_columns, seed=0):
    """Non-fixture helper for parametrized tests."""
    return random_irregular_tensor(row_counts, n_columns, random_state=seed)


def assert_same_fit(a, b):
    """Byte-identical factors, criterion history and sweep count."""
    assert a.n_iterations == b.n_iterations
    assert a.converged == b.converged
    assert [r.criterion for r in a.history] == [r.criterion for r in b.history]
    for name in ("H", "S", "V"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert len(a.Q) == len(b.Q)
    for Qa, Qb in zip(a.Q, b.Q):
        assert Qa.dtype == Qb.dtype
        np.testing.assert_array_equal(Qa, Qb)


def assert_orthonormal_columns(matrix, atol=1e-8):
    gram = matrix.T @ matrix
    np.testing.assert_allclose(gram, np.eye(matrix.shape[1]), atol=atol)


def assert_valid_parafac2_result(result, tensor):
    """Structural invariants every solver's output must satisfy."""
    assert result.n_slices == tensor.n_slices
    assert result.V.shape == (tensor.n_columns, result.rank)
    assert result.H.shape == (result.rank, result.rank)
    assert result.S.shape == (tensor.n_slices, result.rank)
    for k, Qk in enumerate(result.Q):
        assert Qk.shape == (tensor.row_counts[k], result.rank)
        assert_orthonormal_columns(Qk, atol=1e-6)
    assert np.isfinite(result.fitness(tensor))
