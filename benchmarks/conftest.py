"""Shared fixtures for the benchmark suite.

Each ``bench_*.py`` file regenerates the timing content of one table or
figure from the paper (``repro bench-info`` lists them).  Sizes are
scaled so the whole suite runs in minutes on one core; the *ratios
between methods* are the reproduced quantity, not absolute seconds.
"""

import pytest

from repro.data.registry import load_dataset
from repro.data.synthetic import scalability_tensor
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

RANK = 10
SEED = 0


@pytest.fixture(scope="session")
def audio_tensor():
    """FMA-like spectrogram tensor (the wide-J workload)."""
    return load_dataset("fma", random_state=SEED)


@pytest.fixture(scope="session")
def stock_tensor():
    """US-stock-like tensor (the long-Ik workload)."""
    return load_dataset("us_stock", random_state=SEED)


@pytest.fixture(scope="session")
def video_tensor():
    return load_dataset("activity", random_state=SEED)


@pytest.fixture(scope="session")
def synthetic_tensor():
    """The Fig. 11 style tenrand tensor at bench scale."""
    return scalability_tensor(120, 120, 160, random_state=SEED)


@pytest.fixture(scope="session")
def structured_tensor():
    return low_rank_irregular_tensor(
        [80, 120, 60, 100, 90], 60, rank=RANK, noise=0.05, random_state=SEED
    )


@pytest.fixture
def bench_config():
    return DecompositionConfig(
        rank=RANK, max_iterations=5, tolerance=0.0, random_state=SEED
    )
