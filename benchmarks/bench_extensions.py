"""Benchmarks for the beyond-the-paper extensions.

* Streaming DPar2 (the paper's future work): per-slice absorb cost must be
  independent of already-absorbed history.
* Constrained DPar2 (COPA-style): constraints must not change the sweep's
  asymptotics.
* Model persistence: save/load must be I/O-bound, not compute-bound.
"""

import itertools

import numpy as np
import pytest

from repro.decomposition.constrained import constrained_dpar2
from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.result import Parafac2Result
from repro.decomposition.streaming import StreamingDpar2
from repro.util.config import DecompositionConfig


def test_streaming_absorb(benchmark, structured_tensor):
    config = DecompositionConfig(rank=10, random_state=0)

    def absorb_one():
        stream = StreamingDpar2(config)
        for Xk in structured_tensor:
            stream.absorb(Xk, refresh=False)
        return stream

    stream = benchmark(absorb_one)
    assert stream.n_slices == structured_tensor.n_slices


def test_streaming_absorb_cost_flat_in_history(structured_tensor):
    """Absorbing slice 50 must cost about the same as absorbing slice 5 —
    the defining property of the streaming variant."""
    import time

    from repro.tensor.random import random_irregular_tensor

    tensor = random_irregular_tensor([60] * 50, 40, random_state=0)
    stream = StreamingDpar2(DecompositionConfig(rank=8, random_state=0))
    times = []
    for Xk in tensor:
        t0 = time.perf_counter()
        stream.absorb(Xk, refresh=False)
        times.append(time.perf_counter() - t0)
    early = float(np.median(times[2:10]))
    late = float(np.median(times[-8:]))
    assert late < 8.0 * early  # flat up to noise, never linear growth


@pytest.mark.parametrize(
    "variant", ["unconstrained", "nonnegative", "smooth"]
)
def test_constrained_sweep_cost(benchmark, structured_tensor, bench_config,
                                variant):
    compressed = compress_tensor(structured_tensor, bench_config.rank,
                                 random_state=0)
    kwargs = {}
    if variant == "nonnegative":
        kwargs["nonnegative_weights"] = True
    elif variant == "smooth":
        kwargs["smooth_v"] = 0.1
    result = benchmark(
        constrained_dpar2, structured_tensor, bench_config,
        compressed=compressed, **kwargs,
    )
    assert result.n_iterations == bench_config.max_iterations


def test_model_save_load(benchmark, structured_tensor, bench_config,
                         tmp_path):
    result = dpar2(structured_tensor, bench_config)
    # Saved models are immutable, so every round writes a fresh directory.
    paths = (tmp_path / f"model-{n}" for n in itertools.count())

    def roundtrip():
        path = next(paths)
        result.save(path)
        return Parafac2Result.load(path, mmap=False)

    loaded = benchmark(roundtrip)
    assert loaded.rank == result.rank
