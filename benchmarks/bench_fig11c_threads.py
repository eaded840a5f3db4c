"""Fig. 11(c) — multi-core behaviour of the compression stage.

On a multi-core machine the per-slice randomized SVDs scale near-linearly
(paper: 5.5x at 10 threads).  These benchmarks measure the worker sweep for
each execution backend; on a single-core container they document that the
dispatch adds no meaningful overhead (the modeled curve lives in
``repro.experiments.fig11_scalability.run_threads``).

The backend comparison pins one worker count and swaps the substrate:
``serial`` is the no-dispatch floor, and ``thread`` relies on BLAS
releasing the GIL — which DPar2's compression stage can exploit because
each slice is SVD-heavy.  Worker processes are the shard coordinator's
(``bench_shard.py`` measures them).
"""

import pytest

from repro.data.synthetic import irregular_scalability_tensor
from repro.decomposition.dpar2 import compress_tensor
from repro.parallel.backends import BACKEND_NAMES, get_backend

THREADS = [1, 2, 4]
WORKERS_FOR_BACKEND_SWEEP = 2


@pytest.fixture(scope="module")
def skewed_tensor():
    """Skewed slice heights: the regime Algorithm 4 is designed for."""
    return irregular_scalability_tensor(400, 60, 40, random_state=0)


@pytest.mark.parametrize("n_threads", THREADS)
def test_compression_thread_sweep(benchmark, skewed_tensor, n_threads):
    compressed = benchmark(
        compress_tensor,
        skewed_tensor,
        10,
        n_threads=n_threads,
        random_state=0,
    )
    assert compressed.n_slices == skewed_tensor.n_slices


@pytest.mark.parametrize("backend_name", list(BACKEND_NAMES))
def test_compression_backend_sweep(benchmark, skewed_tensor, backend_name):
    """Same compression, same worker count, different execution substrate.

    The backend instance is created outside the timed region and reused
    across rounds, matching how ``dpar2`` holds one backend per call.
    """
    engine = get_backend(backend_name, WORKERS_FOR_BACKEND_SWEEP)
    compressed = benchmark.pedantic(
        compress_tensor,
        args=(skewed_tensor, 10),
        kwargs={"random_state": 0, "backend": engine},
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert compressed.n_slices == skewed_tensor.n_slices
