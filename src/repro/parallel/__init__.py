"""Multicore substrate: Algorithm 4's greedy work partitioning plus
pluggable execution backends (serial / thread / process + shared memory).

numpy's BLAS kernels release the GIL, so thread-level parallelism across
slices gives genuine speedups for the SVD-heavy compression stage — the same
slice-level parallelism the paper's MATLAB implementation uses.  The process
backend escapes the GIL entirely, shipping slices to workers through
``multiprocessing.shared_memory`` (or as memory-map descriptors when the
tensor is already out-of-core).
"""

from repro.parallel.backends import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.parallel.partition import greedy_partition, partition_imbalance

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "greedy_partition",
    "partition_imbalance",
]
