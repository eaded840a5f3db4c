"""Multicore substrate: Algorithm 4's greedy work partitioning plus
pluggable execution backends (serial / thread).

numpy's BLAS kernels release the GIL, so thread-level parallelism across
slices gives genuine speedups for the SVD-heavy compression stage — the same
slice-level parallelism the paper's MATLAB implementation uses.  Worker
processes live in the shard coordinator (:mod:`repro.parallel.sharding`):
they are forked, inherit their slices, and never ship them anywhere.
"""

from repro.parallel.backends import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.parallel.partition import greedy_partition, partition_imbalance

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "greedy_partition",
    "partition_imbalance",
]
