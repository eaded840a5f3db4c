"""Pluggable execution backends: serial and thread workers.

Every slice-parallel stage in the library dispatches through an
:class:`ExecutionBackend`, selected by name (``DecompositionConfig.backend``
or the CLI's ``--backend`` flag):

``serial``
    A plain loop — the baseline every equivalence test compares against,
    and the fastest choice for small problems.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  numpy's BLAS/LAPACK
    kernels release the GIL, so threads speed up the SVD-heavy stages while
    sharing slice memory for free.  This is the paper's own model (6-thread
    OpenMP-style slice parallelism) and the default.

Worker processes are not an execution backend: they belong to the shard
coordinator (``DecompositionConfig.shards`` with ``shard_backend="process"``,
see :mod:`repro.parallel.sharding`), which forks workers that inherit their
slices and survives their failures.

Both backends preserve input order, run the work single-shot when it cannot
benefit from workers, and honour Algorithm 4's greedy partitioning through
:meth:`ExecutionBackend.map_partitioned` — so results are identical (to the
bit, given per-item RNGs) no matter the backend or worker count.  Neither
holds resources between calls: a thread pool lives for one ``map``.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, ClassVar, Sequence

from repro.parallel.partition import greedy_partition
from repro.util.validation import check_positive_int

#: Registry names, in the order they should be offered to users.
BACKEND_NAMES = ("serial", "thread")


class ExecutionBackend(abc.ABC):
    """Order-preserving map over work items, with pluggable workers.

    Parameters
    ----------
    n_workers:
        Worker count ``T``.  Every backend degenerates to an inline loop
        when ``n_workers == 1`` or there is at most one item, so the
        single-worker timings carry no dispatch overhead (important for the
        Fig. 11(c) baselines).
    """

    name: ClassVar[str]

    def __init__(self, n_workers: int = 1) -> None:
        self.n_workers = check_positive_int(n_workers, "n_workers")

    def map(self, func: Callable, items: Sequence) -> list:
        """Apply ``func`` to every item, preserving order.

        Each item is its own unit of work, so the workers balance uneven
        items even without cost estimates.
        """
        items = list(items)
        if self._inline(len(items)):
            return [func(item) for item in items]
        return self._run_groups(func, items, [[index] for index in range(len(items))])

    def map_partitioned(self, func: Callable, items: Sequence, weights: Sequence[float]) -> list:
        """Apply ``func`` with Algorithm-4 load balancing over ``weights``.

        Items are grouped by :func:`greedy_partition`; each worker processes
        its whole group sequentially (the paper's per-thread slice sets
        ``Ti``).  Results come back in input order.
        """
        items = list(items)
        if len(items) != len(weights):
            raise ValueError(
                f"items and weights must align: {len(items)} vs {len(weights)}"
            )
        if self._inline(len(items)):
            return [func(item) for item in items]
        groups = [g for g in greedy_partition(weights, self.n_workers) if g]
        return self._run_groups(func, items, groups)

    def _inline(self, n_items: int) -> bool:
        return self.n_workers == 1 or n_items <= 1

    @abc.abstractmethod
    def _run_groups(self, func: Callable, items: list, groups: list[list[int]]) -> list:
        """Run ``func`` over pre-grouped item indices; return in item order."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class SerialBackend(ExecutionBackend):
    """Everything on the calling thread, whatever ``n_workers`` says."""

    name = "serial"

    def _inline(self, n_items: int) -> bool:
        return True

    def _run_groups(self, func, items, groups):  # pragma: no cover - _inline
        return [func(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """GIL-sharing worker threads; zero-copy by construction."""

    name = "thread"

    def _run_groups(self, func, items, groups):
        results: list = [None] * len(items)

        def run_group(indices: list[int]) -> None:
            for index in indices:
                results[index] = func(items[index])

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            for future in [pool.submit(run_group, group) for group in groups]:
                future.result()
        return results


#: Name → backend class — ``DecompositionConfig`` validates against it.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
}


def get_backend(backend: "str | ExecutionBackend", n_workers: int = 1) -> ExecutionBackend:
    """Resolve a backend spec into a live :class:`ExecutionBackend`.

    Parameters
    ----------
    backend:
        A registry name (case-insensitive) or an existing instance, which
        is returned unchanged — its own ``n_workers`` wins.
    n_workers:
        Worker count for a newly constructed backend.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name or ExecutionBackend, got {type(backend).__name__}"
        )
    key = backend.strip().lower()
    if key not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(BACKEND_NAMES)}"
        )
    return BACKENDS[key](n_workers)
