"""Tests for Algorithm 4 (greedy partitioning) and the backend maps."""

import threading

import numpy as np
import pytest

from repro.parallel.backends import get_backend
from repro.parallel.partition import (
    greedy_partition,
    partition_imbalance,
    round_robin_partition,
)


class TestGreedyPartition:
    def test_every_index_appears_once(self):
        parts = greedy_partition([5, 3, 8, 1, 9, 2], 3)
        flat = sorted(idx for group in parts for idx in group)
        assert flat == list(range(6))

    def test_part_count(self):
        assert len(greedy_partition([1, 2, 3], 4)) == 4

    def test_perfect_split_found(self):
        # 6 items of equal weight over 3 threads -> 2 each, perfectly even.
        parts = greedy_partition([4, 4, 4, 4, 4, 4], 3)
        loads = [sum(4 for _ in group) for group in parts]
        assert loads == [8, 8, 8]

    def test_lpt_known_case(self):
        # Classic LPT example: weights 7,6,5,4 over 2 bins -> {7,4},{6,5}.
        parts = greedy_partition([7, 6, 5, 4], 2)
        loads = sorted(sum([7, 6, 5, 4][i] for i in group) for group in parts)
        assert loads == [11, 11]

    def test_single_thread_gets_everything(self):
        parts = greedy_partition([3, 1, 2], 1)
        assert sorted(parts[0]) == [0, 1, 2]

    def test_beats_round_robin_on_skewed_weights(self):
        rng = np.random.default_rng(0)
        weights = np.exp(rng.uniform(0, 5, size=40))
        greedy = partition_imbalance(weights, greedy_partition(weights, 6))
        naive = partition_imbalance(weights, round_robin_partition(40, 6))
        assert greedy <= naive

    def test_zero_weights_ok(self):
        parts = greedy_partition([0, 0, 0], 2)
        assert sum(len(g) for g in parts) == 3

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            greedy_partition([1, -2], 2)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError, match="n_parts"):
            greedy_partition([1], 0)

    def test_deterministic(self):
        a = greedy_partition([5, 5, 3, 3, 2], 2)
        b = greedy_partition([5, 5, 3, 3, 2], 2)
        assert a == b

    def test_more_parts_than_items_leaves_empty_groups(self):
        parts = greedy_partition([7, 3], 5)
        assert len(parts) == 5
        assert sorted(idx for group in parts for idx in group) == [0, 1]
        assert sum(1 for group in parts if not group) == 3

    def test_zero_weights_spread_across_parts(self):
        # All-zero weights never change any load; the item-count tie-break
        # must still spread them instead of piling everything on part 0.
        parts = greedy_partition([0.0] * 6, 3)
        assert [len(group) for group in parts] == [2, 2, 2]

    def test_zero_weight_tail_spreads(self):
        # Mixed case: the zero-weight tail lands on the emptiest parts.
        parts = greedy_partition([5, 0, 0, 0], 2)
        assert max(len(group) for group in parts) <= 3
        assert all(group for group in parts)

    def test_equal_weight_ties_break_by_part_index(self):
        parts = greedy_partition([2, 2, 2], 3)
        assert parts == [[0], [1], [2]]


class TestRoundRobin:
    def test_assignment(self):
        assert round_robin_partition(5, 2) == [[0, 2, 4], [1, 3]]

    def test_empty(self):
        assert round_robin_partition(0, 3) == [[], [], []]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_items"):
            round_robin_partition(-1, 2)


class TestImbalance:
    def test_perfect_balance_is_one(self):
        assert partition_imbalance([2, 2], [[0], [1]]) == 1.0

    def test_worst_case(self):
        # everything on one of two threads: max load = total, mean = total/2.
        assert partition_imbalance([3, 5], [[0, 1], []]) == 2.0

    def test_zero_weights(self):
        assert partition_imbalance([0, 0], [[0], [1]]) == 1.0

    def test_empty_groups_count_toward_mean(self):
        # n_parts > len(weights) is legitimate; the idle part is real lost
        # parallelism and must show up in the ratio.
        assert partition_imbalance([4], [[0], []]) == 2.0

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError, match="at least one group"):
            partition_imbalance([1, 2], [])


class TestParallelMap:
    """``ExecutionBackend.map`` on a thread pool: order and validation."""

    def test_preserves_order(self):
        backend = get_backend("thread", 3)
        out = backend.map(lambda x: x * x, list(range(10)))
        assert out == [x * x for x in range(10)]

    def test_single_thread_path(self):
        backend = get_backend("thread", 1)
        assert backend.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_actually_uses_threads(self):
        seen = set()

        def record(x):
            seen.add(threading.get_ident())
            return x

        backend = get_backend("thread", 4)
        backend.map(record, list(range(50)))
        # Thread ids may collapse on a 1-core box; the guarantee tested is
        # that the pool ran the work, not where it was placed.
        assert len(seen) >= 1

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            get_backend("thread", 0)


class TestMapPartitioned:
    """``ExecutionBackend.map_partitioned``: Algorithm-4 groups, input order."""

    def test_preserves_order(self):
        backend = get_backend("thread", 2)
        out = backend.map_partitioned(lambda x: x * 2, [5, 1, 4, 2], [5, 1, 4, 2])
        assert out == [10, 2, 8, 4]

    def test_matches_sequential(self):
        items = list(range(20))
        weights = [(i % 5) + 1 for i in items]
        seq = [x**2 for x in items]
        backend = get_backend("thread", 4)
        assert backend.map_partitioned(lambda x: x**2, items, weights) == seq

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            get_backend("thread", 2).map_partitioned(lambda x: x, [1, 2], [1])

    def test_single_item(self):
        backend = get_backend("thread", 8)
        assert backend.map_partitioned(lambda x: -x, [7], [1]) == [-7]
