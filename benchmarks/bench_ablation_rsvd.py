"""Ablation — randomized-SVD power iterations (q in Algorithm 1).

q trades compression time against accuracy: q=0 is the cheapest sketch,
each extra power iteration adds two passes over every slice.  Ablation A1
of :mod:`repro.experiments.ablations` studies this knob; the benchmark
quantifies the cost side, and the assertion quantifies the accuracy side
(fitness must not *degrade* as q grows).
"""

import pytest

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.util.config import DecompositionConfig

QS = [0, 1, 2]


@pytest.mark.parametrize("q", QS)
def test_compression_cost_vs_power_iterations(benchmark, audio_tensor, q):
    compressed = benchmark(
        compress_tensor, audio_tensor, 10,
        power_iterations=q, random_state=0,
    )
    assert compressed.rank == 10


def test_fitness_monotone_in_power_iterations(structured_tensor):
    fits = []
    for q in QS:
        config = DecompositionConfig(
            rank=10, max_iterations=10, power_iterations=q, random_state=0
        )
        fits.append(dpar2(structured_tensor, config).fitness(structured_tensor))
    assert fits[-1] >= fits[0] - 0.02
