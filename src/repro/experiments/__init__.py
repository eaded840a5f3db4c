"""Experiment harness — one module per table/figure of the paper.

Every module exposes ``run(...) -> ExperimentReport`` (importable, used by
tests and benchmarks) and is executable as a script::

    python -m repro.experiments.fig1_tradeoff
    python -m repro.experiments.run_all     # everything, writes a report

``repro.cli.EXPERIMENT_MODULES`` maps each table and figure to its
module; ``repro bench-info`` prints that index.
"""

from repro.experiments.harness import MethodMeasurement, measure_method, sweep_methods
from repro.experiments.reporting import ExperimentReport, render_table

__all__ = [
    "ExperimentReport",
    "MethodMeasurement",
    "measure_method",
    "render_table",
    "sweep_methods",
]
