"""Shared utilities: RNG handling, validation, configuration, fault
injection, atomic writes, and duration formatting.

These helpers are deliberately small and dependency-free so that every other
subpackage (linear algebra, tensors, decompositions, experiments) can rely on
them without import cycles.
"""

from repro.util.config import DecompositionConfig
from repro.util.faults import FaultInjected, FaultPlan, FaultSpec
from repro.util.rng import as_generator, spawn_generators
from repro.util.timing import format_seconds
from repro.util.validation import (
    check_matrix,
    check_non_negative_int,
    check_positive_int,
    check_probability,
    check_rank,
)

__all__ = [
    "DecompositionConfig",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "as_generator",
    "check_matrix",
    "check_non_negative_int",
    "check_positive_int",
    "check_probability",
    "check_rank",
    "format_seconds",
    "spawn_generators",
]
