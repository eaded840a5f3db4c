"""Substrate micro-benchmarks: the kernel-level facts the paper builds on.

* randomized SVD is O(I J R) vs full SVD's O(I J min(I, J)) — the gap that
  makes stage-1 compression cheap (Section II-B);
* slice-wise MTTKRP avoids materializing Khatri-Rao products — SPARTan's
  kernel (and the naive cost PARAFAC2-ALS pays);
* the batched R×R SVDs of DPar2's iteration are trivia next to slice-sized
  work.

Run as a script for the perf-regression tracker::

    python benchmarks/bench_kernels.py --json BENCH_kernels.json \
        --check benchmarks/baselines/bench_kernels_baseline.json

The script times the two DPar2 hot paths on a many-small-slices synthetic
(K >= 200): stage-1 compression per-slice vs batched, and the compressed
ALS sweeps, at float64 and float32.  On the numpy backend it additionally
times the **sparse axis** (schema v3): batched stage-1 compression of a
~2%-density CSR tensor against the identical data densified, recording
sketch seconds and tracemalloc peak bytes for both — the sparse fast path
must stay ≥ 3x faster at that density, and its peak memory below the
dense run's.  ``--json`` records the measurements; ``--check`` exits
non-zero when iterate, preprocess, *or sparse stage-1* seconds regress
more than ``--max-regression`` (default 2x) against a checked-in baseline.
``--backend`` selects the compute backend (numpy/torch/torch-cuda/cupy) —
the record carries a ``compute_backend`` field so baselines from different
backends are never compared against each other (v1-v3 baselines without
the newer fields still check cleanly: absent metrics are skipped).

Schema v4 adds ``timing_stats``: per timed metric, the full
``{best, median, spread}`` distribution over the ``--repeats`` runs
(``spread = (max - min) / median``), so a recorded trajectory carries its
own noise estimate.  The flat ``*_seconds`` keys keep their best-of-N
meaning, which is what the regression gate compares — old baselines read
and check unchanged.

Schema v5 adds the ``sparse_backend`` axis, recorded on *every* compute
backend now that CSR stage 1 routes through the ``xp`` sparse surface:
sparse sketch seconds on the selected backend plus a small row-count sweep
recording where sparse overtakes dense sketching there.  Purely
informational — the gate math is unchanged (device timings are
machine-dependent, and the CUDA crossover point stays ungated), and v3/v4
baselines read and check exactly as before.

Schema v6 adds the observability axis: ``obs_overhead`` times the dpar2
sweeps with the metrics registry enabled vs disabled (same box, same
invocation) and the machine-independent ratio is gated at 1.05 — the
instrumentation must stay effectively free — plus ``metrics``, the
process-default registry snapshot the run produced.  Older baselines
read and check unchanged (the ratio is checked on the record alone).
"""

import argparse
import json
import platform
import sys
import time

import numpy as np
import pytest

from repro.decomposition.cp_als import slice_mttkrp
from repro.linalg.randomized_svd import randomized_svd
from repro.linalg.truncated_svd import truncated_svd
from repro.tensor.dense import DenseTensor
from repro.tensor.products import khatri_rao

RANK = 10


@pytest.fixture(scope="module")
def tall_matrix():
    return np.random.default_rng(0).standard_normal((2000, 400))


def test_randomized_svd_tall(benchmark, tall_matrix):
    out = benchmark(randomized_svd, tall_matrix, RANK, random_state=0)
    assert out.rank == RANK


def test_full_svd_tall(benchmark, tall_matrix):
    out = benchmark(truncated_svd, tall_matrix, RANK)
    assert out.rank == RANK


def test_rsvd_accuracy_near_optimal(tall_matrix):
    """The speed gap must not be bought with meaningful accuracy loss."""
    exact = truncated_svd(tall_matrix, RANK)
    approx = randomized_svd(tall_matrix, RANK, power_iterations=2,
                            random_state=0)
    exact_err = np.linalg.norm(tall_matrix - exact.reconstruct())
    approx_err = np.linalg.norm(tall_matrix - approx.reconstruct())
    assert approx_err <= 1.02 * exact_err


@pytest.fixture(scope="module")
def mttkrp_inputs():
    rng = np.random.default_rng(1)
    R, J, K = 10, 300, 200
    slices = [rng.standard_normal((R, J)) for _ in range(K)]
    H = rng.standard_normal((R, R))
    V = rng.standard_normal((J, R))
    W = rng.standard_normal((K, R))
    return slices, H, V, W


def test_slice_mttkrp_mode1(benchmark, mttkrp_inputs):
    slices, H, V, W = mttkrp_inputs
    out = benchmark(slice_mttkrp, slices, H, V, W, 1)
    assert out.shape == (10, 10)


def test_naive_mttkrp_mode1(benchmark, mttkrp_inputs):
    """The PARAFAC2-ALS route: unfold Y and materialize the Khatri-Rao."""
    slices, H, V, W = mttkrp_inputs
    Y = DenseTensor.from_frontal_slices(slices)

    def naive():
        return Y.unfold(1) @ khatri_rao(W, V)

    out = benchmark(naive)
    assert out.shape == (10, 10)


def test_batched_small_svd(benchmark):
    """DPar2's per-sweep cost: K SVDs of R x R matrices, batched."""
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((200, RANK, RANK))

    def batched():
        Z, _, Pt = np.linalg.svd(stack)
        return Z @ Pt

    out = benchmark(batched)
    assert out.shape == stack.shape


# --------------------------------------------------------------------- #
# script mode: BENCH_kernels.json trajectory + CI regression gate
# --------------------------------------------------------------------- #


def _timing_stats(samples) -> dict:
    """Summarize repeat wall-clocks: best, median, and relative spread.

    ``spread`` is ``(max - min) / median`` — a scale-free noise indicator
    that lets a reader judge how trustworthy the best/median numbers are
    without rerunning the benchmark (schema v4).
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = (
        ordered[n // 2]
        if n % 2
        else 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    )
    return {
        "best": ordered[0],
        "median": median,
        "spread": (ordered[-1] - ordered[0]) / median if median > 0 else 0.0,
    }


def _best_of(repeats, fn):
    """Wall-clock stats over ``repeats`` runs: ``(stats dict, last value)``."""
    samples = []
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return _timing_stats(samples), value


def _peak_tracemalloc(fn) -> tuple[int, object]:
    """Peak traced allocation in bytes while running ``fn`` once."""
    import tracemalloc

    tracemalloc.start()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, value


def run_sparse_axis(
    *,
    n_slices: int = 64,
    n_rows: int = 512,
    n_columns: int = 256,
    density: float = 0.02,
    rank: int = 8,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """The sparse axis: batched stage-1 on CSR slices vs the same densified.

    Equal-height slices (one row-count bucket) so both paths run exactly
    one stacked pipeline — the comparison isolates SpMM-vs-dense sketching
    at equal shapes, seeds, and bucket schedules.  Returns the
    ``sparse_*`` / ``stage1_sparse_*`` keys merged into the main record.
    """
    from repro.data.synthetic import sparse_irregular_tensor
    from repro.decomposition.dpar2 import compress_tensor
    from repro.sparse.stacked import spmm_backend

    sparse_tensor = sparse_irregular_tensor(
        n_rows, n_columns, n_slices,
        density=density, min_rows=n_rows, random_state=seed,
    )
    dense_tensor = sparse_tensor.densified()

    def run(tensor):
        return compress_tensor(
            tensor, rank, random_state=seed, backend="serial",
        )

    sparse_stats, _ = _best_of(repeats, lambda: run(sparse_tensor))
    dense_stats, _ = _best_of(repeats, lambda: run(dense_tensor))
    sparse_seconds = sparse_stats["best"]
    dense_seconds = dense_stats["best"]
    sparse_peak, _ = _peak_tracemalloc(lambda: run(sparse_tensor))
    dense_peak, _ = _peak_tracemalloc(lambda: run(dense_tensor))

    return {
        "timing_stats": {
            "stage1_sparse_seconds": sparse_stats,
            "stage1_sparse_dense_seconds": dense_stats,
        },
        "sparse_spmm": spmm_backend(),
        "sparse_n_slices": sparse_tensor.n_slices,
        "sparse_rows": n_rows,
        "sparse_columns": n_columns,
        "sparse_density": density,
        "sparse_nnz": sparse_tensor.n_entries,
        "sparse_rank": rank,
        "sparse_input_bytes": sparse_tensor.nbytes,
        "sparse_dense_input_bytes": dense_tensor.nbytes,
        "stage1_sparse_seconds": sparse_seconds,
        "stage1_sparse_dense_seconds": dense_seconds,
        "stage1_sparse_speedup": dense_seconds / sparse_seconds,
        "sparse_peak_bytes": sparse_peak,
        "sparse_dense_peak_bytes": dense_peak,
    }


def run_sparse_backend_axis(
    *,
    compute_backend: str = "numpy",
    n_slices: int = 32,
    n_columns: int = 256,
    density: float = 0.02,
    rank: int = 8,
    repeats: int = 3,
    seed: int = 0,
    crossover_rows: tuple = (128, 512),
) -> dict:
    """Schema v5 ``sparse_backend`` axis: sparse sketching per backend.

    Batched stage-1 compression of a CSR tensor with ``compute_backend``
    routing the SpMM sketch (device handles upload once, the panel QRs and
    the small SVDs stay resident), at each row count in
    ``crossover_rows`` — the sweep records where sparse sketching
    overtakes densify-and-sketch *on that backend*, which is the number an
    operator picking ``--density-threshold`` for a device run needs.
    Purely informational: the regression gate never reads these keys
    (wall-clocks on device backends are machine-dependent).
    """
    from repro.data.synthetic import sparse_irregular_tensor
    from repro.decomposition.dpar2 import compress_tensor

    def run(tensor):
        return compress_tensor(
            tensor, rank, random_state=seed, backend="serial",
            compute_backend=compute_backend,
        )

    crossover = []
    for n_rows in crossover_rows:
        sparse_tensor = sparse_irregular_tensor(
            n_rows, n_columns, n_slices,
            density=density, min_rows=n_rows, random_state=seed,
        )
        dense_tensor = sparse_tensor.densified()
        sparse_stats, _ = _best_of(repeats, lambda: run(sparse_tensor))
        dense_stats, _ = _best_of(repeats, lambda: run(dense_tensor))
        crossover.append({
            "rows": n_rows,
            "nnz": sparse_tensor.n_entries,
            "sparse_seconds": sparse_stats["best"],
            "dense_seconds": dense_stats["best"],
            "speedup": dense_stats["best"] / sparse_stats["best"],
            "timing_stats": {
                "sparse_seconds": sparse_stats,
                "dense_seconds": dense_stats,
            },
        })
    largest = crossover[-1]
    return {
        "compute_backend": compute_backend,
        "n_slices": n_slices,
        "n_columns": n_columns,
        "density": density,
        "rank": rank,
        "sketch_seconds": largest["sparse_seconds"],
        "dense_sketch_seconds": largest["dense_seconds"],
        "speedup": largest["speedup"],
        "crossover": crossover,
    }


def run_obs_overhead(*, rank: int, sweeps: int, repeats: int, seed: int) -> dict:
    """Measure the metrics-registry cost on the dpar2 sweep hot path.

    Runs the same compressed-sweep workload twice — once with an enabled
    registry installed, once with a disabled one (tracing off in both) —
    and reports best-of-N iterate seconds for each plus their ratio.  The
    ratio is machine-independent (both halves run on the same box within
    the same invocation) and CI-gated at 1.05: instrumentation that costs
    the hot path more than 5% is a regression in its own right.
    """
    from repro.data.synthetic import irregular_scalability_tensor
    from repro.decomposition.dpar2 import dpar2
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.util.config import DecompositionConfig

    tensor = irregular_scalability_tensor(48, 24, 120, min_rows=16, random_state=seed)
    config = DecompositionConfig(
        rank=rank, max_iterations=max(sweeps, 8), tolerance=0.0,
        random_state=seed, backend="serial",
    )

    def iterate_best(registry: MetricsRegistry) -> float:
        samples = []
        with use_registry(registry):
            for _ in range(max(repeats, 3)):
                samples.append(dpar2(tensor, config).iterate_seconds)
        return min(samples)

    # Warm caches once so neither half pays first-touch costs.
    dpar2(tensor, config)
    enabled = iterate_best(MetricsRegistry(enabled=True))
    disabled = iterate_best(MetricsRegistry(enabled=False))
    return {
        "enabled_seconds": enabled,
        "disabled_seconds": disabled,
        "overhead_ratio": enabled / disabled if disabled > 0 else 1.0,
    }


def run_kernel_bench(
    *,
    n_slices: int = 240,
    n_columns: int = 30,
    rank: int = 8,
    sweeps: int = 8,
    repeats: int = 3,
    seed: int = 0,
    compute_backend: str = "numpy",
) -> dict:
    """Time the two hot paths on a many-small-slices synthetic tensor.

    Returns the record written to ``BENCH_kernels.json``: stage-1 seconds
    per dispatch strategy (the per-slice reference is the stage-1 router's
    ``use_greedy_partition=False`` route on the serial backend, one
    randomized SVD per slice), preprocess/iterate seconds and bytes for a full
    ``dpar2`` run, the float32 pipeline's timings for comparison, the
    per-backend ``sparse_backend`` axis of :func:`run_sparse_backend_axis`,
    and (on the numpy backend) the gated sparse axis of
    :func:`run_sparse_axis` — the host sparse-vs-dense comparison the
    regression gate reads; its floors are host facts, so device records
    skip it and stay ungated.
    ``compute_backend`` re-runs the whole matrix through the ``xp`` layer
    (the per-slice reference dispatch is host-only, so on a non-numpy
    backend the stage-1 comparison is host-per-slice vs device-batched —
    exactly the routing a real run would take).
    """
    from repro.data.synthetic import irregular_scalability_tensor
    from repro.decomposition.dpar2 import compress_tensor, dpar2
    from repro.util.config import DecompositionConfig

    tensor = irregular_scalability_tensor(
        48, n_columns, n_slices, min_rows=16, random_state=seed
    )

    per_slice_stats, _ = _best_of(
        repeats,
        lambda: compress_tensor(
            tensor, rank, random_state=seed,
            backend="serial", use_greedy_partition=False,
        ),
    )
    batched_stats, _ = _best_of(
        repeats,
        lambda: compress_tensor(
            tensor, rank, random_state=seed, backend="serial",
            compute_backend=compute_backend,
        ),
    )
    per_slice_seconds = per_slice_stats["best"]
    batched_seconds = batched_stats["best"]

    # Schema v4: every flat ``*_seconds`` key keeps its best-of-N meaning
    # (so v1-v3 baselines compare unchanged), and ``timing_stats`` carries
    # the per-metric {best, median, spread} distribution alongside.
    record = {
        "schema_version": 6,
        "timing_stats": {
            "stage1_per_slice_seconds": per_slice_stats,
            "stage1_batched_seconds": batched_stats,
        },
        "compute_backend": compute_backend,
        "platform": platform.platform(),
        "n_slices": tensor.n_slices,
        "n_columns": tensor.n_columns,
        "rank": rank,
        "sweeps": sweeps,
        "repeats": repeats,
        "input_bytes": tensor.nbytes,
        "stage1_per_slice_seconds": per_slice_seconds,
        "stage1_batched_seconds": batched_seconds,
        "stage1_batched_speedup": per_slice_seconds / batched_seconds,
    }
    for dtype in ("float64", "float32"):
        config = DecompositionConfig(
            rank=rank, max_iterations=sweeps, tolerance=0.0,
            random_state=seed, backend="serial", dtype=dtype,
            compute_backend=compute_backend,
        )
        # Best-of-N on each phase independently: the CI gate compares these
        # numbers across machines, so a single noisy sample must not decide.
        results = [dpar2(tensor, config) for _ in range(repeats)]
        key = "" if dtype == "float64" else "_float32"
        preprocess = _timing_stats([r.preprocess_seconds for r in results])
        iterate = _timing_stats([r.iterate_seconds for r in results])
        record[f"preprocess_seconds{key}"] = preprocess["best"]
        record[f"iterate_seconds{key}"] = iterate["best"]
        record[f"preprocessed_bytes{key}"] = results[0].preprocessed_bytes
        record["timing_stats"][f"preprocess_seconds{key}"] = preprocess
        record["timing_stats"][f"iterate_seconds{key}"] = iterate
    if compute_backend == "numpy":
        sparse = run_sparse_axis(rank=rank, repeats=repeats, seed=seed)
        record["timing_stats"].update(sparse.pop("timing_stats"))
        record.update(sparse)
    # Schema v5: sparse sketching on the *selected* backend (every
    # backend, numpy included) — informational only, never gated.
    record["sparse_backend"] = run_sparse_backend_axis(
        compute_backend=compute_backend, rank=rank, repeats=repeats, seed=seed
    )
    # Schema v6: the observability axis — registry-on vs registry-off
    # sweep cost (ratio gated at 1.05) plus the process-default registry's
    # snapshot, so a recorded run carries the counters it produced.
    from repro.obs.metrics import get_registry

    record["obs_overhead"] = run_obs_overhead(
        rank=rank, sweeps=sweeps, repeats=repeats, seed=seed
    )
    record["metrics"] = get_registry().snapshot()
    return record


def check_against_baseline(
    record: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Return failure messages for metrics regressing beyond the factor.

    Schema-tolerant both ways: a v1 baseline (no ``compute_backend`` /
    preprocess history) simply skips the checks it has no data for, and a
    baseline recorded on a different compute backend refuses the
    comparison outright rather than misreading a backend change as a
    regression.
    """
    failures = []
    # v1 baselines predate the backend axis; they were all numpy records.
    # v3 adds the sparse_* workload keys — older baselines (and non-numpy
    # records, which skip the sparse axis) simply have nothing to compare.
    for key in (
        "n_slices", "n_columns", "rank", "sweeps", "compute_backend",
        "sparse_n_slices", "sparse_rows", "sparse_columns", "sparse_density",
        "sparse_rank",
    ):
        base = baseline.get(key, "numpy" if key == "compute_backend" else None)
        current = record.get(key)
        if base is not None and current is not None and base != current:
            failures.append(
                f"workload mismatch on {key}: ran {current} but baseline "
                f"recorded {base} — timings are not comparable"
            )
    if failures:
        return failures
    for metric in (
        "iterate_seconds",
        "iterate_seconds_float32",
        "preprocess_seconds",
        "preprocess_seconds_float32",
        "stage1_sparse_seconds",
    ):
        base = baseline.get(metric)
        current = record.get(metric)
        if base is None or base <= 0 or current is None:
            continue
        if current > base * max_regression:
            failures.append(
                f"{metric} regressed {current / base:.2f}x "
                f"({current:.4f}s vs baseline {base:.4f}s, "
                f"allowed {max_regression:.1f}x)"
            )
    # Machine-independent guards: absolute seconds vary with the runner,
    # but batched stage 1 dropping below the per-slice path — or the
    # sparse fast path losing its advantage over dense sketching at 2%
    # density — is a genuine kernel regression wherever it happens.
    speedup = record.get("stage1_batched_speedup")
    if speedup is not None and speedup < 0.9:
        failures.append(
            f"batched stage 1 slower than per-slice dispatch "
            f"(speedup {speedup:.2f}x < 0.9x)"
        )
    sparse_speedup = record.get("stage1_sparse_speedup")
    if sparse_speedup is not None:
        # The ≥3x bar holds for the compiled (scipy) SpMM; the numpy-only
        # fallback is expansion-bound and only required not to *lose* to
        # the dense path.
        floor = 3.0 if record.get("sparse_spmm") == "scipy" else 1.0
        if sparse_speedup < floor:
            failures.append(
                f"sparse stage 1 under {floor:.1f}x the dense batched path "
                f"at {record.get('sparse_density', '?')} density on the "
                f"{record.get('sparse_spmm', '?')} spmm kernel "
                f"(speedup {sparse_speedup:.2f}x)"
            )
    sparse_peak = record.get("sparse_peak_bytes")
    dense_peak = record.get("sparse_dense_peak_bytes")
    if sparse_peak is not None and dense_peak is not None and sparse_peak >= dense_peak:
        failures.append(
            f"sparse stage 1 peak memory not below the dense run "
            f"({sparse_peak} >= {dense_peak} bytes)"
        )
    # Schema v6: the metrics registry must stay effectively free on the
    # sweep hot path.  Best-of-N against best-of-N on the same box within
    # one invocation, so the 5% budget is headroom, not noise tolerance.
    obs = record.get("obs_overhead")
    if obs is not None and obs["overhead_ratio"] > 1.05:
        failures.append(
            f"metrics registry costs {100 * (obs['overhead_ratio'] - 1):.1f}% "
            f"on the sweep hot path (enabled {obs['enabled_seconds']:.4f}s vs "
            f"disabled {obs['disabled_seconds']:.4f}s, allowed 5%)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="DPar2 hot-path benchmark: batched stage-1 + sweeps"
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the measurement record to this file")
    parser.add_argument("--check", metavar="BASELINE",
                        help="baseline JSON to compare iterate seconds against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="failure threshold as a factor over the baseline "
                        "(default: 2.0)")
    parser.add_argument("--slices", type=int, default=240)
    parser.add_argument("--columns", type=int, default=30)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--sweeps", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--backend", default="numpy", metavar="COMPUTE",
                        help="compute backend for the batched kernels: "
                        "numpy (default), torch, torch-cuda, or cupy")
    args = parser.parse_args(argv)

    record = run_kernel_bench(
        n_slices=args.slices, n_columns=args.columns, rank=args.rank,
        sweeps=args.sweeps, repeats=args.repeats,
        compute_backend=args.backend,
    )
    print(f"stage 1 (K={record['n_slices']} small slices,"
          f" {record['compute_backend']}):"
          f" per-slice {record['stage1_per_slice_seconds']:.4f}s"
          f" batched {record['stage1_batched_seconds']:.4f}s"
          f" -> {record['stage1_batched_speedup']:.2f}x")
    print(f"dpar2   : preprocess {record['preprocess_seconds']:.4f}s"
          f" iterate {record['iterate_seconds']:.4f}s"
          f" ({record['sweeps']} sweeps,"
          f" {record['preprocessed_bytes']} bytes compressed)")
    print(f"float32 : preprocess {record['preprocess_seconds_float32']:.4f}s"
          f" iterate {record['iterate_seconds_float32']:.4f}s"
          f" ({record['preprocessed_bytes_float32']} bytes compressed)")
    if "stage1_sparse_seconds" in record:
        print(f"sparse  : stage 1 on {record['sparse_n_slices']} slices of "
              f"{record['sparse_rows']}x{record['sparse_columns']} at "
              f"{record['sparse_density']:.0%} density:"
              f" csr {record['stage1_sparse_seconds']:.4f}s"
              f" dense {record['stage1_sparse_dense_seconds']:.4f}s"
              f" -> {record['stage1_sparse_speedup']:.2f}x,"
              f" peak {record['sparse_peak_bytes']} vs"
              f" {record['sparse_dense_peak_bytes']} bytes")
    obs = record["obs_overhead"]
    print(f"obs     : iterate with registry enabled {obs['enabled_seconds']:.4f}s"
          f" vs disabled {obs['disabled_seconds']:.4f}s"
          f" -> {obs['overhead_ratio']:.3f}x (gate: <= 1.05x)")
    axis = record["sparse_backend"]
    for point in axis["crossover"]:
        print(f"sparse/{axis['compute_backend']}: "
              f"{point['rows']}x{axis['n_columns']}x{axis['n_slices']} at "
              f"{axis['density']:.0%}: csr {point['sparse_seconds']:.4f}s"
              f" dense {point['dense_seconds']:.4f}s"
              f" -> {point['speedup']:.2f}x")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(record, baseline, args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"regression gate ok (<= {args.max_regression:.1f}x baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
