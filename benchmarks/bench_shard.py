"""Sharded-DPar2 benchmark: invariance gate + allreduce accounting.

Measures the shard coordinator (:mod:`repro.decomposition.sharded`) on a
skewed-row-count synthetic tensor and writes ``BENCH_shard.json``:

* **Invariance** — sha256 of the final factors for every combination of
  {dense, CSR} x {float64, float32} x shards in {1, 2, 4}.  The digests
  must be *equal across shard counts* within each combination: that is the
  sharded path's correctness contract, machine-independent, and gated in
  CI (``--check``).
* **Overhead** — ``shards=1`` on the in-process ``serial`` shard backend
  against the unsharded run, best-of-N total seconds.  Both run the same
  sweep loop — the unsharded run on one cell after an in-process
  compression, ``shards=1`` on ``shard_cells`` cells after a shard-local
  stage 1 — so this ratio is the cost of the cell split and the shard
  stage 1; gated at ``--max-overhead`` (default 1.10x).
* **Allreduce payload** — bytes crossing shard boundaries per sweep,
  measured by the shard runner.  Gated against an explicit O(R·Rc) bound
  that does not contain K or the row counts: the whole point of the
  design is that sweep traffic is independent of the data size.
* **Speedup** — iterate seconds for shards in {1, 2, 4} on the process
  backend, recorded *ungated* (CI machines make no throughput promises).
* **Fault matrix** (``--inject``) — a deterministic fault at every
  ``shard.call.*`` site x {crash, hang} plus corrupt replies, on a
  2-shard process fixture with a short call deadline.  Each case is
  gated (``--check``) on the recovered factors being sha256-identical
  to the no-fault baseline with at least one worker restart recorded —
  the respawn-and-replay contract of
  :class:`~repro.parallel.sharding.ProcessShardRunner`.

The script pins OpenBLAS/OpenMP/MKL to one thread before numpy loads:
every forked shard worker inherits the BLAS pool, and shards x BLAS
threads above the core count oversubscribes the machine (on a 2-vCPU
VM six 2-shard process calls took 0.34-0.41 s each pinned and
0.9-15.8 s unpinned, and the unpinned dense digests left their
recorded families).

Run::

    python benchmarks/bench_shard.py --json BENCH_shard.json --check
    python benchmarks/bench_shard.py --inject --inject-only --check
"""

import os

# Pinned before numpy loads; forked shard workers inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def factor_sha256(result) -> str:
    """Digest of the final factors, invariant to everything but their bytes."""
    digest = hashlib.sha256()
    for array in (result.H, result.V, result.S, *result.Q):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _best_total(fn, repeats):
    """Best-of-N ``(total_seconds, iterate_seconds, result)`` for a solve."""
    best_total = float("inf")
    best_iterate = float("inf")
    result = None
    for _ in range(repeats):
        out = fn()
        best_total = min(best_total, out.total_seconds)
        best_iterate = min(best_iterate, out.iterate_seconds)
        result = out
    return best_total, best_iterate, result


def run_shard_bench(
    *,
    max_rows: int = 4000,
    n_columns: int = 128,
    n_slices: int = 64,
    rank: int = 24,
    sweeps: int = 10,
    repeats: int = 3,
    seed: int = 0,
    shard_counts=(1, 2, 4),
) -> dict:
    """Measure the shard coordinator; returns the ``BENCH_shard.json`` record.

    The fixture is the skewed-height synthetic of the partitioning
    ablation (log-uniform ``Ik``), large enough that BLAS work — not
    Python dispatch — dominates the timed paths.  Invariance digests run
    on the serial shard backend (transport cannot change the bytes;
    the test suite separately pins serial/process equality), timing runs
    on the backends named in the record.
    """
    from repro.data.synthetic import (
        irregular_scalability_tensor,
        sparse_irregular_tensor,
    )
    from repro.decomposition.dpar2 import dpar2
    from repro.util.config import DecompositionConfig

    dense = irregular_scalability_tensor(
        max_rows, n_columns, n_slices, min_rows=max_rows // 20,
        random_state=seed,
    )
    sparse = sparse_irregular_tensor(
        max_rows, n_columns, n_slices, density=0.05,
        min_rows=max_rows // 20, random_state=seed,
    )

    def config(shards=None, backend="serial", dtype="float64"):
        return DecompositionConfig(
            rank=rank, max_iterations=sweeps, tolerance=0.0,
            random_state=seed, backend="serial", dtype=dtype,
            shards=shards, shard_backend=backend,
        )

    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cores = os.cpu_count() or 1
    record = {
        "schema_version": 1,
        "platform": platform.platform(),
        # Process-shard speedup is bounded by this; a 1-core runner can
        # only record overhead, which is why the speedup is ungated.
        "usable_cores": usable_cores,
        "max_rows": max_rows,
        "n_columns": n_columns,
        "n_slices": n_slices,
        "rank": rank,
        "sweeps": sweeps,
        "repeats": repeats,
        "shard_counts": list(shard_counts),
        "input_bytes": dense.nbytes,
        "combos": {},
    }

    # --- invariance digests: every data/dtype combo, all shard counts --- #
    for data_name, tensor in (("dense", dense), ("csr", sparse)):
        for dtype in ("float64", "float32"):
            combo: dict = {"factor_sha256": {}}
            for shards in shard_counts:
                result = dpar2(tensor, config(shards, "serial", dtype))
                combo["factor_sha256"][str(shards)] = factor_sha256(result)
            sharding = result.stats["sharding"]
            combo["imbalance"] = sharding["imbalance"]
            combo["cells"] = sharding["cells"]
            combo["allreduce_bytes_per_sweep"] = sharding[
                "allreduce_bytes_per_sweep"
            ]
            record["combos"][f"{data_name}_{dtype}"] = combo

    # --- overhead: shards=1 serial vs the unsharded one-cell run -------- #
    # Interleaved A/B pairs so slow machine drift (thermal, noisy
    # neighbours) hits both sides equally instead of biasing the ratio.
    unsharded_total = unsharded_iterate = float("inf")
    one_total = one_iterate = float("inf")
    for _ in range(repeats + 2):
        out = dpar2(dense, config())
        unsharded_total = min(unsharded_total, out.total_seconds)
        unsharded_iterate = min(unsharded_iterate, out.iterate_seconds)
        out = dpar2(dense, config(1, "serial"))
        one_total = min(one_total, out.total_seconds)
        one_iterate = min(one_iterate, out.iterate_seconds)
    record["unsharded_total_seconds"] = unsharded_total
    record["unsharded_iterate_seconds"] = unsharded_iterate
    record["shards1_serial_total_seconds"] = one_total
    record["shards1_serial_iterate_seconds"] = one_iterate
    record["shards1_overhead_ratio"] = one_total / unsharded_total

    # --- scaling: process backend across shard counts (ungated) -------- #
    scaling = {}
    for shards in shard_counts:
        total, iterate, result = _best_total(
            lambda: dpar2(dense, config(shards, "process")), repeats
        )
        sharding = result.stats["sharding"]
        scaling[str(shards)] = {
            "total_seconds": total,
            "iterate_seconds": iterate,
            "allreduce_bytes_per_sweep": sharding["allreduce_bytes_per_sweep"],
            "allreduce_bytes_per_sweep_per_shard": sharding[
                "allreduce_bytes_per_sweep_per_shard"
            ],
            "imbalance": sharding["imbalance"],
        }
    record["process_scaling"] = scaling
    base = scaling[str(shard_counts[0])]["iterate_seconds"]
    record["iterate_speedup_4_shards"] = (
        base / scaling["4"]["iterate_seconds"] if "4" in scaling else None
    )
    return record


_CALL_SITES = (
    "startup", "bind", "sweep_phase1", "sweep_phase2", "sweep_phase3", "finalize",
)
_REPLY_SITES = ("sweep_phase2", "finalize")
_INJECT_CALL_TIMEOUT = "2.0"  # seconds; turns injected hangs into fast respawns


def run_inject_bench(
    *,
    max_rows: int = 300,
    n_columns: int = 24,
    n_slices: int = 8,
    rank: int = 6,
    sweeps: int = 3,
    seed: int = 0,
) -> dict:
    """Run the fault-injection matrix; returns the ``fault_injection`` record.

    A small 2-shard process-backend fixture is solved once clean for a
    baseline digest, then once per fault case: {crash, hang} at every
    shard call site and a corrupted reply blob at representative reply
    sites, always on shard 1, first occurrence, first generation.  Every
    case must recover (respawn + replay) to the bitwise-identical
    factors.  ``REPRO_SHARD_CALL_TIMEOUT`` is pinned low for the run so
    hang detection fires in seconds rather than the production default.
    """
    from repro.data.synthetic import irregular_scalability_tensor
    from repro.decomposition.dpar2 import dpar2
    from repro.util import faults
    from repro.util.config import DecompositionConfig

    tensor = irregular_scalability_tensor(
        max_rows, n_columns, n_slices, min_rows=max_rows // 10,
        random_state=seed,
    )
    config = DecompositionConfig(
        rank=rank, max_iterations=sweeps, tolerance=0.0, random_state=seed,
        shards=2, shard_backend="process",
    )

    cases = [
        (f"shard.call.{site}", kind)
        for site in _CALL_SITES
        for kind in ("crash", "hang")
    ]
    cases += [(f"shard.reply.{site}", "corrupt") for site in _REPLY_SITES]

    record: dict = {
        "fixture": {
            "max_rows": max_rows, "n_columns": n_columns,
            "n_slices": n_slices, "rank": rank, "sweeps": sweeps,
            "shards": 2, "call_timeout": float(_INJECT_CALL_TIMEOUT),
        },
        "cases": {},
    }
    previous_timeout = os.environ.get("REPRO_SHARD_CALL_TIMEOUT")
    os.environ["REPRO_SHARD_CALL_TIMEOUT"] = _INJECT_CALL_TIMEOUT
    try:
        baseline = factor_sha256(dpar2(tensor, config))
        record["baseline_sha256"] = baseline
        for site, kind in cases:
            plan = faults.FaultPlan(
                specs=(faults.FaultSpec(site=site, kind=kind, shard=1),)
            )
            started = time.perf_counter()
            with faults.injected(plan):
                result = dpar2(tensor, config)
            sharding = result.stats["sharding"]
            record["cases"][f"{site}:{kind}"] = {
                "sha_matches_baseline": factor_sha256(result) == baseline,
                "worker_restarts": sharding["worker_restarts"],
                "seconds": time.perf_counter() - started,
            }
    finally:
        if previous_timeout is None:
            os.environ.pop("REPRO_SHARD_CALL_TIMEOUT", None)
        else:
            os.environ["REPRO_SHARD_CALL_TIMEOUT"] = previous_timeout
    return record


def check_inject_record(record: dict) -> list[str]:
    """Gates for the fault matrix; returns failure messages."""
    failures = []
    for case_name, case in record["cases"].items():
        if not case["sha_matches_baseline"]:
            failures.append(
                f"{case_name}: recovered factors differ from the no-fault "
                f"baseline — respawn-and-replay is not bitwise"
            )
        if case["worker_restarts"] < 1:
            failures.append(
                f"{case_name}: no worker restart recorded — the fault was "
                f"not detected (or not injected)"
            )
    return failures


def allreduce_bound_bytes(rank: int, shards: int, cells: int) -> float:
    """Explicit per-sweep traffic ceiling — no K, no row counts.

    Per sweep the coordinator broadcasts a handful of ``R x Rc`` / ``R x R``
    matrices to each shard and receives a few per cell; with ``Rc = R + 5``
    (stage-2 keeps the target rank, so ``Rc = R`` here, but the bound
    allows the oversampled worst case) a slack factor of 4 covers pickling
    framing and the scalar criterion partials.
    """
    rc = rank + 5
    per_shard_send = 8 * (3 * rc * rank + 4 * rank * rank)
    per_cell_recv = 8 * (2 * rank * rank + rc * rank)
    return 4.0 * (shards * per_shard_send + cells * per_cell_recv)


def check_record(record: dict, max_overhead: float) -> list[str]:
    """Machine-independent gates; returns failure messages."""
    failures = []
    for combo_name, combo in record["combos"].items():
        digests = set(combo["factor_sha256"].values())
        if len(digests) != 1:
            failures.append(
                f"{combo_name}: factors differ across shard counts "
                f"{sorted(combo['factor_sha256'])} — the shard-count "
                f"invariance contract is broken"
            )
        bound = allreduce_bound_bytes(
            record["rank"], max(record["shard_counts"]), combo["cells"]
        )
        if combo["allreduce_bytes_per_sweep"] > bound:
            failures.append(
                f"{combo_name}: allreduce {combo['allreduce_bytes_per_sweep']:.0f} "
                f"B/sweep exceeds the O(R·Rc) bound {bound:.0f} — sweep "
                f"traffic must not scale with the data"
            )
    ratio = record["shards1_overhead_ratio"]
    if ratio > max_overhead:
        failures.append(
            f"shards=1 serial total {ratio:.3f}x the unsharded solver "
            f"(allowed {max_overhead:.2f}x) — coordinator bookkeeping "
            f"regressed"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded DPar2: invariance gate + allreduce accounting"
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the measurement record to this file")
    parser.add_argument("--check", action="store_true",
                        help="enforce the machine-independent gates")
    parser.add_argument("--max-overhead", type=float, default=1.10,
                        help="allowed shards=1 total-seconds ratio over the "
                        "unsharded solver (default: 1.10)")
    parser.add_argument("--inject", action="store_true",
                        help="also run the fault-injection matrix (crash/hang "
                        "at every shard call site + corrupt replies) and "
                        "record bitwise recovery")
    parser.add_argument("--inject-only", action="store_true",
                        help="run only the fault-injection matrix (implies "
                        "--inject; skips the timing/invariance bench)")
    parser.add_argument("--max-rows", type=int, default=4000)
    parser.add_argument("--columns", type=int, default=128)
    parser.add_argument("--slices", type=int, default=64)
    parser.add_argument("--rank", type=int, default=24)
    parser.add_argument("--sweeps", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if args.inject_only:
        record = {"schema_version": 1, "platform": platform.platform()}
    else:
        record = run_shard_bench(
            max_rows=args.max_rows, n_columns=args.columns,
            n_slices=args.slices, rank=args.rank, sweeps=args.sweeps,
            repeats=args.repeats,
        )
        print(f"fixture : K={record['n_slices']} skewed slices "
              f"(<= {record['max_rows']} rows), J={record['n_columns']}, "
              f"rank {record['rank']}, {record['sweeps']} sweeps, "
              f"{record['usable_cores']} usable cores")
        for combo_name, combo in record["combos"].items():
            invariant = len(set(combo["factor_sha256"].values())) == 1
            print(f"{combo_name:>15}: shards {record['shard_counts']} "
                  f"{'invariant' if invariant else 'DIVERGED'}, "
                  f"allreduce {combo['allreduce_bytes_per_sweep']:.0f} B/sweep, "
                  f"imbalance {combo['imbalance']:.2f}")
        print(f"overhead: shards=1 serial "
              f"{record['shards1_overhead_ratio']:.3f}x unsharded "
              f"({record['shards1_serial_total_seconds']:.3f}s vs "
              f"{record['unsharded_total_seconds']:.3f}s)")
        for shards, row in record["process_scaling"].items():
            print(f"process x{shards}: iterate {row['iterate_seconds']:.4f}s "
                  f"total {row['total_seconds']:.3f}s "
                  f"({row['allreduce_bytes_per_sweep_per_shard']:.0f} "
                  f"B/sweep/shard)")
        if record["iterate_speedup_4_shards"] is not None:
            print(f"speedup : 4-shard iterate "
                  f"{record['iterate_speedup_4_shards']:.2f}x (ungated)")

    if args.inject or args.inject_only:
        inject = run_inject_bench()
        record["fault_injection"] = inject
        for case_name, case in inject["cases"].items():
            verdict = "recovered" if case["sha_matches_baseline"] else "DIVERGED"
            print(f"inject {case_name:>35}: {verdict} bitwise, "
                  f"{case['worker_restarts']} restart(s), "
                  f"{case['seconds']:.2f}s")
    print(f"bench wall-clock {time.perf_counter() - start:.1f}s")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if "combos" in record:
            failures += check_record(record, args.max_overhead)
        if "fault_injection" in record:
            failures += check_inject_record(record["fault_injection"])
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        if failures:
            return 1
        gates = []
        if "combos" in record:
            gates.append(f"invariance + allreduce bound + "
                         f"<= {args.max_overhead:.2f}x overhead")
        if "fault_injection" in record:
            gates.append("bitwise fault recovery")
        print(f"shard gate ok ({', '.join(gates)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
