"""Layered end-to-end benchmark of the DPar2 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload many-slices --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run builds its inputs from ``--seed``, measures for about ``--seconds``,
checks every output and prints a report, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
decompositions again split into their layers and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in its own
process.  ``perfbench/catalog.json`` holds the fixtures and what each
metric means; results and span files go to ``perfbench/out/``.
"""

import os

# Pinned before numpy loads; the server, writer and shard workers inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args, spec, catalog) -> dict:
    """One workload in this process; returns the run record."""
    sys.path.insert(0, str(SRC))
    from common import (Sandbox, Tally, Tracer, environment, live_children, rss_mb,
                        stop_resource_tracker)

    import decomp
    import serving

    runners = {
        "table2": decomp.run_table2,
        "many-slices": decomp.run_scalability,
        "tall-sharded": decomp.run_scalability,
        "serve-mixed": serving.run_serve,
    }
    OUT.mkdir(exist_ok=True)
    sandbox = Sandbox(OUT, f"{args.workload}-{args.seed}")
    ctx = SimpleNamespace(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        common=catalog["common"], params=catalog["workloads"][args.workload],
        tally=Tally(), tracer=Tracer(), sandbox=sandbox, details={},
    )
    started = time.perf_counter()
    try:
        metrics = runners[args.workload](ctx)
        for problem in sandbox.cleanup() + sandbox.leftovers():
            ctx.tally.check(problem)
        stop_resource_tracker()
        for pid in live_children():
            ctx.tally.check(f"child process {pid} still running")
    finally:
        sandbox.cleanup()
        sandbox.remove()
    metrics["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF) + rss_mb(resource.RUSAGE_CHILDREN)
    tally = ctx.tally
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "environment": environment(), "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1), "failures": tally.failures,
        "metrics": metrics, "details": ctx.details,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        ctx.tracer.dump(OUT / f"{stem}-spans.json")
    return record


def report(record, spec) -> dict:
    """Print the human-readable report; return the driver-facing result."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    selected = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = record["metrics"]
    env = record["environment"]
    print(f"perfbench {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"seconds={record['seconds']:g}  wall={record['wall_s']:.1f}s")
    print(f"  nproc={env['nproc']}  python={env['python']}  numpy={env['numpy']}  "
          f"blas={env['blas']}  BLAS threads pinned to 1")
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} ratio "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
    if not record["trace"] and missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in selected},
    }


def run_all(args, spec) -> dict:
    """Every workload, each in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        lines = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                               text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'repro'}) is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        catalog = json.loads((HERE / "catalog.json").read_text())
        result = report(run_one(args, spec, catalog), spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
