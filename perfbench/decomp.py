"""Decomposition workloads: table2, many-slices and tall-sharded.

Untraced runs time the one-call path a user takes.  Traced runs time the
same decomposition again split into its layers -- ``IrregularTensor``,
``compress_tensor``, ``dpar2(compressed=...)``, ``FactorStore.publish`` --
and require the split run's factors to be sha256-identical to the one-call
run's.  The sharded call is split only by the phase times it reports.
"""

from __future__ import annotations

import math
import resource
import time
from collections import defaultdict

import numpy as np

from common import (check_factors, cpu_seconds, derive_seed, factor_digest, median, rss_mb,
                    timed_setup)
from mix import make_requests, time_in_process
from repro.data.registry import PAPER_DATASET_NAMES, load_dataset
from repro.data.synthetic import irregular_scalability_tensor
from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.registry import get_solver
from repro.serve.queries import QueryEngine
from repro.serve.store import FactorStore
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig

#: Fewest timed decompositions a run reports a median over, however short
#: its window.  Beyond them, a run starts another decomposition (or table2
#: round) only if a median one still ends inside the window.
MIN_REPEATS = 3


def make_config(ctx, fixture: dict, random_state: int, **extra) -> DecompositionConfig:
    return DecompositionConfig(
        rank=ctx.common["rank"],
        n_threads=ctx.common["n_threads"],
        max_iterations=fixture["max_iterations"],
        tolerance=fixture["tolerance"],
        random_state=random_state,
        **extra,
    )


def one_call(raw, config, store):
    """Raw arrays -> ``IrregularTensor`` -> ``dpar2`` [-> publish], timed.

    ``cpu`` covers ingest and ``dpar2`` (with shard workers), not publish.
    """
    start, cpu_start = time.perf_counter(), cpu_seconds()
    tensor = IrregularTensor(raw)
    ingested, cpu_ingested = time.perf_counter(), cpu_seconds()
    result = dpar2(tensor, config)
    fitted, cpu_fitted = time.perf_counter(), cpu_seconds()
    if store is not None:
        store.publish(result, config=config)
    end = time.perf_counter()
    times = {"wall": end - start, "ingest": ingested - start, "dpar2": fitted - ingested,
             "publish": end - fitted, "cpu": cpu_fitted - cpu_start,
             "dpar2_cpu": cpu_fitted - cpu_ingested}
    return times, tensor, result


def piecewise(raw, config, store, tracer):
    """The same decomposition as :func:`one_call`, one span per layer."""
    with tracer.span("decompose") as root:
        with tracer.span("tensor.ingest"):
            tensor = IrregularTensor(raw)
        if config.shards is None:
            rank = min(config.rank, tensor.n_columns, min(tensor.row_counts))
            with tracer.span("dpar2.compress"):
                compressed = compress_tensor(
                    tensor, rank,
                    oversampling=config.oversampling,
                    power_iterations=config.power_iterations,
                    n_threads=config.n_threads,
                    random_state=config.random_state,
                    backend=config.backend,
                )
            with tracer.span("dpar2.iterate") as call:
                result = dpar2(tensor, config, compressed=compressed)
            tracer.split(call, [("dpar2.sweeps", result.iterate_seconds)], rest="dpar2.finalize")
        else:
            with tracer.span("sharded.dpar2") as call:
                result = dpar2(tensor, config)
            tracer.split(
                call,
                [("sharded.preprocess", result.preprocess_seconds),
                 ("sharded.iterate", result.iterate_seconds)],
                rest="sharded.finalize",
            )
        if store is not None:
            with tracer.span("store.publish"):
                store.publish(result, config=config)
    return root, tensor, result


def layer_seconds(tracer, root) -> dict:
    """Span name -> seconds for every descendant of ``root``."""
    out, frontier = {}, [root]
    while frontier:
        for child in tracer.children(frontier.pop()):
            out[child["name"]] = tracer.seconds(child)
            frontier.append(child)
    return out


def verify(ctx, tensor, result, label: str, *, sweeps=None) -> float:
    """Output checks on one decomposition; failures go to the tally."""
    fitness, problems = check_factors(
        result, tensor, floor=ctx.params["fitness_floor"],
        tol=ctx.common["orthonormality_tol"], label=label,
    )
    if sweeps is not None and result.n_iterations != sweeps:
        problems.append(f"{label}: {result.n_iterations} sweeps, expected {sweeps}")
    ctx.tally.check(problems)
    return fitness


def traced_pair(ctx, raw, config, store, label, layers, sweeps=None):
    """Traced run of one input: the one-call reference and the layer split.

    The two alternate which runs first, so that neither always meets the
    colder caches.  Appends per-layer seconds to ``layers``, checks the
    split run's factors against the reference digest, and returns the
    reference's result, fitness and times.
    """
    def reference_run():
        times, tensor, result = one_call(raw, config, store)
        return times, result, verify(ctx, tensor, result, label, sweeps=sweeps)

    def split_run():
        root, tensor, split = piecewise(raw, config, store, ctx.tracer)
        verify(ctx, tensor, split, f"{label} (split)", sweeps=sweeps)
        return root, split

    if len(layers["reference"]) % 2:
        root, split = split_run()
        reference, result, fitness = reference_run()
    else:
        reference, result, fitness = reference_run()
        root, split = split_run()
    problems = []
    if factor_digest(split) != factor_digest(result):
        problems.append(f"{label}: split-run factors differ from the one-call run")
    coverage = ctx.tracer.coverage(root)
    if coverage < 0.95:
        problems.append(f"{label}: layer spans cover {coverage:.3f} < 0.95 of the wall time")
    ctx.tally.check(problems)
    for name, seconds in layer_seconds(ctx.tracer, root).items():
        layers[name].append(seconds)
    layers["coverage"].append(coverage)
    layers["split"].append(ctx.tracer.seconds(root))
    layers["reference"].append(reference["wall"])
    layers["sweep_ms"].append(1e3 * median([h.seconds for h in split.history]))
    return result, fitness, reference


class Probe:
    """The query mix answered in-process on the models a workload fits.

    Gives the decomposition workloads their ``serve_cpu_ms``: ``run``
    is called after each decomposition until ``probe_requests`` samples
    are in, so the samples spread over the window instead of coming in
    one burst at its end.
    """

    def __init__(self, ctx, per_call: int) -> None:
        self._common = ctx.common
        self._per_call = per_call
        self._rng = np.random.default_rng(derive_seed(ctx.seed, 2))
        self._pools: dict[int, list] = {}
        self._latencies: list[float] = []

    def run(self, result, config) -> None:
        common = self._common
        if len(self._latencies) >= common["probe_requests"]:
            return
        n_columns = result.V.shape[0]
        if n_columns not in self._pools:
            self._pools[n_columns] = [self._rng.random((common["fold_in_rows"], n_columns))
                                      for _ in range(common["unseen_pool"])]
        requests = make_requests(self._rng, self._per_call,
                                 row_counts=[q.shape[0] for q in result.Q],
                                 pool=self._pools[n_columns], common=common, encode=False)
        engine = QueryEngine(result, config=config)
        samples = time_in_process(engine, requests)
        self._latencies += [seconds for _, seconds in samples]

    def metrics(self) -> dict:
        return {"serve_cpu_ms": 1e3 * sum(self._latencies) / len(self._latencies)}


def run_scalability(ctx) -> dict:
    """many-slices and tall-sharded: one large tensor, decomposed repeatedly."""
    fixture = ctx.params["fixture"]
    sharded = "shards" in fixture

    def build():
        tensor = irregular_scalability_tensor(
            fixture["max_rows"], fixture["n_columns"], fixture["n_slices"],
            min_rows=fixture["min_rows"], random_state=derive_seed(ctx.seed, 0),
        )
        return list(tensor.slices)

    setup_s, raw = timed_setup(ctx, build)
    extra = ({"shards": fixture["shards"], "shard_backend": fixture["shard_backend"]}
             if sharded else {})
    config = make_config(ctx, fixture, derive_seed(ctx.seed, 1), **extra)
    store = FactorStore(ctx.sandbox.scratch("registry"))
    sweeps = fixture["max_iterations"]

    cpu, layers, stats = [], defaultdict(list), defaultdict(list)
    probe = Probe(ctx, math.ceil(ctx.common["probe_requests"] / MIN_REPEATS))
    reps, spent, deadline = 0, [], time.perf_counter() + ctx.seconds
    while reps < MIN_REPEATS or time.perf_counter() + median(spent) <= deadline:
        started = time.perf_counter()
        label = f"{ctx.workload} #{reps}"
        if ctx.trace:
            result, fitness, _ = traced_pair(ctx, raw, config, store, label, layers, sweeps)
        else:
            times, tensor, result = one_call(raw, config, store)
            fitness = verify(ctx, tensor, result, label, sweeps=sweeps)
            cpu.append(times["cpu"])
            ctx.details.setdefault("decompositions", []).append(times)
            del tensor
            probe.run(result, config)
        if sharded:
            sharding = result.stats["sharding"]
            stats["allreduce"].append(sharding["allreduce_bytes_per_sweep"] / 1024.0)
            stats["restarts"].append(sharding["worker_restarts"])
        del result
        reps += 1
        spent.append(time.perf_counter() - started)
    if sum(stats["restarts"]):
        ctx.tally.check(f"{ctx.workload}: {sum(stats['restarts'])} shard worker restarts")

    metrics = {"setup_s": setup_s}
    if not ctx.trace:
        done = ctx.details["decompositions"]
        metrics.update({"decompose_s": median(cpu), "fitness": fitness,
                        "decompose_wall_s": median([d["ingest"] + d["dpar2"] for d in done]),
                        "store.publish_s": median([d["publish"] for d in done]),
                        **probe.metrics()})
        return metrics
    metrics.update({
        "tensor.ingest_s": median(layers["tensor.ingest"]),
        "store.publish_s": median(layers["store.publish"]),
        "trace.coverage": min(layers["coverage"]),
        "trace.overhead_s": median(layers["split"]) - median(layers["reference"]),
    })
    if sharded:
        metrics.update({
            "sharded.preprocess_s": median(layers["sharded.preprocess"]),
            "sharded.iterate_s": median(layers["sharded.iterate"]),
            "sharded.finalize_s": median(layers["sharded.finalize"]),
            "sharded.sweep_ms": median(layers["sweep_ms"]),
            "sharded.allreduce_kb_per_sweep": median(stats["allreduce"]),
            "sharded.worker_restarts": sum(stats["restarts"]),
            "sharded.worker_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
        })
    else:
        metrics.update({
            "dpar2.compress_s": median(layers["dpar2.compress"]),
            "dpar2.iterate_s": median(layers["dpar2.iterate"]),
            "dpar2.sweep_ms": median(layers["sweep_ms"]),
            "dpar2.sweeps": sweeps,
            "dpar2.finalize_s": median(layers["dpar2.finalize"]),
        })
    return metrics


def run_table2(ctx) -> dict:
    """The eight Table II stand-ins through DPar2 and the three competitors."""
    fixture = ctx.params["fixture"]
    names = PAPER_DATASET_NAMES

    def build():
        return {
            name: list(load_dataset(name, random_state=derive_seed(ctx.seed, 0, i)).slices)
            for i, name in enumerate(names)
        }

    setup_s, raw = timed_setup(ctx, build)
    configs = {name: make_config(ctx, fixture, derive_seed(ctx.seed, 1, i))
               for i, name in enumerate(names)}
    solvers = {name: get_solver(name) for name in fixture["competitors"]}
    tensors = {} if ctx.trace else {name: IrregularTensor(raw[name]) for name in names}

    times = defaultdict(lambda: defaultdict(list))   # dataset -> solver -> seconds
    fits = defaultdict(dict)                          # dataset -> solver -> fitness
    layers = defaultdict(lambda: defaultdict(list))   # dataset -> layer -> seconds
    sweeps = {}
    probe = Probe(ctx, math.ceil(ctx.common["probe_requests"] / len(names)))
    spent, deadline = [], time.perf_counter() + ctx.seconds
    while not spent or time.perf_counter() + median(spent) <= deadline:
        started = time.perf_counter()
        for name in names:
            config = configs[name]
            label = f"table2 {name}"
            for _ in range(fixture["dpar2_repeats"]):
                if ctx.trace:
                    result, fitness, reference = traced_pair(
                        ctx, raw[name], config, None, label, layers[name])
                    seconds = reference["dpar2_cpu"]
                else:
                    start = cpu_seconds()
                    result = dpar2(tensors[name], config)
                    seconds = cpu_seconds() - start
                    fitness = verify(ctx, tensors[name], result, f"{label} dpar2")
                times[name]["dpar2"].append(seconds)
                fits[name]["dpar2"] = fitness
                sweeps[name] = result.n_iterations
            if not ctx.trace:
                probe.run(result, config)
            tensor = IrregularTensor(raw[name]) if ctx.trace else tensors[name]
            for solver_name, solver in solvers.items():
                start = cpu_seconds()
                result = solver(tensor, config)
                times[name][solver_name].append(cpu_seconds() - start)
                fits[name][solver_name] = verify(ctx, tensor, result, f"{label} {solver_name}")
        spent.append(time.perf_counter() - started)

    dpar2_s = {name: median(times[name]["dpar2"]) for name in names}
    best_s = {name: min(median(times[name][c]) for c in solvers) for name in names}
    metrics = {
        "setup_s": setup_s,
        "speedup_vs_best": math.exp(
            sum(math.log(best_s[n] / dpar2_s[n]) for n in names) / len(names)),
        "fitness_gap": max(
            max(fits[n][c] for c in solvers) - fits[n]["dpar2"] for n in names),
        "dpar2.sweeps": sum(sweeps.values()),
        **{f"competitors.{c}_s": sum(median(times[n][c]) for n in names) for c in solvers},
    }
    if ctx.trace:
        def total(layer):
            return sum(median(layers[name][layer]) for name in names)

        metrics.update({
            "tensor.ingest_s": total("tensor.ingest"),
            "dpar2.compress_s": total("dpar2.compress"),
            "dpar2.iterate_s": total("dpar2.iterate"),
            "dpar2.finalize_s": total("dpar2.finalize"),
            "dpar2.sweep_ms": median([ms for name in names for ms in layers[name]["sweep_ms"]]),
            "trace.coverage": min(min(layers[name]["coverage"]) for name in names),
            "trace.overhead_s": total("split") - total("reference"),
        })
        return metrics

    metrics.update({
        "decompose_s": sum(dpar2_s.values()),
        "fitness": sum(fits[name]["dpar2"] for name in names) / len(names),
    })
    metrics.update(probe.metrics())
    return metrics
