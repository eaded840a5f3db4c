"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``datasets``
    List the bundled synthetic datasets (Table II analogues).
``decompose``
    Run a solver on a named dataset and print timing/fitness.
``publish``
    Decompose a dataset and publish the model to a registry directory.
``serve``
    Serve a model registry over HTTP (similar/reconstruct/fold-in queries).
``query``
    Issue one query against a running ``repro serve`` instance.
``experiment``
    Run one of the paper's table/figure harnesses by id.
``trace``
    Inspect a span trace written via ``--trace`` / ``REPRO_TRACE``.
``bench-info``
    Print the experiment-to-command index (``EXPERIMENT_MODULES``).

``decompose``, ``publish``, and ``serve`` accept ``--trace PATH`` to
record hierarchical spans for the whole run (see docs/observability.md);
``repro trace summarize PATH`` renders the aggregated tree afterwards.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.data.registry import DATASETS, load_dataset
from repro.decomposition.registry import DISPLAY_NAMES, SOLVERS, get_solver
from repro.linalg.array_module import COMPUTE_BACKEND_NAMES
from repro.parallel.backends import BACKEND_NAMES
from repro.parallel.sharding import SHARD_RUNNERS
from repro.sparse.csr import CsrMatrix
from repro.tensor.irregular import IrregularTensor
from repro.tensor.mmap_store import MmapSliceStore
from repro.util.config import DecompositionConfig
from repro.util.timing import format_seconds

EXPERIMENT_MODULES = {
    "fig1": "repro.experiments.fig1_tradeoff",
    "fig8": "repro.experiments.fig8_slice_lengths",
    "fig9a": "repro.experiments.fig9_preprocessing",
    "fig9b": "repro.experiments.fig9_iteration",
    "fig10": "repro.experiments.fig10_compression",
    "fig11": "repro.experiments.fig11_scalability",
    "fig12": "repro.experiments.fig12_correlation",
    "table2": "repro.experiments.table2_datasets",
    "table3": "repro.experiments.table3_similar_stocks",
    "ablations": "repro.experiments.ablations",
    "all": "repro.experiments.run_all",
}


_EPILOG = """\
serving quickstart:
  repro publish traffic --registry ./registry --rank 8      # train + publish v1
  repro serve --registry ./registry --port 8080 &           # start the service
  repro query similar --index 0 -k 5                        # nearest slices
  repro query reconstruct --slice 0 --rows 0 1              # model values
  repro query health                                        # version + batching stats

The same commands work as `python -m repro ...` when the console script is
not on PATH.  See docs/serving.md for the full HTTP API and tuning knobs.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DPar2 reproduction: PARAFAC2 decomposition for "
        "irregular dense tensors",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the bundled synthetic datasets")

    decompose = sub.add_parser(
        "decompose", help="decompose a named dataset and report fitness/time"
    )
    decompose.add_argument("dataset", choices=sorted(DATASETS))
    decompose.add_argument(
        "--method", default="dpar2", choices=sorted(SOLVERS),
        help="solver to run (default: dpar2)",
    )
    decompose.add_argument("--rank", type=int, default=10)
    decompose.add_argument("--max-iterations", type=int, default=32)
    decompose.add_argument("--threads", type=int, default=1)
    decompose.add_argument(
        "--backend", default="thread", choices=list(BACKEND_NAMES),
        help="execution backend for slice-parallel stages (default: thread); "
        "worker processes come from --shards",
    )
    decompose.add_argument(
        "--dtype", default="float64", choices=["float64", "float32"],
        help="working precision of the pipeline (float32 halves memory "
        "traffic and speeds up compression; default: float64)",
    )
    decompose.add_argument(
        "--compute-backend", default="numpy",
        choices=list(COMPUTE_BACKEND_NAMES),
        help="array library for the DPar2 kernels: numpy (default), torch "
        "(CPU), torch-cuda, or cupy; device backends keep the batched "
        "compression and sweeps resident on the GPU",
    )
    decompose.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run DPar2 through the shard coordinator with N workers: "
        "stage-1 compression and the sweep contractions run shard-local "
        "and only R x R Gram statistics cross shard boundaries each sweep; "
        "final factors are bitwise-identical for any N (dpar2 only)",
    )
    decompose.add_argument(
        "--shard-backend", default="process", choices=list(SHARD_RUNNERS),
        help="transport for shard workers (default: process; serial runs "
        "every shard in process, for debugging and overhead measurement)",
    )
    decompose.add_argument(
        "--shard-cells", type=int, default=8, metavar="C",
        help="fixed reduction-cell count the slices are grouped into "
        "(clamped to the slice count); cells are the unit of floating-"
        "point accumulation, which is what makes the factors invariant "
        "to --shards (default: 8)",
    )
    decompose.add_argument(
        "--out-of-core", action="store_true",
        help="stage the dataset into a temporary on-disk slice store and "
        "decompose it memory-mapped (demonstrates the streaming path)",
    )
    decompose.add_argument(
        "--density-threshold", type=float, default=None, metavar="FRACTION",
        help="convert dense slices whose nonzero fraction is at or below "
        "this threshold to CSR before decomposing — DPar2 then sketches "
        "them through the sparse SpMM fast path on any --compute-backend; "
        "CSR-native datasets take that path regardless",
    )
    decompose.add_argument("--seed", type=int, default=0)
    decompose.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record hierarchical trace spans for the run to this JSONL file",
    )

    publish = sub.add_parser(
        "publish",
        help="decompose a dataset and publish the model to a registry",
    )
    publish.add_argument("dataset", choices=sorted(DATASETS))
    publish.add_argument(
        "--registry", required=True, metavar="DIR",
        help="FactorStore registry directory (created if missing)",
    )
    publish.add_argument("--rank", type=int, default=10)
    publish.add_argument("--max-iterations", type=int, default=32)
    publish.add_argument("--threads", type=int, default=1)
    publish.add_argument(
        "--backend", default="thread", choices=list(BACKEND_NAMES),
    )
    publish.add_argument(
        "--dtype", default="float64", choices=["float64", "float32"],
    )
    publish.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="fit through the shard coordinator with N workers "
        "(see decompose --shards)",
    )
    publish.add_argument(
        "--shard-backend", default="process", choices=list(SHARD_RUNNERS),
    )
    publish.add_argument("--seed", type=int, default=0)
    publish.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record hierarchical trace spans for the run to this JSONL file",
    )

    serve = sub.add_parser(
        "serve", help="serve a model registry over HTTP (asyncio, stdlib-only)"
    )
    serve.add_argument(
        "--registry", required=True, metavar="DIR",
        help="FactorStore registry directory to serve",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batching window cap: under queue pressure, concurrent "
        "similar/fold-in/anomaly queries arriving within it are answered "
        "by one batched kernel call; the window adapts down to ~0 when "
        "the queue is empty (default: 2)",
    )
    serve.add_argument(
        "--fixed-batch-window", action="store_true",
        help="disable adaptive batching: every batch waits the full "
        "--batch-window-ms regardless of load (higher latency when idle; "
        "mostly useful for debugging coalescing)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="flush a micro-batch immediately at this many pending requests",
    )
    serve.add_argument(
        "--lru-size", type=int, default=4,
        help="per-version derived-state (QueryEngine) cache size (default: 4)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="SECONDS",
        help="how often to check the registry for newly published versions "
        "and hot-swap to them; 0 disables polling (default: 2)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request dispatch deadline; an expired request answers "
        "503 with Retry-After and counts under /healthz faults.timeouts; "
        "0 disables (default: 30)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=8 << 20, metavar="BYTES",
        help="reject request bodies larger than this with 413, judged from "
        "Content-Length without buffering the body; 0 disables "
        "(default: 8 MiB)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="shed similar/fold-in requests with 503 + Retry-After once N "
        "are already queued in a micro-batcher; 0 never sheds (default: 0)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, stop accepting and wait up to this long "
        "for in-flight requests before exiting (default: 10)",
    )
    serve.add_argument(
        "--compute-backend", default="numpy",
        choices=list(COMPUTE_BACKEND_NAMES),
        help="array library for the query kernels: numpy (default, the "
        "batch-invariant reference), torch, torch-cuda, or cupy; device "
        "backends upload each served model's factors once per engine and "
        "answer similarity/reconstruction/fold-in/anomaly queries "
        "device-resident (/healthz reports the backend and transfer "
        "counters)",
    )
    serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record request/batch/kernel trace spans to this JSONL file",
    )

    query = sub.add_parser(
        "query", help="issue one query against a running `repro serve`"
    )
    query.add_argument(
        "what",
        choices=["health", "model", "versions", "similar", "reconstruct",
                 "fold-in", "anomaly", "reload"],
    )
    query.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the serving process (default: http://127.0.0.1:8080)",
    )
    query.add_argument("--mode", default="slice", choices=["slice", "feature"],
                       help="similarity mode (similar queries)")
    query.add_argument("--index", type=int, help="query entity (similar)")
    query.add_argument("-k", type=int, default=10, help="neighbours to return")
    query.add_argument("--slice", type=int, dest="slice_index",
                       help="slice index (reconstruct)")
    query.add_argument("--rows", type=int, nargs="*",
                       help="row subset (reconstruct)")
    query.add_argument("--npy", metavar="FILE",
                       help="2-D .npy payload (fold-in / anomaly)")
    query.add_argument("--seed", type=int, default=0,
                       help="sketch seed (fold-in / anomaly)")
    query.add_argument("--model-version", type=int, default=None,
                       help="pin the query to a published version")

    experiment = sub.add_parser(
        "experiment", help="run one of the paper's table/figure harnesses"
    )
    experiment.add_argument("which", choices=sorted(EXPERIMENT_MODULES))

    trace_cmd = sub.add_parser(
        "trace", help="inspect a span trace written via --trace / REPRO_TRACE"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="render a trace file as an aggregated span tree"
    )
    summarize.add_argument("file", help="JSONL trace file to summarize")

    sub.add_parser(
        "bench-info", help="show which command regenerates each table/figure"
    )
    return parser


def cmd_datasets() -> int:
    header = f"{'name':10s} {'summary':26s} {'paper (maxIk,J,K)':>20s}"
    print(header)
    print("-" * len(header))
    for name, spec in DATASETS.items():
        paper = "{}x{}x{}".format(*spec.paper_shape)
        print(f"{name:10s} {spec.summary:26s} {paper:>20s}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.out_of_core and args.compute_backend != "numpy":
        print(
            f"error: --out-of-core cannot be combined with --compute-backend "
            f"{args.compute_backend}: streaming slices from disk and keeping "
            "them device-resident are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.compute_backend != "numpy" and args.method != "dpar2":
        # Only the DPar2 pipeline dispatches through the xp layer; running a
        # baseline solver on CPU while the header claims a device would make
        # every timing comparison a lie.
        print(
            f"error: --compute-backend {args.compute_backend} is only "
            f"supported by --method dpar2; {args.method} runs on numpy",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.method != "dpar2":
        print(
            f"error: --shards is only supported by --method dpar2; "
            f"{args.method} has no shard coordinator",
            file=sys.stderr,
        )
        return 2
    tensor = load_dataset(args.dataset, random_state=args.seed)
    if args.density_threshold is not None:
        if not 0.0 <= args.density_threshold <= 1.0:
            print(
                f"error: --density-threshold must be in [0, 1], got "
                f"{args.density_threshold}",
                file=sys.stderr,
            )
            return 2
        tensor = tensor.sparsify(args.density_threshold)
    if tensor.has_sparse_slices:
        if args.method not in ("dpar2", "spartan"):
            print(
                f"error: --method {args.method} does not support sparse "
                "slices; use dpar2 or spartan (or drop --density-threshold)",
                file=sys.stderr,
            )
            return 2
        sparse_count = sum(
            1 for Xk in tensor.slices if isinstance(Xk, CsrMatrix)
        )
        print(
            f"sparse  : {sparse_count}/{tensor.n_slices} slices in CSR form "
            f"({tensor.n_entries} stored values, {tensor.nbytes} bytes)"
        )
    try:
        config = DecompositionConfig(
            rank=args.rank,
            max_iterations=args.max_iterations,
            n_threads=args.threads,
            backend=args.backend,
            random_state=args.seed,
            dtype=args.dtype,
            compute_backend=args.compute_backend,
            shards=args.shards,
            shard_backend=args.shard_backend,
            shard_cells=args.shard_cells,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    solver = get_solver(args.method)
    print(f"dataset : {args.dataset} -> {tensor}")
    sharded = (
        f", {config.shards} shards via {config.shard_backend}"
        if config.shards is not None
        else ""
    )
    print(f"solver  : {DISPLAY_NAMES[args.method]} (rank {config.rank}, "
          f"backend {config.backend} x{config.n_threads}, {config.dtype}, "
          f"compute {config.compute_backend}{sharded})")
    if not args.out_of_core:
        return _run_decompose(solver, tensor, config)
    # The store must outlive the run: slices are read lazily during stage 1.
    # Staging in the target dtype means the decomposition streams the store
    # without a conversion copy.
    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as staging:
        store = MmapSliceStore.create(
            staging, tensor.slices, dtype=config.numpy_dtype
        )
        print(f"staging : {store}")
        return _run_decompose(solver, IrregularTensor.from_store(store), config)


def _run_decompose(solver, tensor, config: DecompositionConfig) -> int:
    from repro.linalg.array_module import BackendUnavailableError

    try:
        result = solver(tensor, config)
    except BackendUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fitness : {result.fitness(tensor):.4f}")
    print(f"time    : preprocess {format_seconds(result.preprocess_seconds)}"
          f" + iterate {format_seconds(result.iterate_seconds)}"
          f" ({result.n_iterations} sweeps)")
    ratio = tensor.nbytes / max(result.preprocessed_bytes, 1)
    print(f"memory  : preprocessed data {ratio:.1f}x smaller than input")
    sharding = result.stats.get("sharding")
    if sharding:
        print(
            f"shards  : {sharding['shards']} over {sharding['cells']} cells "
            f"(imbalance {sharding['imbalance']:.2f}), allreduce "
            f"{sharding['allreduce_bytes_per_sweep']:.0f} B/sweep"
        )
    return 0


def cmd_publish(args: argparse.Namespace) -> int:
    from repro.decomposition.dpar2 import dpar2
    from repro.serve.store import FactorStore

    try:
        config = DecompositionConfig(
            rank=args.rank,
            max_iterations=args.max_iterations,
            n_threads=args.threads,
            backend=args.backend,
            random_state=args.seed,
            dtype=args.dtype,
            shards=args.shards,
            shard_backend=args.shard_backend,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tensor = load_dataset(args.dataset, random_state=args.seed)
    print(f"dataset : {args.dataset} -> {tensor}")
    result = dpar2(tensor, config)
    print(f"fitness : {result.fitness(tensor):.4f} "
          f"({result.n_iterations} sweeps, "
          f"{format_seconds(result.total_seconds)})")
    store = FactorStore(args.registry)
    extra = {"dataset": args.dataset}
    sharding = result.stats.get("sharding") if isinstance(result.stats, dict) else None
    if isinstance(sharding, dict):
        # Surface fit-time fault recovery in the registry meta so /healthz
        # can report it for the serving version.
        extra["worker_restarts"] = int(sharding.get("worker_restarts", 0))
    version = store.publish(result, config=config, extra=extra)
    print(f"registry: {store}")
    print(f"published version {version}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.linalg.array_module import BackendUnavailableError, get_xp
    from repro.serve.service import ModelHost, ServeApp
    from repro.serve.store import FactorStore

    try:
        # Resolve up front: a missing accelerator library should fail here
        # with the install hint, not on the first model load.
        get_xp(args.compute_backend)
    except BackendUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = FactorStore(args.registry)
    if store.latest_version() is None:
        print(
            f"error: registry {args.registry} has no published versions; "
            "run `repro publish <dataset> --registry ...` first",
            file=sys.stderr,
        )
        return 2
    host = ModelHost(
        store,
        lru_size=args.lru_size,
        engine_kwargs={"compute_backend": args.compute_backend},
    )
    app = ServeApp(
        host,
        batch_window=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        poll_interval=args.poll_interval,
        adaptive_batching=not args.fixed_batch_window,
        request_timeout=args.request_timeout if args.request_timeout > 0 else None,
        max_body_bytes=args.max_body_bytes if args.max_body_bytes > 0 else None,
        max_queue=args.max_queue if args.max_queue > 0 else None,
        drain_timeout=args.drain_timeout,
    )
    backend_note = (
        "" if args.compute_backend == "numpy"
        else f" ({args.compute_backend} engine)"
    )
    print(f"serving {store} on http://{args.host}:{args.port}{backend_note}")
    try:
        # SIGTERM/SIGINT trigger a graceful drain inside app.run(): the
        # listener closes, in-flight requests are answered, then run()
        # returns and we exit 0.
        asyncio.run(app.run(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    from repro.serve import wire

    def _request(method: str, path: str, body: "dict | None" = None):
        data = None if body is None else wire.encode(body)
        req = urllib.request.Request(
            args.url.rstrip("/") + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(req, timeout=30) as response:
            return wire.decode(response.read())

    pin = {} if args.model_version is None else {"version": args.model_version}
    try:
        if args.what == "health":
            payload = _request("GET", "/healthz")
        elif args.what == "model":
            suffix = "" if args.model_version is None else f"?version={args.model_version}"
            payload = _request("GET", f"/v1/model{suffix}")
        elif args.what == "versions":
            payload = _request("GET", "/v1/versions")
        elif args.what == "reload":
            payload = _request("POST", "/admin/reload", {})
        elif args.what == "similar":
            if args.index is None:
                print("error: similar needs --index", file=sys.stderr)
                return 2
            payload = _request("POST", "/v1/similar", {
                "mode": args.mode, "index": args.index, "k": args.k, **pin,
            })
        elif args.what == "reconstruct":
            if args.slice_index is None:
                print("error: reconstruct needs --slice", file=sys.stderr)
                return 2
            body = {"slice": args.slice_index, **pin}
            if args.rows:
                body["rows"] = args.rows
            payload = _request("POST", "/v1/reconstruct", body)
        else:  # fold-in / anomaly
            if not args.npy:
                print(f"error: {args.what} needs --npy FILE", file=sys.stderr)
                return 2
            import numpy as np

            matrix = np.load(args.npy, allow_pickle=False)
            endpoint = "/v1/fold-in" if args.what == "fold-in" else "/v1/anomaly"
            body = {"slice": matrix.tolist(), "seed": args.seed, **pin}
            if args.what == "fold-in":
                body["neighbors"] = args.k
            payload = _request("POST", endpoint, body)
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        print(f"error: HTTP {exc.code}: {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(payload, indent=2))
    return 0


def cmd_experiment(which: str) -> int:
    import importlib

    module = importlib.import_module(EXPERIMENT_MODULES[which])
    return module.main()


def cmd_bench_info() -> int:
    print("experiment -> regenerate with")
    print("-" * 52)
    for exp_id, module in EXPERIMENT_MODULES.items():
        print(f"{exp_id:8s} python -m {module}")
    print("\ntiming benches: pytest benchmarks/ --benchmark-only")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace

    try:
        print(trace.summarize(args.file))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import trace

        trace.start(trace_path)
    try:
        if args.command == "datasets":
            return cmd_datasets()
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "publish":
            return cmd_publish(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "query":
            return cmd_query(args)
        if args.command == "experiment":
            return cmd_experiment(args.which)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "bench-info":
            return cmd_bench_info()
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        if trace_path:
            from repro.obs import trace

            trace.stop()


if __name__ == "__main__":
    sys.exit(main())
