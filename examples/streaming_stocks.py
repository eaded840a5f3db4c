"""Streaming PARAFAC2 — the paper's future-work extension in action.

Simulates a market data feed: stocks arrive one at a time (new listings),
each is compressed once on arrival, and the PARAFAC2 model is kept fresh
without ever revisiting raw history.  Compares the streaming model's
fitness against a from-scratch batch refit at several checkpoints, and
publishes each checkpoint to a versioned model registry — the snapshots a
`repro serve` process would hot-swap between (no pickles: the registry is
schema-versioned manifests plus `.npy` segments).

Run with:  python examples/streaming_stocks.py
"""

import tempfile

from repro import DecompositionConfig, dpar2
from repro.data.stock import generate_market, standardize_features
from repro.decomposition.streaming import StreamingDpar2
from repro.serve import FactorStore, QueryEngine
from repro.tensor.irregular import IrregularTensor


def main() -> None:
    # The registry lives in a temporary directory, removed on exit.
    with tempfile.TemporaryDirectory(prefix="stream-registry-") as root:
        stream_and_publish(FactorStore(root))


def stream_and_publish(registry: FactorStore) -> None:
    market = generate_market(
        n_stocks=24, max_days=200, min_days=80, random_state=5
    )
    tensor = standardize_features(market.tensor)
    print(f"feed: {tensor.n_slices} stocks arriving one by one "
          f"({tensor.n_columns} features each)\n")

    config = DecompositionConfig(rank=8, random_state=5)
    stream = StreamingDpar2(config, refresh_iterations=6)

    print(f"{'arrived':>8s} {'stream_fit':>11s} {'batch_fit':>10s} {'version':>8s}")
    checkpoints = {6, 12, 18, 24}
    for k in range(tensor.n_slices):
        stream.absorb(tensor[k], refresh=False)
        arrived = k + 1
        if arrived in checkpoints:
            so_far = IrregularTensor([tensor[i] for i in range(arrived)])
            stream_fit = stream.fitness(so_far)
            batch = dpar2(so_far, config.with_(max_iterations=6))
            version = stream.publish_to(registry, extra={"arrived": arrived})
            print(f"{arrived:8d} {stream_fit:11.4f} "
                  f"{batch.fitness(so_far):10.4f} {version:8d}")

    result = stream.result()
    print(f"\nfinal model: rank {result.rank}, {result.n_slices} slices, "
          f"V {result.V.shape}")
    print("each arrival cost one randomized SVD of that slice only — "
          "no raw history was revisited.")

    # The registry now holds one immutable snapshot per checkpoint; a
    # `repro serve --registry ...` process polling it would have hot-swapped
    # through all four.  Query the latest one directly:
    artifact = registry.latest()
    engine = QueryEngine(artifact.result, config=artifact.config,
                         version=artifact.version)
    neighbors, scores = engine.similar([0], k=3)
    print(f"\nregistry: {registry}")
    print(f"stocks most similar to stock 0 (v{artifact.version}): "
          + ", ".join(f"{n} ({s:.3f})"
                      for n, s in zip(neighbors[0], scores[0])))


if __name__ == "__main__":
    main()
