"""Streaming writer process of the serve-mixed workload.

Started by ``serving.py`` with the registry, the run's seed and the fixture
as arguments.  It builds the initial model with ``StreamingDpar2``,
publishes it, and prints one JSON line ``{"ready": ...}``.  Then it follows
JSON commands, one per stdin line, answering each on stdout:

* ``{"cmd": "updates", "url": U, "seconds": S, "min_updates": N}`` -- absorb
  the next batch, publish it, POST ``U/admin/reload``; repeat until ``S``
  seconds have passed and at least ``N`` updates are done.  One line per
  update, then ``{"done": true}``.
* ``{"cmd": "fitness"}`` -- fitness of the current model on every slice
  absorbed so far.

It exits when stdin closes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request

import numpy as np

from common import derive_seed
from repro.decomposition.streaming import StreamingDpar2
from repro.serve.store import FactorStore
from repro.tensor.irregular import IrregularTensor
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

#: Update batches generated up front; a run that needs more fails loudly.
MAX_UPDATES = 20


def stream_slices(fixture: dict, common: dict, seed: int, n_slices: int) -> list:
    """The first ``n_slices`` slices of the run's planted low-rank stream.

    The first ``unseen_pool`` slices (``fold_in_rows`` rows each) are the
    readers' unseen fold-in and anomaly inputs; the model is trained on the
    slices after them.  The generator draws the shared factors first and
    then each slice in order, so a shorter call yields a prefix of a
    longer one.
    """
    pool = common["unseen_pool"]
    rows = np.random.default_rng(derive_seed(seed, 4)).integers(
        fixture["min_rows"], fixture["max_rows"] + 1, size=max(n_slices - pool, 0))
    counts = [common["fold_in_rows"]] * pool + [int(r) for r in rows]
    tensor = low_rank_irregular_tensor(
        counts[:n_slices], fixture["n_columns"], common["rank"],
        noise=fixture["noise"], random_state=derive_seed(seed, 3))
    return list(tensor.slices)


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def reload(url: str) -> tuple[int, dict]:
    request = urllib.request.Request(url + "/admin/reload", data=b"{}", method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fixture", required=True, help="fixture JSON")
    parser.add_argument("--common", required=True, help="common-parameter JSON")
    args = parser.parse_args(argv)
    fixture, common = json.loads(args.fixture), json.loads(args.common)

    pool, size = common["unseen_pool"], fixture["update_slices"]
    slices = stream_slices(fixture, common, args.seed,
                           pool + fixture["n_slices"] + MAX_UPDATES * size)[pool:]
    initial, pending = slices[:fixture["n_slices"]], slices[fixture["n_slices"]:]
    config = DecompositionConfig(rank=common["rank"], n_threads=common["n_threads"],
                                 random_state=derive_seed(args.seed, 5))
    stream = StreamingDpar2(config)
    stream.absorb_many(initial, refresh=False)
    store = FactorStore(args.registry)
    emit({"ready": True, "version": stream.publish_to(store), "n_slices": stream.n_slices})

    absorbed = len(initial)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "fitness":
            emit({"fitness": stream.fitness(IrregularTensor(slices[:absorbed], copy=False))})
            continue
        done, deadline = 0, time.perf_counter() + command["seconds"]
        while done < command["min_updates"] or time.perf_counter() < deadline:
            if absorbed + size > len(slices):
                emit({"error": f"more than {MAX_UPDATES} updates requested"})
                break
            offset = absorbed - len(initial)
            batch = pending[offset:offset + size]
            start, cpu_start = time.perf_counter(), time.process_time()
            stream.absorb_many(batch)
            absorbed_at, absorb_cpu = time.perf_counter(), time.process_time() - cpu_start
            version = stream.publish_to(store)
            published_at = time.perf_counter()
            try:
                status, body = reload(command["url"])
            except OSError as exc:
                status, body = None, {"error": str(exc)}
            end = time.perf_counter()
            absorbed += size
            done += 1
            emit({
                "version": version,
                "status": status,
                "served": body.get("version"),
                "absorb_s": absorbed_at - start,
                "absorb_cpu_s": absorb_cpu,
                "publish_s": published_at - absorbed_at,
                "reload_s": end - published_at,
                "freshness_s": end - start,
            })
        emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
