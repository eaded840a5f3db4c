"""Model serving: persist, version, and answer queries against fitted models.

The paper's end goal is not the factor matrices themselves but what they
answer — Table 3 ranks similar stocks by comparing rows of the learned
factors.  This package turns a fitted :class:`~repro.decomposition.result.Parafac2Result`
into a queryable system, in three layers and a codec:

* :mod:`repro.serve.store` — :class:`FactorStore`, a versioned on-disk model
  registry (manifest + ``.npy`` segments in the
  :class:`~repro.tensor.mmap_store.MmapSliceStore` idiom, memmap-backed
  load, atomic publish).
* :mod:`repro.serve.queries` — :class:`QueryEngine`, batched similar-entity
  ranking, slice reconstruction, fold-in projection of unseen slices, and
  reconstruction-error anomaly scores over one model snapshot.
* :mod:`repro.serve.service` — a stdlib-only asyncio HTTP service with
  adaptive request micro-batching (the coalescing window opens only under
  queue pressure), HTTP/1.1 keep-alive, an LRU of per-version engines, and
  zero-downtime hot swap when the registry publishes a new version.
* :mod:`repro.serve.wire` — the JSON codec of every request and response
  body: orjson when importable, the stdlib ``json`` otherwise, under one
  input contract.

See ``docs/architecture.md`` for how this layer sits on the kernels and
``docs/serving.md`` for the operator guide.
"""

from repro.serve.queries import FoldInResult, QueryEngine
from repro.serve.store import FactorStore, ModelArtifact, read_model, write_model
from repro.serve.service import (
    MicroBatcher,
    ModelHost,
    ServeApp,
    ServerHandle,
    ServiceError,
    start_server_in_thread,
)

__all__ = [
    "FactorStore",
    "FoldInResult",
    "MicroBatcher",
    "ModelArtifact",
    "ModelHost",
    "QueryEngine",
    "ServeApp",
    "ServerHandle",
    "ServiceError",
    "read_model",
    "start_server_in_thread",
    "write_model",
]
