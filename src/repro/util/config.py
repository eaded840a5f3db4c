"""Configuration shared by every PARAFAC2 solver in the library.

All four methods (PARAFAC2-ALS, RD-ALS, SPARTan, DPar2) accept the same
knobs so that the experiment harness can sweep them uniformly — exactly how
the paper's evaluation treats its competitors (Section IV-A: rank 10 unless
stated, at most 32 iterations, 6 threads).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.parallel.backends import BACKEND_NAMES
from repro.parallel.sharding import SHARD_RUNNERS
from repro.util.validation import check_non_negative_int, check_positive_int


@dataclass(frozen=True)
class DecompositionConfig:
    """Hyper-parameters for an ALS-style PARAFAC2 run.

    Attributes
    ----------
    rank:
        Target rank ``R`` of the decomposition.
    max_iterations:
        Hard cap on ALS sweeps; the paper uses 32.  Zero is allowed and
        means "preprocess and initialize only" (no sweeps).
    tolerance:
        Relative change of the convergence criterion below which iteration
        stops ("the error ceases to decrease").
    n_threads:
        Worker count for slice-parallel stages; the paper defaults to 6.
    backend:
        Execution backend for those stages: ``"serial"`` or ``"thread"``
        (default — BLAS releases the GIL).  Worker processes come from
        ``shards`` instead.  Validated here, at construction time, so a
        typo fails immediately rather than deep inside a solver.
    oversampling:
        Extra columns ``s`` in the randomized-SVD sketch (Algorithm 1).
    power_iterations:
        Exponent ``q`` in Algorithm 1 — subspace ("power") iterations that
        sharpen the sketch for slowly decaying spectra.
    random_state:
        Seed or generator for every stochastic stage.
    dtype:
        Working precision of the DPar2 pipeline: ``"float64"`` (default) or
        ``"float32"``.  float32 roughly halves memory traffic and doubles
        BLAS throughput on the compression stage; the convergence criterion
        still accumulates in float64.  Accepts a name or a numpy dtype and
        is normalized to the canonical name.
    compute_backend:
        Array library the DPar2 kernels run on: ``"numpy"`` (default,
        bitwise-stable), ``"torch"`` (PyTorch CPU), ``"torch-cuda"``
        (PyTorch on a GPU), or ``"cupy"``.  Validated *by name* here — the
        optional library is only imported when compute starts, so configs
        naming an absent backend fail with an install hint at solve time,
        not at construction.
    shards:
        ``None`` (default) runs DPar2 in process: the sweep loop of
        :mod:`repro.decomposition.sharded` on a one-cell plan.  An
        integer ``N >= 1`` spreads the cells over N shard workers
        (:mod:`repro.parallel.sharding`): stage-1 compression and the
        per-slice sweep contractions run shard-local and only O(R^2)
        Gram statistics cross shard boundaries each sweep.  Final factors are bitwise-identical for
        any shard count (see ``docs/distributed.md``); the sharded path
        requires the numpy compute backend.
    shard_backend:
        Transport for shard workers: ``"process"`` (default — forked
        worker processes that inherit their slices) or ``"serial"``
        (in-process, for debugging and overhead measurement).  Both
        produce bitwise-identical factors.
    shard_cells:
        Number of fixed reduction cells the K slices are grouped into
        (clamped to K).  Cells — not shards — are the unit of floating
        point accumulation, which is what makes the factors invariant to
        the shard count; more cells give the balancer finer granularity
        at slightly higher per-sweep message count.
    """

    rank: int = 10
    max_iterations: int = 32
    tolerance: float = 1e-4
    n_threads: int = 1
    backend: str = "thread"
    oversampling: int = 5
    power_iterations: int = 1
    random_state: object = None
    dtype: str = "float64"
    compute_backend: str = "numpy"
    shards: int | None = None
    shard_backend: str = "process"
    shard_cells: int = 8

    def __post_init__(self) -> None:
        check_positive_int(self.rank, "rank")
        check_non_negative_int(self.max_iterations, "max_iterations")
        check_positive_int(self.n_threads, "n_threads")
        if not isinstance(self.backend, str):
            raise TypeError(
                f"backend must be a string, got {type(self.backend).__name__}"
            )
        normalized = self.backend.strip().lower()
        if normalized not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {', '.join(BACKEND_NAMES)}; "
                f"got {self.backend!r} (worker processes: set shards=N, "
                "whose shard_backend defaults to 'process')"
            )
        object.__setattr__(self, "backend", normalized)
        try:
            dtype = np.dtype(self.dtype)
        except TypeError as exc:
            raise TypeError(f"dtype must name a numpy dtype, got {self.dtype!r}") from exc
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype!r}"
            )
        object.__setattr__(self, "dtype", dtype.name)
        # Imported here, not at module top: repro.linalg pulls this module
        # back in through repro.util's facade, and the names-only check
        # needs nothing heavier anyway.
        from repro.linalg.array_module import COMPUTE_BACKEND_NAMES

        if not isinstance(self.compute_backend, str):
            raise TypeError(
                "compute_backend must be a string, "
                f"got {type(self.compute_backend).__name__}"
            )
        compute = self.compute_backend.strip().lower()
        if compute not in COMPUTE_BACKEND_NAMES:
            raise ValueError(
                f"compute_backend must be one of "
                f"{', '.join(COMPUTE_BACKEND_NAMES)}; "
                f"got {self.compute_backend!r}"
            )
        object.__setattr__(self, "compute_backend", compute)
        if self.shards is not None:
            check_positive_int(self.shards, "shards")
            if compute != "numpy":
                raise ValueError(
                    "sharded decomposition requires compute_backend='numpy': "
                    "shard workers exchange host arrays, and device-resident "
                    f"sweeps do not shard (got compute_backend={compute!r})"
                )
        if not isinstance(self.shard_backend, str):
            raise TypeError(
                "shard_backend must be a string, "
                f"got {type(self.shard_backend).__name__}"
            )
        shard_backend = self.shard_backend.strip().lower()
        if shard_backend not in SHARD_RUNNERS:
            raise ValueError(
                f"shard_backend must be one of {', '.join(SHARD_RUNNERS)}; "
                f"got {self.shard_backend!r}"
            )
        object.__setattr__(self, "shard_backend", shard_backend)
        check_positive_int(self.shard_cells, "shard_cells")
        if self.oversampling < 0:
            raise ValueError(f"oversampling must be >= 0, got {self.oversampling}")
        if self.power_iterations < 0:
            raise ValueError(
                f"power_iterations must be >= 0, got {self.power_iterations}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")

    def with_(self, **changes) -> "DecompositionConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    @property
    def numpy_dtype(self) -> np.dtype:
        """The working precision as a :class:`numpy.dtype`."""
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        """JSON-safe view of the config; a non-seed ``random_state`` is dropped.

        A live Generator has no portable serialization; artifacts written
        from it (fitted factors, checkpointed streams) already embody its
        draws, so recording ``None`` loses nothing a reader could use.
        Inverse of :meth:`from_dict`.
        """
        payload = asdict(self)
        state = payload.get("random_state")
        if state is not None and not isinstance(state, int):
            payload["random_state"] = None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DecompositionConfig":
        """Rebuild a config from :meth:`to_dict` output (re-validates).

        Artifacts recorded with the retired ``"process"`` execution backend
        load as ``"thread"``, and those recorded with the retired
        ``"thread"`` shard transport load as ``"serial"``: factors never
        depended on either, so nothing a reader uses changes.
        """
        if payload.get("backend") == "process":
            payload = {**payload, "backend": "thread"}
        if payload.get("shard_backend") == "thread":
            payload = {**payload, "shard_backend": "serial"}
        return cls(**payload)

    @property
    def array_module(self):
        """The resolved compute backend (:class:`~repro.linalg.array_module.ArrayModule`).

        This is where torch/cupy are actually imported; a missing library
        raises :class:`~repro.linalg.array_module.BackendUnavailableError`
        with the install hint.
        """
        from repro.linalg.array_module import get_xp

        return get_xp(self.compute_backend)
