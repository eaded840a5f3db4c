"""Versioned on-disk model registry: manifest + ``.npy`` segment payloads.

Two layers share one payload format:

* :func:`write_model` / :func:`read_model` persist a single
  :class:`~repro.decomposition.result.Parafac2Result` as a directory holding
  a JSON manifest plus one ``.npy`` file per factor — the
  :class:`~repro.tensor.mmap_store.MmapSliceStore` idiom.  Loading maps the
  factors back as read-only ``np.memmap`` views, so opening a model touches
  only the pages a query actually reads.  ``Parafac2Result.save``/``load``
  delegate here.
* :class:`FactorStore` stacks versioning on top: a registry directory whose
  ``versions/v0000001, v0000002, …`` subdirectories are immutable model
  payloads, committed by :class:`repro.util.atomic.NumberedDirs` (staged,
  renamed into place, then the ``LATEST`` pointer replaced) — readers
  either see the old complete version or the new complete version, never
  a half-written one.  That is what lets a serving process hot-swap
  models while requests are in flight.

The manifest carries a ``schema_version`` so future layout changes stay
detectable, the factor ``dtype``, and (optionally) the
:class:`~repro.util.config.DecompositionConfig` the model was fitted with,
so a registry entry is self-describing: rank, backend, dtype, and seed all
round-trip.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.decomposition.result import IterationRecord, Parafac2Result
from repro.util.atomic import NumberedDirs, read_json, write_text_atomic
from repro.util.config import DecompositionConfig

MODEL_MANIFEST_NAME = "model.json"
_MODEL_FORMAT = "repro-parafac2-model"
#: Payload layout revision.  Bump when the segment naming or manifest keys
#: change incompatibly; readers reject schema versions they do not know.
SCHEMA_VERSION = 1

_REGISTRY_MARKER = "registry.json"
_REGISTRY_FORMAT = "repro-factor-registry"


def _q_filename(index: int) -> str:
    return f"Q_{index:06d}.npy"


def write_model(
    directory,
    result: Parafac2Result,
    *,
    config: DecompositionConfig | None = None,
    extra: dict | None = None,
) -> Path:
    """Persist ``result`` (and optionally its config) under ``directory``.

    The directory must not already hold a model.  Every factor is written
    C-contiguous in its own dtype, so :func:`read_model` can hand back
    zero-copy memmap views.  ``extra`` is a JSON-safe dict merged into the
    manifest's ``meta`` key (tags, dataset name, …).
    """
    directory = Path(directory)
    manifest_path = directory / MODEL_MANIFEST_NAME
    if manifest_path.exists():
        raise FileExistsError(f"{manifest_path} already exists; model payloads are immutable")
    directory.mkdir(parents=True, exist_ok=True)

    files = {"H": "H.npy", "S": "S.npy", "V": "V.npy",
             "Q": [_q_filename(k) for k in range(result.n_slices)]}
    np.save(directory / files["H"], np.ascontiguousarray(result.H))
    np.save(directory / files["S"], np.ascontiguousarray(result.S))
    np.save(directory / files["V"], np.ascontiguousarray(result.V))
    for k, Qk in enumerate(result.Q):
        np.save(directory / files["Q"][k], np.ascontiguousarray(Qk))

    manifest = {
        "format": _MODEL_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "dtype": np.dtype(result.H.dtype).name,
        "method": result.method,
        "rank": result.rank,
        "n_slices": result.n_slices,
        "n_columns": int(result.V.shape[0]),
        "row_counts": [int(Qk.shape[0]) for Qk in result.Q],
        "n_iterations": result.n_iterations,
        "converged": bool(result.converged),
        "preprocess_seconds": float(result.preprocess_seconds),
        "iterate_seconds": float(result.iterate_seconds),
        "preprocessed_bytes": int(result.preprocessed_bytes),
        "history": [[r.iteration, r.criterion, r.seconds] for r in result.history],
        "config": None if config is None else config.to_dict(),
        "meta": dict(extra or {}),
        "files": files,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return directory


@dataclass(frozen=True)
class ModelArtifact:
    """One loaded registry entry: the model plus its self-description."""

    result: Parafac2Result
    config: DecompositionConfig | None
    schema_version: int
    meta: dict
    version: int | None = None

    @property
    def dtype(self) -> np.dtype:
        """Working dtype of the stored factors."""
        return self.result.H.dtype


def read_model(directory, *, mmap: bool = True, version: int | None = None) -> ModelArtifact:
    """Load a model payload written by :func:`write_model`.

    With ``mmap=True`` (default) the factors come back as read-only
    ``np.memmap`` views — a registry with many large versions costs pages,
    not RAM.  Pass ``mmap=False`` for in-RAM copies (e.g. before deleting
    the directory).
    """
    directory = Path(directory)
    manifest_path = directory / MODEL_MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no model payload at {directory} ({MODEL_MANIFEST_NAME} missing)")
    manifest = read_json(manifest_path)
    if manifest.get("format") != _MODEL_FORMAT:
        raise ValueError(f"{manifest_path} is not a {_MODEL_FORMAT} manifest")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {manifest.get('schema_version')!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )

    mode = "r" if mmap else None
    files = manifest["files"]

    def _load(name: str) -> np.ndarray:
        path = directory / name
        if not path.exists():
            raise ValueError(f"model payload segment missing: {path}")
        return np.load(path, mmap_mode=mode)

    result = Parafac2Result(
        Q=[_load(name) for name in files["Q"]],
        H=_load(files["H"]),
        S=_load(files["S"]),
        V=_load(files["V"]),
        method=manifest.get("method", "unknown"),
        n_iterations=int(manifest.get("n_iterations", 0)),
        converged=bool(manifest.get("converged", False)),
        preprocess_seconds=float(manifest.get("preprocess_seconds", 0.0)),
        iterate_seconds=float(manifest.get("iterate_seconds", 0.0)),
        preprocessed_bytes=int(manifest.get("preprocessed_bytes", 0)),
        history=[
            IterationRecord(int(it), float(crit), float(sec))
            for it, crit, sec in manifest.get("history", [])
        ],
    )
    declared = np.dtype(manifest["dtype"])
    if result.H.dtype != declared:
        raise ValueError(
            f"model manifest declares dtype {declared.name} but segments "
            f"hold {result.H.dtype.name} — payload is corrupt"
        )
    config_payload = manifest.get("config")
    config = None if config_payload is None else DecompositionConfig.from_dict(config_payload)
    return ModelArtifact(
        result=result,
        config=config,
        schema_version=int(manifest["schema_version"]),
        meta=dict(manifest.get("meta", {})),
        version=version,
    )


class FactorStore:
    """A versioned registry of PARAFAC2 models under one directory.

    Layout::

        registry/
          registry.json        # format marker
          LATEST               # "3\\n" — atomic pointer to the live version
          versions/
            v0000001/model.json + *.npy
            v0000002/…

    Versions are immutable once published and numbered from disk, one
    past the highest complete version; :meth:`publish` commits through
    :class:`~repro.util.atomic.NumberedDirs` (staging directory + rename +
    pointer replace), so concurrent readers — including a serving process
    mid-request — never observe a partial model.  Old versions stay on
    disk until :meth:`prune`, which is what makes zero-downtime hot swap
    safe: requests started against version ``n`` keep their memmaps while
    ``n+1`` goes live.

    Example
    -------
    >>> import numpy as np, tempfile
    >>> from repro import DecompositionConfig, dpar2, random_irregular_tensor
    >>> tensor = random_irregular_tensor([20, 30], n_columns=12, random_state=0)
    >>> result = dpar2(tensor, DecompositionConfig(rank=3, random_state=0))
    >>> store = FactorStore(tempfile.mkdtemp())
    >>> store.publish(result)
    1
    >>> store.latest().result.rank
    3
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._versions = NumberedDirs(
            self.root / "versions",
            prefix="v",
            marker=MODEL_MANIFEST_NAME,
            site="store.publish",
            pointer=self.root / "LATEST",
        )
        marker = self.root / _REGISTRY_MARKER
        if marker.exists():
            payload = read_json(marker)
            if payload.get("format") != _REGISTRY_FORMAT:
                raise ValueError(f"{self.root} is not a {_REGISTRY_FORMAT} registry")
            if payload.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported registry schema version "
                    f"{payload.get('schema_version')!r} "
                    f"(this build reads version {SCHEMA_VERSION})"
                )
        else:
            self._versions.directory.mkdir(parents=True, exist_ok=True)
            write_text_atomic(marker, json.dumps(
                {"format": _REGISTRY_FORMAT, "schema_version": SCHEMA_VERSION}
            ))

    # ------------------------------------------------------------------ #
    # version bookkeeping
    # ------------------------------------------------------------------ #

    def version_dir(self, version: int) -> Path:
        """Directory holding ``version``'s immutable payload."""
        return self._versions.path(version)

    def versions(self) -> list[int]:
        """All published version numbers, ascending."""
        return self._versions.numbers()

    def latest_version(self) -> int | None:
        """The live version per the ``LATEST`` pointer (None when empty).

        Falls back to the highest complete version directory when the
        pointer is missing or stale (e.g. a publisher crashed between the
        rename and the pointer flip — the rename already made the version
        complete, so serving it is correct).
        """
        return self._versions.latest()

    def __len__(self) -> int:
        """Number of published versions."""
        return len(self.versions())

    def __repr__(self) -> str:
        """Summarize root path, version count, and latest version."""
        return (
            f"FactorStore({str(self.root)!r}, {len(self)} versions, "
            f"latest={self.latest_version()})"
        )

    # ------------------------------------------------------------------ #
    # publish / load
    # ------------------------------------------------------------------ #

    def publish(
        self,
        result: Parafac2Result,
        *,
        config: DecompositionConfig | None = None,
        extra: dict | None = None,
    ) -> int:
        """Atomically add ``result`` as the next version; returns its number.

        The version goes live when the ``LATEST`` pointer moves.  A
        publisher killed before that (fault sites ``store.publish.staged``
        and ``store.publish.renamed``, tests/test_faults.py) leaves the
        previous version live; the next publish numbers past whatever
        complete version the killed one left behind.
        """
        meta = dict(extra or {})
        meta.setdefault("published_at", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
        return self._versions.commit(
            lambda staging, _: write_model(staging, result, config=config, extra=meta)
        )

    def get(self, version: int, *, mmap: bool = True) -> ModelArtifact:
        """Load one published version (memmap-backed by default)."""
        version = int(version)
        target = self.version_dir(version)
        if not (target / MODEL_MANIFEST_NAME).exists():
            raise KeyError(
                f"version {version} not in registry {self.root} "
                f"(published: {self.versions() or 'none'})"
            )
        return read_model(target, mmap=mmap, version=version)

    def latest(self, *, mmap: bool = True) -> ModelArtifact:
        """Load the live version; raises ``LookupError`` on an empty registry."""
        version = self.latest_version()
        if version is None:
            raise LookupError(f"registry {self.root} has no published versions")
        return self.get(version, mmap=mmap)

    def prune(self, *, keep: int = 2) -> list[int]:
        """Delete all but the newest ``keep`` versions; returns those removed.

        The live (pointed-to) version is never removed.  Only call this when
        no serving process still holds memmaps into the doomed versions.
        """
        return self._versions.prune(keep)
