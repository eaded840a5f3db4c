"""Out-of-core slice storage: an irregular tensor as ``.npy`` files on disk.

DPar2 only reads the raw slices during stage-1 compression; every later
sweep runs on the compressed representation (``{Ak}, D, E, F``), which is
orders of magnitude smaller (Fig. 10).  That makes the method a natural fit
for tensors bigger than RAM — *if* the slices can be streamed.  This module
provides the streaming substrate:

* :class:`MmapSliceStore` — a directory holding the payload files per slice
  plus a small JSON manifest with the shape metadata.  Dense slices are one
  ``.npy`` file, loaded as read-only ``np.memmap`` views, so touching one
  pulls only the pages the computation actually reads, and the OS page
  cache evicts them under pressure.  Sparse slices are stored in CSR form
  as three segments (``indptr``/``indices``/``data`` ``.npy`` files named
  in the manifest) and come back as
  :class:`~repro.sparse.csr.CsrMatrix` instances over memory-mapped
  component arrays — an out-of-core sparse tensor is never densified, on
  disk or at load.
* ``IrregularTensor.from_store(store)`` wraps those views in the standard
  container without copying, so every solver accepts an out-of-core tensor
  unchanged.

Worker threads read store-backed slices in place, and forked process
shards inherit the maps, so the data goes disk → page cache → worker
without a copy.

Manifest versions: version 1 (dense-only, one filename string per slice)
and version 2 (dense strings and/or sparse payload dicts) are both read;
a store is written at version 1 for as long as it holds no sparse slice,
so dense stores stay readable by older builds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import check_finite_csr
from repro.tensor.irregular import IrregularTensor
from repro.util import faults
from repro.util.atomic import read_json, write_text_atomic
from repro.util.validation import check_matrix

MANIFEST_NAME = "manifest.json"
_FORMAT = "repro-mmap-slice-store"
_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def _slice_filename(index: int) -> str:
    return f"slice_{index:06d}.npy"


def _csr_filenames(index: int) -> dict[str, str]:
    base = f"slice_{index:06d}"
    return {
        segment: f"{base}.{segment}.npy"
        for segment in ("indptr", "indices", "data")
    }


def _entry_filenames(entry) -> list[str]:
    """All payload filenames of one manifest ``files`` entry."""
    if isinstance(entry, str):
        return [entry]
    return [entry[segment] for segment in ("indptr", "indices", "data")]


class MmapSliceStore:
    """A directory of memory-mappable slice files with a JSON manifest.

    Build one with :meth:`create` (optionally from an iterable, so slices
    can be generated or read one at a time and never coexist in RAM), grow
    it with :meth:`append`, and reopen it later with :meth:`open`.  Both
    dense arrays and :class:`~repro.sparse.csr.CsrMatrix` slices are
    accepted and round-trip in their own representation.

    Example
    -------
    >>> import numpy as np, tempfile
    >>> rng = np.random.default_rng(0)
    >>> tmp = tempfile.mkdtemp()
    >>> store = MmapSliceStore.create(tmp, (rng.random((n, 8)) for n in (30, 50)))
    >>> store.row_counts
    [30, 50]
    >>> tensor = store.as_tensor()          # zero-copy, memmap-backed
    >>> float(tensor.squared_norm()) > 0
    True
    """

    def __init__(self, directory, manifest: dict) -> None:
        self._directory = Path(directory)
        self._manifest = manifest

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        directory,
        slices: Iterable[np.ndarray] = (),
        *,
        overwrite: bool = False,
        dtype=np.float64,
    ) -> "MmapSliceStore":
        """Materialize a new store at ``directory`` from ``slices``.

        ``slices`` is consumed lazily — pass a generator to build a store
        larger than RAM.  Pass ``overwrite=True`` to replace an existing
        store (its old slice files are removed first).  ``dtype`` selects
        the on-disk precision (``float64`` default, ``float32`` halves the
        footprint and feeds the float32 pipeline without a conversion
        pass).
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            if not overwrite:
                raise FileExistsError(
                    f"{manifest_path} already exists; pass overwrite=True to replace"
                )
            # Remove the old store's slice files.  The manifest may be
            # corrupt (crashed writer) or from another version — replacing
            # such a store is precisely what overwrite=True is for, so fall
            # back to the file naming convention when it cannot be read.
            try:
                stale_entries = list(cls.open(directory)._manifest["files"])
                stale_files = [
                    name
                    for entry in stale_entries
                    for name in _entry_filenames(entry)
                ]
            except Exception:
                stale_files = [p.name for p in directory.glob("slice_*.npy")]
            for filename in stale_files:
                (directory / filename).unlink(missing_ok=True)
            manifest_path.unlink()
        directory.mkdir(parents=True, exist_ok=True)

        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
        store = cls(
            directory,
            {
                "format": _FORMAT,
                "version": _VERSION,
                "dtype": dtype.name,
                "n_columns": None,
                "row_counts": [],
                "files": [],
            },
        )
        for Xk in slices:
            store.append(Xk, flush=False)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, directory) -> "MmapSliceStore":
        """Open an existing store (manifest + slice files) read-write."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no slice store at {directory} ({MANIFEST_NAME} missing)")
        manifest = read_json(manifest_path)
        if manifest.get("format") != _FORMAT:
            raise ValueError(f"{manifest_path} is not a {_FORMAT} manifest")
        if manifest.get("version") not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported store version {manifest.get('version')!r} "
                f"(this build reads versions "
                f"{', '.join(str(v) for v in _READABLE_VERSIONS)})"
            )
        files = manifest.get("files", [])
        row_counts = manifest.get("row_counts", [])
        if len(files) != len(row_counts):
            raise ValueError(
                f"{manifest_path} is inconsistent: {len(files)} payload entries "
                f"but {len(row_counts)} row counts"
            )
        if manifest.get("version") == 1 and any(
            not isinstance(entry, str) for entry in files
        ):
            # Sparse payload dicts were introduced with version 2; a v1
            # manifest carrying them was hand-edited or written corrupt.
            raise ValueError(
                f"{manifest_path} declares version 1 (dense-only) but holds "
                "sparse payload entries — version/payload mismatch"
            )
        return cls(directory, manifest)

    def append(self, slice_matrix, *, flush: bool = True) -> int:
        """Validate and persist one slice; returns its index.

        Dense slices are written C-contiguous in the store's dtype (the
        layout the rest of the library canonicalizes to), so reopening
        them memory-mapped needs no conversion pass.
        :class:`~repro.sparse.csr.CsrMatrix` slices are written as three
        CSR segment files — the sparse payload format; their values are
        cast to the store's dtype, the structure is kept verbatim.
        ``flush=False`` skips the per-append manifest rewrite (an O(K)
        file) — used by :meth:`create` to keep bulk construction linear in
        K; call :meth:`flush` when done.
        """
        index = len(self._manifest["files"])
        J = self._manifest["n_columns"]
        # Fault-injection site: a writer killed here (or anywhere before the
        # manifest rewrite below) leaves at most orphan payload files the
        # manifest never references — readers reopen the previous state.
        faults.check("mmap_store.append.data")
        if isinstance(slice_matrix, CsrMatrix):
            Xk = check_finite_csr(slice_matrix, "slice_matrix").astype(self.dtype)
            if J is not None and Xk.shape[1] != J:
                raise ValueError(
                    f"slice has {Xk.shape[1]} columns; store has {J} "
                    "(all slices must share the column dimension J)"
                )
            filenames = _csr_filenames(index)
            np.save(self._directory / filenames["indptr"], Xk.indptr)
            np.save(self._directory / filenames["indices"], Xk.indices)
            np.save(
                self._directory / filenames["data"],
                np.ascontiguousarray(Xk.data),
            )
            entry: "str | dict" = {"kind": "csr", "nnz": int(Xk.nnz), **filenames}
        else:
            Xk = check_matrix(slice_matrix, "slice_matrix", dtype=self.dtype)
            if J is not None and Xk.shape[1] != J:
                raise ValueError(
                    f"slice has {Xk.shape[1]} columns; store has {J} "
                    "(all slices must share the column dimension J)"
                )
            entry = _slice_filename(index)
            np.save(self._directory / entry, Xk)
        if J is None:
            self._manifest["n_columns"] = int(Xk.shape[1])
        self._manifest["row_counts"].append(int(Xk.shape[0]))
        self._manifest["files"].append(entry)
        if flush:
            self._write_manifest()
        return index

    def flush(self) -> None:
        """Persist the manifest (only needed after ``append(flush=False)``)."""
        self._write_manifest()

    def _write_manifest(self) -> None:
        # Dense-only stores are written at version 1, which older builds
        # still read; the first sparse slice bumps the manifest to 2.
        self._manifest["version"] = (
            2
            if any(isinstance(e, dict) for e in self._manifest["files"])
            else 1
        )
        # Fault-injection site: killed here, the new payload files exist but
        # the old manifest still rules — the store reopens at its previous
        # length.  The write itself is atomic, so a kill mid-serialization
        # can never leave a truncated manifest behind either.
        faults.check("mmap_store.append.manifest")
        write_text_atomic(
            self._directory / MANIFEST_NAME, json.dumps(self._manifest, indent=1)
        )

    # ------------------------------------------------------------------ #
    # metadata (manifest only — no slice data touched)
    # ------------------------------------------------------------------ #

    @property
    def directory(self) -> Path:
        return self._directory

    def __len__(self) -> int:
        return len(self._manifest["files"])

    @property
    def n_slices(self) -> int:
        return len(self)

    @property
    def n_columns(self) -> int:
        J = self._manifest["n_columns"]
        if J is None:
            raise ValueError("store is empty; column count is undefined")
        return int(J)

    @property
    def row_counts(self) -> list[int]:
        return [int(rows) for rows in self._manifest["row_counts"]]

    @property
    def dtype(self) -> np.dtype:
        """On-disk precision (manifests predating the key are float64)."""
        return np.dtype(self._manifest.get("dtype", "float64"))

    @property
    def nbytes(self) -> int:
        """Size of the stored slice data in bytes."""
        itemsize = self.dtype.itemsize
        total = 0
        for rows, entry in zip(
            self._manifest["row_counts"], self._manifest["files"]
        ):
            if isinstance(entry, str):
                total += int(rows) * self.n_columns * itemsize
            else:
                # CSR payload: values + int64 indices + int64 indptr.
                total += int(entry["nnz"]) * (itemsize + 8) + (int(rows) + 1) * 8
        return total

    def slice_path(self, index: int) -> Path:
        """Path of a slice's payload (the data segment for CSR slices)."""
        entry = self._manifest["files"][index]
        if isinstance(entry, str):
            return self._directory / entry
        return self._directory / entry["data"]

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"MmapSliceStore({str(self._directory)!r}, empty)"
        return (
            f"MmapSliceStore({str(self._directory)!r}, K={self.n_slices}, "
            f"J={self.n_columns}, {self.nbytes} bytes on disk)"
        )

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #

    def load_slice(self, index: int, *, mmap: bool = True):
        """One slice: a read-only memmap (default) or in-RAM array for
        dense payloads, a :class:`~repro.sparse.csr.CsrMatrix` over
        memory-mapped (or in-RAM) component arrays for sparse payloads.

        Raises ``FileNotFoundError`` when a payload segment named by the
        manifest is missing, and ``ValueError`` when a segment's on-disk
        dtype contradicts the manifest (either means the store directory
        was modified behind the manifest's back)."""
        entry = self._manifest["files"][index]
        mode = "r" if mmap else None

        def _load(name: str) -> np.ndarray:
            path = self._directory / name
            if not path.exists():
                raise FileNotFoundError(
                    f"store segment missing: {path} (named by {MANIFEST_NAME})"
                )
            return np.load(path, mmap_mode=mode)

        if isinstance(entry, str):
            loaded = _load(entry)
        else:
            rows = int(self._manifest["row_counts"][index])
            loaded = CsrMatrix(
                (rows, self.n_columns),
                _load(entry["indptr"]),
                _load(entry["indices"]),
                _load(entry["data"]),
                validate=False,
            )
        if loaded.dtype != self.dtype:
            raise ValueError(
                f"slice {index} holds {loaded.dtype.name} values but the "
                f"manifest declares {self.dtype.name} — store is corrupt"
            )
        return loaded

    def iter_slices(self, *, mmap: bool = True) -> Iterator[np.ndarray]:
        for index in range(len(self)):
            yield self.load_slice(index, mmap=mmap)

    def as_tensor(self) -> IrregularTensor:
        """The store as a zero-copy, memmap-backed :class:`IrregularTensor`."""
        return IrregularTensor.from_store(self)
