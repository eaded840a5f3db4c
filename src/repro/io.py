"""Compressed-tensor persistence: save/load a :class:`CompressedTensor`.

Compressing once and decomposing many times (rank sweeps, warm restarts,
the Section IV-E workflow) needs the compressed form on disk.  It is
stored as a single ``.npz`` archive with a small manifest — no pickling,
so archives are portable and safe to load.

Fitted models are not stored here: they persist via
:meth:`Parafac2Result.save <repro.decomposition.result.Parafac2Result.save>`
/ :meth:`~repro.decomposition.result.Parafac2Result.load`, the
memmap-able directory format registry versions use.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition.dpar2 import CompressedTensor

_FORMAT_VERSION = 1


def save_compressed(path, compressed: CompressedTensor) -> None:
    """Serialize a :func:`~repro.decomposition.dpar2.compress_tensor` result.

    Compressing once and decomposing many times (rank sweeps, warm restarts)
    is the intended workflow; this makes the compressed form durable.
    """
    arrays = {
        "format_version": np.array(_FORMAT_VERSION),
        "kind": np.array("compressed_tensor"),
        "D": compressed.D,
        "E": compressed.E,
        "F_blocks": compressed.F_blocks,
        "seconds": np.array(compressed.seconds),
        "n_slices": np.array(compressed.n_slices),
    }
    for k, Ak in enumerate(compressed.A):
        arrays[f"A_{k}"] = Ak
    np.savez_compressed(path, **arrays)


def load_compressed(path) -> CompressedTensor:
    """Load a compressed tensor written by :func:`save_compressed`."""
    with np.load(path, allow_pickle=False) as data:
        _check_archive(data, "compressed_tensor")
        n_slices = int(data["n_slices"])
        return CompressedTensor(
            A=[data[f"A_{k}"] for k in range(n_slices)],
            D=data["D"],
            E=data["E"],
            F_blocks=data["F_blocks"],
            seconds=float(data["seconds"]),
        )


def _check_archive(data, expected_kind: str) -> None:
    if "kind" not in data or "format_version" not in data:
        raise ValueError("archive is not a repro model file")
    kind = str(data["kind"])
    if kind != expected_kind:
        raise ValueError(f"archive holds a {kind!r}, expected {expected_kind!r}")
    version = int(data["format_version"])
    if version > _FORMAT_VERSION:
        raise ValueError(
            f"archive format v{version} is newer than this library "
            f"(supports up to v{_FORMAT_VERSION})"
        )
