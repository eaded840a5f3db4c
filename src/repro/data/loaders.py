"""CSV interchange for irregular tensors.

Real deployments feed PARAFAC2 from files.  This module reads and writes a
directory of per-slice CSV files (interoperable: one file per stock /
song / video, rows = time, columns = features), with an optional header.

The library's native on-disk form is
:class:`~repro.tensor.mmap_store.MmapSliceStore` (``IrregularTensor.to_store``
/ ``IrregularTensor.from_store``): one memory-mappable ``.npy`` file per
slice, which every solver reads out of core.
"""

from __future__ import annotations

import os

import numpy as np

from repro.tensor.irregular import IrregularTensor

def save_tensor_csv_dir(
    directory,
    tensor: IrregularTensor,
    *,
    names=None,
    header=None,
    fmt: str = "%.10g",
) -> list[str]:
    """Write each slice as ``<directory>/<name>.csv``.

    Parameters
    ----------
    directory:
        Created if absent.
    names:
        Per-slice file stems (default ``slice_0000`` …); must be unique.
    header:
        Optional list of column names written as the first line.
    fmt:
        numpy ``savetxt`` float format.

    Returns
    -------
    The list of file paths written, in slice order.
    """
    if names is None:
        names = [f"slice_{k:04d}" for k in range(tensor.n_slices)]
    names = [str(n) for n in names]
    if len(names) != tensor.n_slices:
        raise ValueError(
            f"{len(names)} names for {tensor.n_slices} slices"
        )
    if len(set(names)) != len(names):
        raise ValueError("slice names must be unique")
    if header is not None and len(header) != tensor.n_columns:
        raise ValueError(
            f"header has {len(header)} entries for {tensor.n_columns} columns"
        )
    os.makedirs(directory, exist_ok=True)
    header_line = ",".join(header) if header is not None else ""
    paths = []
    for name, Xk in zip(names, tensor):
        path = os.path.join(directory, f"{name}.csv")
        np.savetxt(
            path, Xk, delimiter=",", fmt=fmt,
            header=header_line, comments="",
        )
        paths.append(path)
    return paths


def load_tensor_csv_dir(directory, *, has_header: bool = False) -> tuple[IrregularTensor, list[str]]:
    """Read every ``*.csv`` in a directory as one slice each.

    Files are taken in sorted-name order so the slice order is stable.

    Returns
    -------
    (tensor, names):
        The tensor and the file stems, aligned by position.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{directory} is not a directory")
    files = sorted(
        f for f in os.listdir(directory) if f.lower().endswith(".csv")
    )
    if not files:
        raise ValueError(f"no .csv files found in {directory}")
    slices = []
    names = []
    for filename in files:
        path = os.path.join(directory, filename)
        data = np.loadtxt(
            path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2
        )
        slices.append(data)
        names.append(os.path.splitext(filename)[0])
    return IrregularTensor(slices), names
