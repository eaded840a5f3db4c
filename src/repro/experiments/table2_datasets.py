"""Table II — dataset summary.

Prints the shapes of the synthetic datasets next to the paper's original
dimensions so the scale-down is explicit.
"""

from __future__ import annotations

from repro.data.registry import DATASETS, load_dataset
from repro.experiments.reporting import ExperimentReport


def run(*, random_state: int = 0) -> ExperimentReport:
    rows: list[list] = []
    for name, spec in DATASETS.items():
        if not spec.paper:
            continue
        tensor = load_dataset(name, random_state=random_state)
        paper_max_ik, paper_j, paper_k = spec.paper_shape
        rows.append(
            [
                name,
                spec.summary,
                f"{paper_max_ik}/{tensor.max_rows}",
                f"{paper_j}/{tensor.n_columns}",
                f"{paper_k}/{tensor.n_slices}",
            ]
        )
    return ExperimentReport(
        experiment_id="table2",
        title="Datasets (paper dimension / synthetic dimension)",
        headers=["dataset", "summary", "max_Ik", "J", "K"],
        rows=rows,
        findings=[
            "synthetic datasets preserve structure (irregularity, density, "
            "spectral decay) at laptop scale; see `repro datasets` and "
            "repro.data.registry"
        ],
    )


def main() -> int:
    print(run().render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
