"""Run every experiment and emit a consolidated report.

``python -m repro.experiments.run_all [--markdown PATH]`` executes the
harness for every table and figure that ``repro.cli.EXPERIMENT_MODULES``
lists (``repro bench-info`` prints it) and prints the rendered tables;
with ``--markdown`` it also writes the EXPERIMENTS.md-ready markdown dump.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    fig1_tradeoff,
    fig8_slice_lengths,
    fig9_iteration,
    fig9_preprocessing,
    fig10_compression,
    fig11_scalability,
    fig12_correlation,
    table2_datasets,
    table3_similar_stocks,
)


def run_all(random_state: int = 0) -> list:
    """Execute every experiment; returns the list of reports in paper order."""
    runners = [
        ("table2", lambda: table2_datasets.run(random_state=random_state)),
        ("fig1", lambda: fig1_tradeoff.run(random_state=random_state)),
        ("fig8", lambda: fig8_slice_lengths.run(random_state=random_state)),
        ("fig9a", lambda: fig9_preprocessing.run(random_state=random_state)),
        ("fig9b", lambda: fig9_iteration.run(random_state=random_state)),
        ("fig10", lambda: fig10_compression.run(random_state=random_state)),
        ("fig11a", lambda: fig11_scalability.run_size(random_state=random_state)),
        ("fig11b", lambda: fig11_scalability.run_rank(random_state=random_state)),
        ("fig11c", lambda: fig11_scalability.run_threads(random_state=random_state)),
        ("fig12", lambda: fig12_correlation.run(random_state=random_state)),
        ("table3", lambda: table3_similar_stocks.run(random_state=random_state)),
    ]
    reports = []
    for name, runner in runners:
        start = time.perf_counter()
        report = runner()
        elapsed = time.perf_counter() - start
        print(report.render())
        print(f"[{name} completed in {elapsed:.1f}s]\n", flush=True)
        reports.append(report)
    return reports


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    reports = run_all()
    if "--markdown" in args:
        path = args[args.index("--markdown") + 1]
        with open(path, "w") as handle:
            handle.write("\n\n".join(report.to_markdown() for report in reports))
            handle.write("\n")
        print(f"markdown report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
