"""Dataset registry — Table II in code.

Each of the paper's eight datasets is represented by a synthetic generator
with the same *kind* of structure (see the module docstrings in
:mod:`repro.data`) at laptop scale.  ``paper_shape`` records the original
(max Ik, J, K) from Table II so reports can show both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.audio import generate_audio_tensor
from repro.data.stock import generate_market, standardize_features
from repro.data.synthetic import sparse_irregular_tensor
from repro.data.traffic import generate_traffic_tensor
from repro.data.video import generate_video_tensor
from repro.obs import trace
from repro.tensor.irregular import IrregularTensor


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: its generator and its Table II provenance.

    ``paper=False`` marks extra workloads (e.g. the sparse synthetic) that
    ship alongside the paper's eight datasets but do not appear in
    Table II reports.
    """

    name: str
    summary: str
    paper_shape: tuple[int, int, int]  # (max Ik, J, K) from Table II
    build: Callable[[object], IrregularTensor]
    paper: bool = True


def _fma(random_state) -> IrregularTensor:
    return generate_audio_tensor(
        n_clips=80, min_frames=40, max_frames=100, n_fft=1024,
        random_state=random_state,
    )


def _urban(random_state) -> IrregularTensor:
    return generate_audio_tensor(
        n_clips=90, min_frames=15, max_frames=50, n_fft=1024,
        random_state=random_state,
    )


def _us_stock(random_state) -> IrregularTensor:
    market = generate_market(
        n_stocks=60, max_days=400, min_days=120,
        volume_coupled=True, random_state=random_state,
    )
    return standardize_features(market.tensor)


def _kr_stock(random_state) -> IrregularTensor:
    market = generate_market(
        n_stocks=50, max_days=320, min_days=100,
        volume_coupled=False, random_state=random_state,
    )
    return standardize_features(market.tensor)


def _activity(random_state) -> IrregularTensor:
    return generate_video_tensor(
        n_videos=40, n_features=64, min_frames=30, max_frames=110,
        random_state=random_state,
    )


def _action(random_state) -> IrregularTensor:
    return generate_video_tensor(
        n_videos=50, n_features=64, min_frames=40, max_frames=150,
        random_state=random_state,
    )


def _traffic(random_state) -> IrregularTensor:
    return generate_traffic_tensor(
        n_stations=100, n_timestamps=48, n_days=40, random_state=random_state
    )


def _pems_sf(random_state) -> IrregularTensor:
    return generate_traffic_tensor(
        n_stations=96, n_timestamps=72, n_days=40, random_state=random_state
    )


def _sparse_events(random_state) -> IrregularTensor:
    # EHR/clickstream-style workload: 98%-sparse CSR slices, skewed
    # heights.  Not a Table II dataset — it exercises the sparse stage-1
    # fast path the paper's real irregular tensors would take.
    return sparse_irregular_tensor(
        400, 64, 120, density=0.02, random_state=random_state
    )


#: Name → spec, in Table II's row order.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("fma", "music spectrograms", (704, 2049, 7997), _fma),
        DatasetSpec("urban", "urban sound spectrograms", (174, 2049, 8455), _urban),
        DatasetSpec("us_stock", "US stock features", (7883, 88, 4742), _us_stock),
        DatasetSpec("kr_stock", "Korea stock features", (5270, 88, 3664), _kr_stock),
        DatasetSpec("activity", "video activity features", (553, 570, 320), _activity),
        DatasetSpec("action", "video action features", (936, 570, 567), _action),
        DatasetSpec("traffic", "traffic volume", (2033, 96, 1084), _traffic),
        DatasetSpec("pems_sf", "freeway occupancy", (963, 144, 440), _pems_sf),
        DatasetSpec(
            "sparse", "sparse event log (CSR)", (400, 64, 120),
            _sparse_events, paper=False,
        ),
    )
}


#: Names of the Table II datasets, in row order — what the paper's
#: table/figure harnesses sweep.  Extra workloads (``paper=False``, e.g.
#: the CSR-native ``sparse`` dataset) are excluded: the baseline solvers
#: those harnesses compare against are dense-only.
PAPER_DATASET_NAMES: tuple[str, ...] = tuple(
    name for name, spec in DATASETS.items() if spec.paper
)


def load_dataset(name: str, random_state=None) -> IrregularTensor:
    """Generate the named dataset (see :data:`DATASETS` for choices).

    Generation runs inside a ``data.generate`` span (attrs: ``dataset``,
    and ``slices`` once built), so a traced run shows what it spent on its
    input next to the decomposition.
    """
    key = name.lower().replace("-", "_")
    if key not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(DATASETS))}"
        )
    with trace.span("data.generate", dataset=key) as span:
        tensor = DATASETS[key].build(random_state)
        span.annotate(slices=tensor.n_slices)
    return tensor
