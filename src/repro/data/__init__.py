"""Synthetic equivalents of the paper's eight real-world datasets.

The paper evaluates on FMA, Urban Sound, US/Korea Stock, Activity, Action,
Traffic, and PEMS-SF (Table II).  Those corpora are not redistributable, so
this package generates synthetic datasets with matching *structure* — the
properties the algorithms actually react to: slice shapes, the irregularity
profile (Fig. 8), density, and approximate low-rank spectral decay.

* :mod:`repro.data.indicators` — 83 parameterized technical indicators, the
  feature set of the stock datasets.
* :mod:`repro.data.stock` — OHLCV market simulator with sector factors and
  long-tailed listing periods.
* :mod:`repro.data.audio` — harmonic-tone synthesizer + from-scratch STFT
  producing log-power spectrograms (FMA / Urban analogues).
* :mod:`repro.data.video` — smooth latent-walk feature matrices (Activity /
  Action analogues).
* :mod:`repro.data.traffic` — periodic sensor tensors (Traffic / PEMS-SF).
* :mod:`repro.data.registry` — Table II in code: named dataset constructors
  with paper-shaped (scaled) dimensions.
"""

from repro.data.registry import DATASETS, DatasetSpec, load_dataset

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
]
