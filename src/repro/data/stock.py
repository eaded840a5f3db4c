"""Synthetic stock-market generator (US Stock / Korea Stock analogues).

Each stock is a ``(listing_days, 88)`` matrix — 5 basic OHLCV features and
83 technical indicators (:mod:`repro.data.indicators`) — and the market is
the irregular tensor of those matrices, exactly the shape of the paper's
stock datasets (Table II).

Structure the generator controls, because the algorithms react to it:

* **Irregularity profile**: listing periods follow the long-tailed sorted
  curve of Fig. 8 (many short-listed stocks, few long-listed ones).
* **Cross-stock correlation**: log-returns mix a market factor and one of a
  few *sector* factors with idiosyncratic noise, so slices share latent
  structure (what makes PARAFAC2 meaningful, and what Table III's
  similarity analysis detects).
* **Market personality**: the US-vs-Korea contrast of Fig. 12 is emulated
  by two parameter sets — the "US-like" market couples volume flow with
  price trends (OBV/ATR correlate with prices) while the "KR-like" market
  draws volume independently of returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.data.indicators import compute_feature_matrix, feature_names
from repro.tensor.irregular import IrregularTensor
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

#: Sector labels used for the synthetic universe (Table III's column).
SECTORS = (
    "Technology",
    "Financial Services",
    "Consumer Cyclical",
    "Communication Services",
    "Healthcare",
    "Energy",
)


@dataclass
class StockMarket:
    """A generated market: the irregular tensor plus per-stock metadata."""

    tensor: IrregularTensor
    tickers: list[str]
    sectors: list[str]
    listing_lengths: list[int] = field(default_factory=list)

    @property
    def feature_names(self) -> list[str]:
        return feature_names()

    def index_of(self, ticker: str) -> int:
        try:
            return self.tickers.index(ticker)
        except ValueError as exc:
            raise KeyError(f"unknown ticker {ticker!r}") from exc


def listing_length_profile(
    n_stocks: int,
    max_days: int,
    min_days: int,
    random_state=None,
) -> np.ndarray:
    """Long-tailed listing periods mimicking Fig. 8's sorted-length curve.

    Lengths are drawn from a Beta(1, 3) over ``[min_days, max_days]`` — a
    small fraction of stocks listed for (near) the whole window, most far
    shorter — then clipped to the bounds.
    """
    check_positive_int(n_stocks, "n_stocks")
    if min_days < 1 or min_days > max_days:
        raise ValueError(
            f"need 1 <= min_days <= max_days, got {min_days}, {max_days}"
        )
    rng = as_generator(random_state)
    raw = rng.beta(1.0, 3.0, size=n_stocks)
    lengths = min_days + np.round(raw * (max_days - min_days)).astype(int)
    # Ensure at least one stock spans the full window (the "index" members).
    lengths[rng.integers(0, n_stocks)] = max_days
    return np.clip(lengths, min_days, max_days)


def generate_market(
    n_stocks: int = 60,
    max_days: int = 400,
    min_days: int = 120,
    *,
    volume_coupled: bool = True,
    n_market_factors: int = 2,
    sector_ids=None,
    random_state=None,
) -> StockMarket:
    """Generate a synthetic market as an irregular tensor of 88-feature slices.

    Parameters
    ----------
    n_stocks:
        Number of stocks ``K``.
    max_days / min_days:
        Bounds on the listing period (slice row counts ``Ik``).
    volume_coupled:
        True for the "US-like" regime — trading volume responds to price
        moves, so OBV/ATR correlate positively with price features
        (Fig. 12(a)); False for the "KR-like" regime where volume is drawn
        independently (Fig. 12(b)).
    n_market_factors:
        Number of global return factors shared by all stocks.
    sector_ids:
        Optional explicit sector index per stock (into :data:`SECTORS`);
        drawn uniformly at random when omitted.
    random_state:
        Seed or generator.

    Notes
    -----
    All stocks' return series are generated over a common calendar of
    ``max_days`` days and each stock keeps its trailing ``Ik`` days, so
    co-listed stocks share the factor history — the property the Table III
    similarity search relies on.
    """
    check_positive_int(n_stocks, "n_stocks")
    rng = as_generator(random_state)
    lengths = listing_length_profile(n_stocks, max_days, min_days, rng)

    n_sectors = len(SECTORS)
    if sector_ids is not None:
        sector_ids = [int(s) for s in sector_ids]
        if len(sector_ids) != n_stocks:
            raise ValueError(
                f"sector_ids has {len(sector_ids)} entries for {n_stocks} stocks"
            )
        if any(not 0 <= s < n_sectors for s in sector_ids):
            raise ValueError(f"sector ids must be in [0, {n_sectors})")
    market_factors = 0.01 * rng.standard_normal((max_days, n_market_factors))
    sector_factors = 0.012 * rng.standard_normal((max_days, n_sectors))

    slices: list[np.ndarray] = []
    tickers: list[str] = []
    sectors: list[str] = []
    for idx in range(n_stocks):
        if sector_ids is None:
            sector_id = int(rng.integers(0, n_sectors))
        else:
            sector_id = sector_ids[idx]
        beta_market = rng.uniform(0.5, 1.5, size=n_market_factors)
        beta_sector = rng.uniform(0.6, 1.4)
        idio = 0.01 * rng.standard_normal(max_days)
        drift = rng.uniform(-2e-4, 6e-4)
        returns = (
            market_factors @ beta_market
            + beta_sector * sector_factors[:, sector_id]
            + idio
            + drift
        )

        T = int(lengths[idx])
        window = returns[max_days - T :]
        close = float(rng.uniform(20.0, 300.0)) * np.exp(np.cumsum(window))

        base_volume = float(rng.uniform(1e5, 5e6))
        if volume_coupled:
            # US-like regime (Fig. 12(a)): both the intraday range (→ ATR)
            # and the trading volume (→ OBV) surge with price moves, tying
            # the two indicators to the price features.
            intraday = 0.004 + 0.8 * np.abs(window) + 0.5 * np.clip(window, 0, None)
            surge = 1.0 + 8.0 * np.abs(window) + 4.0 * np.clip(window, 0, None)
            volume = base_volume * surge * rng.lognormal(0.0, 0.15, T)
        else:
            # KR-like regime (Fig. 12(b)): the intraday range follows an
            # independent mean-reverting volatility process and volume is
            # drawn i.i.d. — ATR and OBV decouple from the price features.
            intraday = 0.01 * np.exp(0.8 * _log_volatility(rng, T))
            # Heavy-tailed i.i.d. volume: OBV becomes dominated by a few
            # huge random days and decouples from the price trend.
            volume = base_volume * rng.lognormal(0.0, 2.0, T)
        high = close * (1.0 + intraday * rng.uniform(0.5, 1.0, T))
        low = close * (1.0 - intraday * rng.uniform(0.5, 1.0, T))
        open_ = low + (high - low) * rng.random(T)

        ohlcv = np.column_stack([open_, high, low, close, volume])
        slices.append(compute_feature_matrix(ohlcv))
        tickers.append(f"STK{idx:04d}")
        sectors.append(SECTORS[sector_id])

    return StockMarket(
        tensor=IrregularTensor(slices, copy=False),
        tickers=tickers,
        sectors=sectors,
        listing_lengths=[int(t) for t in lengths],
    )


def _log_volatility(rng: np.random.Generator, T: int) -> np.ndarray:
    """The KR-like regime's mean-reverting log-volatility over ``T`` days.

    ``x[0] = z[0]`` and ``x[t] = 0.95·x[t−1] + 0.3·z[t]`` for standard
    normals ``z``.  The ``T`` normals come from one vector draw, which
    reads the same stream — and leaves ``rng`` at the same position — as
    ``T`` scalar draws; the recurrence runs on Python floats.
    """
    z = rng.standard_normal(T).tolist()
    return np.array(list(accumulate(z[1:], lambda x, zt: 0.95 * x + 0.3 * zt, initial=z[0])))


def standardize_features(
    tensor: IrregularTensor, *, per_slice: bool = True
) -> IrregularTensor:
    """Z-score every feature column, per slice by default.

    Raw stock features mix scales (prices ~1e2, volumes ~1e6, oscillators
    ~1e1); decompositions of the raw tensor would only model volume.
    Per-slice standardization additionally removes per-stock price levels so
    the latent factors capture temporal *patterns* — required for the
    Fig. 12 feature-correlation analysis to be about co-movement rather
    than scale.  Set ``per_slice=False`` for a single global z-score.
    """
    if per_slice:
        normalized = []
        for Xk in tensor.slices:
            mean = Xk.mean(axis=0)
            std = Xk.std(axis=0)
            std = np.where(std > 0, std, 1.0)
            normalized.append((Xk - mean) / std)
        return IrregularTensor(normalized, copy=False)
    stacked = np.concatenate(list(tensor.slices), axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return IrregularTensor(
        [(Xk - mean) / std for Xk in tensor.slices], copy=False
    )


def named_universe(
    tickers_with_sectors: dict[str, str],
    max_days: int = 320,
    *,
    random_state=None,
) -> StockMarket:
    """A market whose stocks carry caller-chosen names and sectors.

    Used by the Table III experiment to build a recognizable universe (a
    "Microsoft"-like target among technology peers).  All stocks span the
    full window so pairwise ``Uk`` distances are defined for every pair,
    mirroring the paper's same-range restriction.
    """
    if not tickers_with_sectors:
        raise ValueError("need at least one ticker")
    rng = as_generator(random_state)
    sector_lookup = {name: idx for idx, name in enumerate(SECTORS)}
    try:
        sector_ids = [sector_lookup[s] for s in tickers_with_sectors.values()]
    except KeyError as exc:
        raise ValueError(
            f"unknown sector {exc.args[0]!r}; choose from {SECTORS}"
        ) from exc
    market = generate_market(
        n_stocks=len(tickers_with_sectors),
        max_days=max_days,
        min_days=max_days,
        volume_coupled=True,
        sector_ids=sector_ids,
        random_state=rng,
    )
    market.tickers = list(tickers_with_sectors.keys())
    market.sectors = list(tickers_with_sectors.values())
    return market
