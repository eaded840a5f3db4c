"""Technical indicators for the stock datasets.

The paper's stock tensors have 88 features per day: 5 basic features (open,
high, low, close, volume) and 83 technical indicators computed from them
(Section IV-A).  This module implements the classic indicator families the
paper names — OBV, ATR, MACD, STOCH (Section IV-E) — plus the standard kit
(SMA/EMA/WMA, RSI, Bollinger, ROC, CCI, Williams %R, momentum, TRIX, …),
parameterized over window lengths to yield exactly 83 derived series.

All functions take 1-D numpy arrays of equal length and return an array of
the same length, defined at every position (so downstream tensors stay
dense, as the paper's datasets are).  Leading positions with less history
than the window are filled as follows:

* windowed statistics use an expanding window over the available prefix:
  SMA, WMA, rolling std (hence Bollinger bands), CCI, MFI and the
  stochastic oscillator (hence Williams %R);
* momentum is the change since the first close, ``c[:w] − c[0]``;
* ROC is zero over its first ``w`` positions, and TRIX at the first;
* the recursive smoothers (EMA, hence MACD, and the Wilder averages of ATR
  and RSI) start from the first value and need no fill.

How the series are computed
---------------------------
Every value equals the per-position definition — one window or one step of
a recurrence at a time — bit for bit; ``tests/test_data_indicators.py``
keeps those definitions as oracles and compares bytes.  The arithmetic
that makes that hold:

* **windows, all positions at once.**  A windowed statistic is computed
  for every full window in one step, on the rows of a C-contiguous copy of
  the sliding-window view (:func:`_full_windows`).  Max and min are exact
  in any order; a row's sum and mean go through the same pairwise
  summation as the per-window ``segment.sum()``.  SMA and the rolling std
  are differences of one running sum and need no window copy.  Only the
  warm-up prefix, whose expanding windows are shorter than ``w``, is
  looped over — and only where each prefix needs a sum of its own length
  (CCI, MFI, WMA's BLAS dot product).
* **recurrences on plain floats.**  EMA and the Wilder averages run their
  one-step recurrence (:func:`_smooth`) over ``tolist()`` values: Python
  floats are IEEE doubles, so each step rounds exactly as the same step
  on numpy scalars.

:func:`compute_indicator_matrix` validates its OHLCV block once, then
computes each distinct series once per stock through the unvalidated
kernels behind the public functions and reuses it (Williams %R from %K,
Bollinger bands from the SMA and rolling-std columns, each MACD signal
from its MACD line, ATR from the true range).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _as_series(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or Inf")
    return array


def _check_window(window: int, length: int) -> int:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return min(int(window), length)


def _full_windows(x: np.ndarray, w: int) -> np.ndarray:
    """The ``x.size − w + 1`` full windows of ``x`` as rows of a C-contiguous copy.

    A contiguous row reduces exactly as the 1-D window slice would: the
    same pairwise summation, in the same order.
    """
    return np.ascontiguousarray(sliding_window_view(x, w))


def _window_extreme(x: np.ndarray, w: int, extreme: np.ufunc) -> np.ndarray:
    """Max or min (``np.maximum``/``np.minimum``) over each trailing window.

    Warm-up positions take the extreme of the prefix; both are exact.
    """
    out = np.empty_like(x)
    out[: w - 1] = extreme.accumulate(x[: w - 1])
    out[w - 1 :] = extreme.reduce(sliding_window_view(x, w), axis=1)
    return out


def _window_sums(x: np.ndarray, w: int) -> np.ndarray:
    """Sum over each trailing window, the warm-up over the available prefix."""
    out = np.empty_like(x)
    for i in range(w - 1):
        out[i] = x[: i + 1].sum()
    out[w - 1 :] = _full_windows(x, w).sum(axis=1)
    return out


def _smooth(x: np.ndarray, alpha: float) -> np.ndarray:
    """``y[0] = x[0]``, ``y[i] = alpha·x[i] + (1 − alpha)·y[i−1]``."""
    beta = 1.0 - alpha
    return np.array(list(accumulate(x.tolist(), lambda y, v: alpha * v + beta * y)))


# --------------------------------------------------------------------- #
# moving averages
# --------------------------------------------------------------------- #
#
# Each public indicator validates its inputs (:func:`_as_series`) and
# calls an unvalidated kernel of the same name with a leading underscore;
# :func:`compute_indicator_matrix` validates its OHLCV block once and calls
# the kernels directly.

def _sma(x: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, x.size)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    out[w - 1:] = (csum[w:] - csum[:-w]) / w
    # Warm-up: expanding mean over the available prefix.
    out[: w - 1] = csum[1:w] / np.arange(1, w)
    return out


def sma(values, window: int) -> np.ndarray:
    """Simple moving average over ``window`` periods."""
    return _sma(_as_series(values, "values"), window)


def _ema(x: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, x.size)
    return _smooth(x, 2.0 / (w + 1.0))


def ema(values, window: int) -> np.ndarray:
    """Exponential moving average with smoothing ``2/(window+1)``."""
    return _ema(_as_series(values, "values"), window)


def _wma(x: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, x.size)
    weights = np.arange(1, w + 1, dtype=np.float64)
    weights /= weights.sum()
    full = np.convolve(x, weights[::-1], mode="valid")
    out = np.empty_like(x)
    out[w - 1:] = full
    # Warm-up: one BLAS dot product per prefix, which fixes its summation
    # order; the weight sum 1 + … + (i+1) is an exact integer.
    ramp = np.arange(1, w, dtype=np.float64)
    for i in range(w - 1):
        out[i] = float(x[: i + 1] @ ramp[: i + 1]) / ((i + 1) * (i + 2) // 2)
    return out


def wma(values, window: int) -> np.ndarray:
    """Linearly weighted moving average (recent periods weigh more)."""
    return _wma(_as_series(values, "values"), window)


# --------------------------------------------------------------------- #
# the four indicators the paper analyzes in Fig. 12
# --------------------------------------------------------------------- #

def _obv(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    direction = np.zeros_like(c)
    direction[1:] = np.sign(np.diff(c))
    return np.cumsum(direction * v)


def obv(close, volume) -> np.ndarray:
    """On-Balance Volume: cumulative volume signed by the close-to-close move."""
    c = _as_series(close, "close")
    v = _as_series(volume, "volume")
    if c.size != v.size:
        raise ValueError(f"close and volume lengths differ: {c.size} vs {v.size}")
    return _obv(c, v)


def _true_range(h: np.ndarray, l: np.ndarray, c: np.ndarray) -> np.ndarray:
    prev_close = np.concatenate([[c[0]], c[:-1]])
    return np.maximum.reduce(
        [h - l, np.abs(h - prev_close), np.abs(l - prev_close)]
    )


def true_range(high, low, close) -> np.ndarray:
    """True range: max of (H−L, |H−prevC|, |L−prevC|)."""
    h = _as_series(high, "high")
    l = _as_series(low, "low")
    c = _as_series(close, "close")
    if not (h.size == l.size == c.size):
        raise ValueError("high, low, close must have equal lengths")
    return _true_range(h, l, c)


def _atr(tr: np.ndarray, window: int) -> np.ndarray:
    """Wilder smoothing of a true-range series."""
    return _smooth(tr, 1.0 / _check_window(window, tr.size))


def atr(high, low, close, window: int = 14) -> np.ndarray:
    """Average True Range (Wilder): EMA-smoothed true range — a volatility gauge."""
    return _atr(true_range(high, low, close), window)


def _macd(c: np.ndarray, fast: int, slow: int) -> np.ndarray:
    return _ema(c, fast) - _ema(c, slow)


def macd(close, fast: int = 12, slow: int = 26) -> np.ndarray:
    """MACD line (Appel): fast EMA minus slow EMA of the close — a trend gauge."""
    if fast >= slow:
        raise ValueError(f"fast window ({fast}) must be below slow ({slow})")
    return _macd(_as_series(close, "close"), fast, slow)


def macd_signal(close, fast: int = 12, slow: int = 26, signal: int = 9) -> np.ndarray:
    """Signal line: EMA of the MACD line."""
    return _ema(macd(close, fast, slow), signal)


def _stochastic(h: np.ndarray, l: np.ndarray, c: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, c.size)
    window_low = _window_extreme(l, w, np.minimum)
    span = _window_extreme(h, w, np.maximum) - window_low
    flat = span == 0
    out = 100.0 * (c - window_low) / np.where(flat, 1.0, span)
    out[flat] = 50.0
    return out


def stochastic_oscillator(high, low, close, window: int = 14) -> np.ndarray:
    """Stochastic %K (Lane): close position within the recent high-low range.

    Momentum gauge in [0, 100]; flat windows (high == low) map to 50.
    """
    return _stochastic(
        _as_series(high, "high"), _as_series(low, "low"), _as_series(close, "close"), window
    )


# --------------------------------------------------------------------- #
# the broader standard kit
# --------------------------------------------------------------------- #

def _rsi(c: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, c.size)
    delta = np.diff(c, prepend=c[0])
    avg_gain = _smooth(np.clip(delta, 0.0, None), 1.0 / w)
    avg_loss = _smooth(np.clip(-delta, 0.0, None), 1.0 / w)
    denom = avg_gain + avg_loss
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, 100.0 * avg_gain / np.where(denom > 0, denom, 1.0), 50.0)
    return out


def rsi(close, window: int = 14) -> np.ndarray:
    """Relative Strength Index in [0, 100] with Wilder smoothing."""
    return _rsi(_as_series(close, "close"), window)


def _momentum(c: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, c.size)
    out = np.empty_like(c)
    out[w:] = c[w:] - c[:-w]
    out[:w] = c[:w] - c[0]
    return out


def momentum(close, window: int = 10) -> np.ndarray:
    """Price change over ``window`` periods."""
    return _momentum(_as_series(close, "close"), window)


def _rate_of_change(c: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, c.size)
    out = np.empty_like(c)
    base = np.where(c[:-w] != 0, c[:-w], 1.0)
    out[w:] = 100.0 * (c[w:] - c[:-w]) / base
    out[:w] = 0.0
    return out


def rate_of_change(close, window: int = 10) -> np.ndarray:
    """Percentage price change over ``window`` periods."""
    return _rate_of_change(_as_series(close, "close"), window)


def bollinger_bands(close, window: int = 20, n_std: float = 2.0):
    """Bollinger (middle, upper, lower) bands: SMA ± n_std rolling stdevs."""
    c = _as_series(close, "close")
    w = _check_window(window, c.size)
    middle = _sma(c, w)
    std = _rolling_std(c, w)
    return middle, middle + n_std * std, middle - n_std * std


def _rolling_std(x: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, x.size)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    csum_sq = np.concatenate([[0.0], np.cumsum(x * x)])
    end = np.arange(1, x.size + 1)
    start = np.maximum(end - w, 0)
    n = end - start
    mean = (csum[end] - csum[start]) / n
    mean_sq = (csum_sq[end] - csum_sq[start]) / n
    return np.sqrt(np.maximum(mean_sq - mean * mean, 0.0))


def rolling_std(values, window: int) -> np.ndarray:
    """Rolling population standard deviation with expanding warm-up."""
    return _rolling_std(_as_series(values, "values"), window)


def _cci(h: np.ndarray, l: np.ndarray, c: np.ndarray, window: int) -> np.ndarray:
    w = _check_window(window, c.size)
    typical = (h + l + c) / 3.0
    mean = np.empty_like(c)
    mad = np.empty_like(c)
    for i in range(w - 1):  # warm-up: expanding windows
        segment = typical[: i + 1]
        mean[i] = segment.mean()
        mad[i] = np.abs(segment - mean[i]).mean()
    windows = _full_windows(typical, w)
    mean[w - 1 :] = windows.mean(axis=1)
    mad[w - 1 :] = np.abs(windows - mean[w - 1 :, None]).mean(axis=1)
    flat = mad == 0
    out = (typical - mean) / (0.015 * np.where(flat, 1.0, mad))
    out[flat] = 0.0
    return out


def cci(high, low, close, window: int = 20) -> np.ndarray:
    """Commodity Channel Index: typical-price deviation / mean abs deviation."""
    return _cci(
        _as_series(high, "high"), _as_series(low, "low"), _as_series(close, "close"), window
    )


def williams_r(high, low, close, window: int = 14) -> np.ndarray:
    """Williams %R in [−100, 0]: inverse of the stochastic oscillator."""
    return stochastic_oscillator(high, low, close, window) - 100.0


def _trix(c: np.ndarray, window: int) -> np.ndarray:
    triple = _ema(_ema(_ema(c, window), window), window)
    out = np.zeros_like(c)
    base = np.where(triple[:-1] != 0, triple[:-1], 1.0)
    out[1:] = 100.0 * (triple[1:] - triple[:-1]) / base
    return out


def trix(close, window: int = 15) -> np.ndarray:
    """TRIX: 1-period percent ROC of a triple-smoothed EMA."""
    return _trix(_as_series(close, "close"), window)


def _mfi(
    h: np.ndarray, l: np.ndarray, c: np.ndarray, v: np.ndarray, window: int
) -> np.ndarray:
    w = _check_window(window, c.size)
    typical = (h + l + c) / 3.0
    flow = typical * v
    direction = np.zeros_like(c)
    direction[1:] = np.sign(np.diff(typical))
    p = _window_sums(np.where(direction > 0, flow, 0.0), w)
    total = p + _window_sums(np.where(direction < 0, flow, 0.0), w)
    idle = total == 0
    out = 100.0 * p / np.where(idle, 1.0, total)
    out[idle] = 50.0
    return out


def mfi(high, low, close, volume, window: int = 14) -> np.ndarray:
    """Money Flow Index: volume-weighted RSI of the typical price."""
    return _mfi(
        _as_series(high, "high"),
        _as_series(low, "low"),
        _as_series(close, "close"),
        _as_series(volume, "volume"),
        window,
    )


def _price_volume_trend(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    change = np.zeros_like(c)
    base = np.where(c[:-1] != 0, c[:-1], 1.0)
    change[1:] = (c[1:] - c[:-1]) / base
    return np.cumsum(change * v)


def price_volume_trend(close, volume) -> np.ndarray:
    """PVT: cumulative volume scaled by fractional price change."""
    return _price_volume_trend(_as_series(close, "close"), _as_series(volume, "volume"))


# --------------------------------------------------------------------- #
# the 83-indicator feature block
# --------------------------------------------------------------------- #

#: Window grids chosen so the derived feature count is exactly 83, matching
#: the paper's "5 basic features and 83 technical indicators".
_SMA_WINDOWS = (5, 10, 20, 30, 60, 90, 120)
_EMA_WINDOWS = (5, 10, 20, 30, 60, 90, 120)
_WMA_WINDOWS = (5, 10, 20, 30, 60, 90, 120)
_RSI_WINDOWS = (7, 14, 21, 28)
_ATR_WINDOWS = (7, 14, 21, 28)
_STOCH_WINDOWS = (7, 14, 21, 28)
_MOMENTUM_WINDOWS = (5, 10, 20, 30, 60)
_ROC_WINDOWS = (5, 10, 20, 30, 60)
_CCI_WINDOWS = (10, 20, 30, 40)
_WILLIAMS_WINDOWS = (7, 14, 21, 28)
_TRIX_WINDOWS = (9, 15, 21)
_MFI_WINDOWS = (7, 14, 21, 28)
_BOLLINGER_WINDOWS = (10, 20, 30, 40)
_STD_WINDOWS = (10, 20, 30, 40)
_MACD_PARAMS = ((12, 26), (5, 35), (8, 17))
_MACD_SIGNAL_PARAMS = ((12, 26, 9), (5, 35, 5), (8, 17, 9))
_VOLUME_SMA_WINDOWS = (5, 10, 20, 60)


def indicator_names() -> list[str]:
    """The 83 derived feature names, in column order."""
    names: list[str] = []
    names += [f"sma_{w}" for w in _SMA_WINDOWS]
    names += [f"ema_{w}" for w in _EMA_WINDOWS]
    names += [f"wma_{w}" for w in _WMA_WINDOWS]
    names += [f"rsi_{w}" for w in _RSI_WINDOWS]
    names += [f"atr_{w}" for w in _ATR_WINDOWS]
    names += [f"stoch_{w}" for w in _STOCH_WINDOWS]
    names += [f"momentum_{w}" for w in _MOMENTUM_WINDOWS]
    names += [f"roc_{w}" for w in _ROC_WINDOWS]
    names += [f"cci_{w}" for w in _CCI_WINDOWS]
    names += [f"williams_r_{w}" for w in _WILLIAMS_WINDOWS]
    names += [f"trix_{w}" for w in _TRIX_WINDOWS]
    names += [f"mfi_{w}" for w in _MFI_WINDOWS]
    for w in _BOLLINGER_WINDOWS:
        names += [f"boll_upper_{w}", f"boll_lower_{w}"]
    names += [f"std_{w}" for w in _STD_WINDOWS]
    names += [f"macd_{f}_{s}" for f, s in _MACD_PARAMS]
    names += [f"macd_signal_{f}_{s}_{g}" for f, s, g in _MACD_SIGNAL_PARAMS]
    names += [f"volume_sma_{w}" for w in _VOLUME_SMA_WINDOWS]
    names += ["obv", "pvt", "true_range"]
    return names


#: Names of the 5 basic features that precede the indicators.
BASIC_FEATURE_NAMES = ["open", "high", "low", "close", "volume"]


def compute_indicator_matrix(ohlcv: np.ndarray) -> np.ndarray:
    """All 83 indicators for one stock.

    Parameters
    ----------
    ohlcv:
        ``(T, 5)`` array with columns open, high, low, close, volume.

    Returns
    -------
    ``(T, 83)`` array, columns ordered as :func:`indicator_names`.

    Raises
    ------
    ValueError
        If ``ohlcv`` is not ``(T, 5)`` with ``T >= 1``, or any of its five
        columns holds a NaN or an infinity.
    """
    data = np.asarray(ohlcv, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != 5:
        raise ValueError(f"ohlcv must be (T, 5), got {data.shape}")
    if data.shape[0] == 0:
        raise ValueError("ohlcv must be non-empty")
    # The whole block once (the open column too, which no indicator
    # reads); the kernels below take the columns unvalidated, as the
    # contiguous copies _as_series would make.
    if not np.isfinite(data).all():
        raise ValueError("ohlcv contains NaN or Inf")
    h, l, c, v = (np.ascontiguousarray(data[:, i]) for i in (1, 2, 3, 4))

    # Series that several column families share are computed once: %K
    # (Williams %R), the SMA and rolling std (Bollinger bands), the MACD
    # line (its signal) and the true range (ATR).  Same inputs, so the
    # same bits.
    sma_c = {w: _sma(c, w) for w in _SMA_WINDOWS + _BOLLINGER_WINDOWS}
    std_c = {w: _rolling_std(c, w) for w in _STD_WINDOWS + _BOLLINGER_WINDOWS}
    stoch = {w: _stochastic(h, l, c, w) for w in _STOCH_WINDOWS + _WILLIAMS_WINDOWS}
    macd_line = {
        (f, s): _macd(c, f, s)
        for f, s in _MACD_PARAMS + tuple(p[:2] for p in _MACD_SIGNAL_PARAMS)
    }
    tr = _true_range(h, l, c)

    columns: list[np.ndarray] = []
    columns += [sma_c[w] for w in _SMA_WINDOWS]
    columns += [_ema(c, w) for w in _EMA_WINDOWS]
    columns += [_wma(c, w) for w in _WMA_WINDOWS]
    columns += [_rsi(c, w) for w in _RSI_WINDOWS]
    columns += [_atr(tr, w) for w in _ATR_WINDOWS]
    columns += [stoch[w] for w in _STOCH_WINDOWS]
    columns += [_momentum(c, w) for w in _MOMENTUM_WINDOWS]
    columns += [_rate_of_change(c, w) for w in _ROC_WINDOWS]
    columns += [_cci(h, l, c, w) for w in _CCI_WINDOWS]
    columns += [stoch[w] - 100.0 for w in _WILLIAMS_WINDOWS]
    columns += [_trix(c, w) for w in _TRIX_WINDOWS]
    columns += [_mfi(h, l, c, v, w) for w in _MFI_WINDOWS]
    for w in _BOLLINGER_WINDOWS:
        # bollinger_bands(c, w) at its default n_std=2.0.
        columns += [sma_c[w] + 2.0 * std_c[w], sma_c[w] - 2.0 * std_c[w]]
    columns += [std_c[w] for w in _STD_WINDOWS]
    columns += [macd_line[f, s] for f, s in _MACD_PARAMS]
    columns += [_ema(macd_line[f, s], g) for f, s, g in _MACD_SIGNAL_PARAMS]
    columns += [_sma(v, w) for w in _VOLUME_SMA_WINDOWS]
    columns += [_obv(c, v), _price_volume_trend(c, v), tr]

    matrix = np.column_stack(columns)
    expected = len(indicator_names())
    if matrix.shape[1] != expected:
        raise AssertionError(
            f"indicator count drifted: built {matrix.shape[1]}, expected {expected}"
        )
    return matrix


def compute_feature_matrix(ohlcv: np.ndarray) -> np.ndarray:
    """The full 88-feature stock matrix: 5 basic columns + 83 indicators."""
    data = np.asarray(ohlcv, dtype=np.float64)
    return np.column_stack([data, compute_indicator_matrix(data)])


def feature_names() -> list[str]:
    """All 88 feature names (basic + indicators), in column order."""
    return BASIC_FEATURE_NAMES + indicator_names()
