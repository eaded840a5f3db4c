"""Tests for the technical-indicator library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import indicators as ind
from repro.data import stock
from repro.data.registry import load_dataset
from repro.data.stock import _log_volatility


@pytest.fixture
def ohlcv(rng):
    T = 120
    returns = 0.01 * rng.standard_normal(T)
    close = 100.0 * np.exp(np.cumsum(returns))
    spread = 0.01 * close * (1 + rng.random(T))
    high = close + spread * rng.random(T)
    low = close - spread * rng.random(T)
    open_ = low + (high - low) * rng.random(T)
    volume = rng.uniform(1e5, 1e6, T)
    return np.column_stack([open_, high, low, close, volume])


class TestMovingAverages:
    def test_sma_constant_series(self):
        np.testing.assert_allclose(ind.sma(np.full(20, 7.0), 5), 7.0)

    def test_sma_matches_naive(self, rng):
        x = rng.standard_normal(50)
        out = ind.sma(x, 7)
        for i in range(6, 50):
            assert out[i] == pytest.approx(x[i - 6 : i + 1].mean())

    def test_sma_warmup_is_expanding_mean(self, rng):
        x = rng.standard_normal(20)
        out = ind.sma(x, 10)
        assert out[0] == pytest.approx(x[0])
        assert out[3] == pytest.approx(x[:4].mean())

    def test_ema_constant_series(self):
        np.testing.assert_allclose(ind.ema(np.full(15, 3.0), 4), 3.0)

    def test_ema_recursion(self, rng):
        x = rng.standard_normal(10)
        out = ind.ema(x, 4)
        alpha = 2.0 / 5.0
        expected = x[0]
        for i in range(1, 10):
            expected = alpha * x[i] + (1 - alpha) * expected
            assert out[i] == pytest.approx(expected)

    def test_wma_weights_recent_more(self):
        # Rising series: WMA should exceed SMA because recent values weigh more.
        x = np.arange(30, dtype=float)
        assert ind.wma(x, 10)[-1] > ind.sma(x, 10)[-1]

    def test_wma_matches_naive(self, rng):
        x = rng.standard_normal(30)
        out = ind.wma(x, 5)
        w = np.arange(1, 6, dtype=float)
        w /= w.sum()
        for i in range(4, 30):
            assert out[i] == pytest.approx(float(x[i - 4 : i + 1] @ w))

    def test_window_one_is_identity(self, rng):
        x = rng.standard_normal(10)
        np.testing.assert_allclose(ind.sma(x, 1), x)
        np.testing.assert_allclose(ind.wma(x, 1), x)

    def test_window_larger_than_series_clipped(self, rng):
        x = rng.standard_normal(5)
        out = ind.sma(x, 50)
        assert out.shape == x.shape

    def test_invalid_window(self, rng):
        with pytest.raises(ValueError, match="window"):
            ind.sma(rng.standard_normal(5), 0)


class TestPaperIndicators:
    """OBV, ATR, MACD, STOCH — the four analyzed in Fig. 12."""

    def test_obv_accumulates_signed_volume(self):
        close = np.array([10.0, 11.0, 10.5, 10.5, 12.0])
        volume = np.array([100.0, 200.0, 300.0, 400.0, 500.0])
        out = ind.obv(close, volume)
        np.testing.assert_allclose(out, [0.0, 200.0, -100.0, -100.0, 400.0])

    def test_obv_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            ind.obv(np.ones(3), np.ones(4))

    def test_true_range_dominates_high_low(self, ohlcv):
        tr = ind.true_range(ohlcv[:, 1], ohlcv[:, 2], ohlcv[:, 3])
        assert np.all(tr >= ohlcv[:, 1] - ohlcv[:, 2] - 1e-12)

    def test_atr_positive(self, ohlcv):
        atr = ind.atr(ohlcv[:, 1], ohlcv[:, 2], ohlcv[:, 3])
        assert np.all(atr > 0)

    def test_atr_tracks_volatility_level(self, rng):
        quiet = ind.atr(
            np.full(50, 101.0), np.full(50, 99.0), np.full(50, 100.0)
        )
        wild = ind.atr(
            np.full(50, 110.0), np.full(50, 90.0), np.full(50, 100.0)
        )
        assert wild[-1] > quiet[-1]

    def test_macd_zero_on_constant_series(self):
        np.testing.assert_allclose(ind.macd(np.full(60, 5.0)), 0.0, atol=1e-12)

    def test_macd_positive_in_uptrend(self):
        close = np.exp(np.linspace(0, 1, 100))
        assert ind.macd(close)[-1] > 0

    def test_macd_fast_slow_order_enforced(self):
        with pytest.raises(ValueError, match="below"):
            ind.macd(np.ones(50), fast=26, slow=12)

    def test_macd_signal_smooths_macd(self, ohlcv):
        close = ohlcv[:, 3]
        line = ind.macd(close)
        signal = ind.macd_signal(close)
        assert np.std(np.diff(signal)) <= np.std(np.diff(line)) + 1e-12

    def test_stoch_bounds(self, ohlcv):
        out = ind.stochastic_oscillator(ohlcv[:, 1], ohlcv[:, 2], ohlcv[:, 3])
        assert np.all(out >= 0.0) and np.all(out <= 100.0)

    def test_stoch_flat_window_is_50(self):
        out = ind.stochastic_oscillator(
            np.full(10, 5.0), np.full(10, 5.0), np.full(10, 5.0)
        )
        np.testing.assert_allclose(out, 50.0)

    def test_stoch_at_window_high(self):
        high = np.array([10.0, 12.0, 14.0])
        low = np.array([8.0, 9.0, 10.0])
        close = high.copy()  # closes at the top of the range
        out = ind.stochastic_oscillator(high, low, close, window=3)
        assert out[-1] == pytest.approx(100.0)


class TestOscillators:
    def test_rsi_bounds(self, ohlcv):
        out = ind.rsi(ohlcv[:, 3])
        assert np.all(out >= 0.0) and np.all(out <= 100.0)

    def test_rsi_100_on_monotone_up(self):
        assert ind.rsi(np.arange(1.0, 40.0))[-1] == pytest.approx(100.0)

    def test_rsi_0_on_monotone_down(self):
        assert ind.rsi(np.arange(40.0, 1.0, -1.0))[-1] == pytest.approx(0.0)

    def test_rsi_flat_is_50(self):
        np.testing.assert_allclose(ind.rsi(np.full(30, 2.0)), 50.0)

    def test_momentum(self):
        x = np.arange(20, dtype=float)
        np.testing.assert_allclose(ind.momentum(x, 5)[5:], 5.0)

    def test_rate_of_change(self):
        x = np.full(20, 10.0)
        x[10:] = 11.0
        out = ind.rate_of_change(x, 10)
        assert out[10] == pytest.approx(10.0)

    def test_williams_r_is_shifted_stoch(self, ohlcv):
        h, l, c = ohlcv[:, 1], ohlcv[:, 2], ohlcv[:, 3]
        np.testing.assert_allclose(
            ind.williams_r(h, l, c),
            ind.stochastic_oscillator(h, l, c) - 100.0,
        )

    def test_cci_zero_on_constant(self):
        out = ind.cci(np.full(30, 5.0), np.full(30, 5.0), np.full(30, 5.0))
        np.testing.assert_allclose(out, 0.0)

    def test_trix_zero_on_constant(self):
        np.testing.assert_allclose(ind.trix(np.full(60, 9.0)), 0.0, atol=1e-12)

    def test_mfi_bounds(self, ohlcv):
        out = ind.mfi(ohlcv[:, 1], ohlcv[:, 2], ohlcv[:, 3], ohlcv[:, 4])
        assert np.all(out >= 0.0) and np.all(out <= 100.0)


class TestBandsAndVolatility:
    def test_bollinger_ordering(self, ohlcv):
        mid, upper, lower = ind.bollinger_bands(ohlcv[:, 3])
        assert np.all(upper >= mid) and np.all(mid >= lower)

    def test_bollinger_width_scales_with_nstd(self, ohlcv):
        _, u1, l1 = ind.bollinger_bands(ohlcv[:, 3], n_std=1.0)
        _, u2, l2 = ind.bollinger_bands(ohlcv[:, 3], n_std=2.0)
        assert np.all((u2 - l2) >= (u1 - l1) - 1e-12)

    def test_rolling_std_constant_is_zero(self):
        np.testing.assert_allclose(ind.rolling_std(np.full(20, 4.0), 5), 0.0)

    def test_rolling_std_matches_numpy(self, rng):
        x = rng.standard_normal(40)
        out = ind.rolling_std(x, 8)
        for i in range(7, 40):
            assert out[i] == pytest.approx(np.std(x[i - 7 : i + 1]))

    def test_pvt_constant_price_is_zero(self):
        out = ind.price_volume_trend(np.full(10, 5.0), np.ones(10) * 100)
        np.testing.assert_allclose(out, 0.0)


class TestFeatureMatrix:
    def test_exactly_83_indicators(self):
        assert len(ind.indicator_names()) == 83

    def test_exactly_88_features(self):
        assert len(ind.feature_names()) == 88

    def test_names_are_unique(self):
        names = ind.feature_names()
        assert len(names) == len(set(names))

    def test_matrix_shape(self, ohlcv):
        out = ind.compute_feature_matrix(ohlcv)
        assert out.shape == (len(ohlcv), 88)

    def test_matrix_finite(self, ohlcv):
        assert np.all(np.isfinite(ind.compute_feature_matrix(ohlcv)))

    def test_basic_columns_passthrough(self, ohlcv):
        out = ind.compute_feature_matrix(ohlcv)
        np.testing.assert_array_equal(out[:, :5], ohlcv)

    def test_wrong_column_count_rejected(self, rng):
        with pytest.raises(ValueError, match=r"\(T, 5\)"):
            ind.compute_indicator_matrix(rng.standard_normal((10, 4)))

    def test_nan_input_rejected(self):
        """NaN and ±Inf in every column, the open one too (no indicator reads it)."""
        for column in range(5):
            for value in (np.nan, np.inf, -np.inf):
                bad = np.ones((10, 5))
                bad[3, column] = value
                with pytest.raises(ValueError, match="NaN or Inf"):
                    ind.compute_indicator_matrix(bad)
                with pytest.raises(ValueError, match="NaN or Inf"):
                    ind.compute_feature_matrix(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ind.compute_indicator_matrix(np.ones((0, 5)))


# --------------------------------------------------------------------- #
# Bit-identity oracles
# --------------------------------------------------------------------- #
#
# The per-position definitions: one window, or one step of a recurrence on
# numpy scalars, at a time.  The library computes every window at once and
# runs its recurrences on Python floats; these suites require the same
# bytes, which pins the arithmetic on whichever numpy build runs them.


def ref_sma(x, window):
    w = min(window, x.size)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    out[w - 1:] = (csum[w:] - csum[:-w]) / w
    for i in range(w - 1):
        out[i] = csum[i + 1] / (i + 1)
    return out


def ref_wma(x, window):
    w = min(window, x.size)
    weights = np.arange(1, w + 1, dtype=np.float64)
    weights /= weights.sum()
    out = np.empty_like(x)
    out[w - 1:] = np.convolve(x, weights[::-1], mode="valid")
    for i in range(w - 1):
        prefix_w = np.arange(1, i + 2, dtype=np.float64)
        out[i] = float(x[: i + 1] @ prefix_w) / prefix_w.sum()
    return out


def ref_smooth(x, alpha):
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, x.size):
        out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
    return out


def ref_ema(x, window):
    return ref_smooth(x, 2.0 / (min(window, x.size) + 1.0))


def ref_atr(h, l, c, window):
    tr = ind.true_range(h, l, c)
    return ref_smooth(tr, 1.0 / min(window, tr.size))


def ref_rsi(c, window):
    w = min(window, c.size)
    delta = np.diff(c, prepend=c[0])
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    avg_gain = np.empty_like(c)
    avg_loss = np.empty_like(c)
    avg_gain[0] = gains[0]
    avg_loss[0] = losses[0]
    alpha = 1.0 / w
    for i in range(1, c.size):
        avg_gain[i] = alpha * gains[i] + (1 - alpha) * avg_gain[i - 1]
        avg_loss[i] = alpha * losses[i] + (1 - alpha) * avg_loss[i - 1]
    denom = avg_gain + avg_loss
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, 100.0 * avg_gain / np.where(denom > 0, denom, 1.0), 50.0)


def ref_stoch(h, l, c, window):
    w = min(window, c.size)
    out = np.empty_like(c)
    for i in range(c.size):
        lo = max(0, i - w + 1)
        window_high = h[lo : i + 1].max()
        window_low = l[lo : i + 1].min()
        span = window_high - window_low
        out[i] = 50.0 if span == 0 else 100.0 * (c[i] - window_low) / span
    return out


def ref_rolling_std(x, window):
    w = min(window, x.size)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    csum_sq = np.concatenate([[0.0], np.cumsum(x * x)])
    out = np.empty_like(x)
    for i in range(x.size):
        lo = max(0, i - w + 1)
        n = i - lo + 1
        mean = (csum[i + 1] - csum[lo]) / n
        mean_sq = (csum_sq[i + 1] - csum_sq[lo]) / n
        out[i] = np.sqrt(max(mean_sq - mean * mean, 0.0))
    return out


def ref_cci(h, l, c, window):
    w = min(window, c.size)
    typical = (h + l + c) / 3.0
    out = np.empty_like(c)
    for i in range(c.size):
        lo = max(0, i - w + 1)
        segment = typical[lo : i + 1]
        mean = segment.mean()
        mad = np.abs(segment - mean).mean()
        out[i] = 0.0 if mad == 0 else (typical[i] - mean) / (0.015 * mad)
    return out


def ref_mfi(h, l, c, v, window):
    w = min(window, c.size)
    typical = (h + l + c) / 3.0
    flow = typical * v
    direction = np.zeros_like(c)
    direction[1:] = np.sign(np.diff(typical))
    pos = np.where(direction > 0, flow, 0.0)
    neg = np.where(direction < 0, flow, 0.0)
    out = np.empty_like(c)
    for i in range(c.size):
        lo = max(0, i - w + 1)
        p = pos[lo : i + 1].sum()
        n = neg[lo : i + 1].sum()
        out[i] = 50.0 if p + n == 0 else 100.0 * p / (p + n)
    return out


def ref_trix(c, window):
    triple = ref_ema(ref_ema(ref_ema(c, window), window), window)
    out = np.zeros_like(c)
    base = np.where(triple[:-1] != 0, triple[:-1], 1.0)
    out[1:] = 100.0 * (triple[1:] - triple[:-1]) / base
    return out


def ref_macd(c, fast, slow):
    return ref_ema(c, fast) - ref_ema(c, slow)


def ref_bollinger(c, window):
    middle = ref_sma(c, window)
    std = ref_rolling_std(c, window)
    return middle, middle + 2.0 * std, middle - 2.0 * std


def ref_indicator_matrix(ohlcv):
    """Every column computed on its own, by its per-position definition."""
    h, l, c, v = _columns(ohlcv)
    columns = []
    columns += [ref_sma(c, w) for w in ind._SMA_WINDOWS]
    columns += [ref_ema(c, w) for w in ind._EMA_WINDOWS]
    columns += [ref_wma(c, w) for w in ind._WMA_WINDOWS]
    columns += [ref_rsi(c, w) for w in ind._RSI_WINDOWS]
    columns += [ref_atr(h, l, c, w) for w in ind._ATR_WINDOWS]
    columns += [ref_stoch(h, l, c, w) for w in ind._STOCH_WINDOWS]
    columns += [ind.momentum(c, w) for w in ind._MOMENTUM_WINDOWS]
    columns += [ind.rate_of_change(c, w) for w in ind._ROC_WINDOWS]
    columns += [ref_cci(h, l, c, w) for w in ind._CCI_WINDOWS]
    columns += [ref_stoch(h, l, c, w) - 100.0 for w in ind._WILLIAMS_WINDOWS]
    columns += [ref_trix(c, w) for w in ind._TRIX_WINDOWS]
    columns += [ref_mfi(h, l, c, v, w) for w in ind._MFI_WINDOWS]
    for w in ind._BOLLINGER_WINDOWS:
        columns += list(ref_bollinger(c, w)[1:])
    columns += [ref_rolling_std(c, w) for w in ind._STD_WINDOWS]
    columns += [ref_macd(c, f, s) for f, s in ind._MACD_PARAMS]
    columns += [ref_ema(ref_macd(c, f, s), g) for f, s, g in ind._MACD_SIGNAL_PARAMS]
    columns += [ref_sma(v, w) for w in ind._VOLUME_SMA_WINDOWS]
    columns += [ind.obv(c, v), ind.price_volume_trend(c, v), ind.true_range(h, l, c)]
    return np.column_stack(columns)


def ref_log_volatility(rng, T):
    log_vol = np.empty(T)
    log_vol[0] = rng.standard_normal()
    for t in range(1, T):
        log_vol[t] = 0.95 * log_vol[t - 1] + 0.3 * rng.standard_normal()
    return log_vol


def _span(draw, T):
    start = draw(st.integers(0, T - 1))
    return start, draw(st.integers(start + 1, T))


@st.composite
def ohlcv_series(draw, max_length=400):
    """OHLCV with prices in [1e-3, 1e6], plus degenerate spans.

    Optional spans: high == low (flat %K range), a constant typical price
    (CCI's MAD is 0) and zero volume (MFI's p + n is 0).  A zero
    volatility makes the whole close constant.
    """
    T = draw(st.integers(1, max_length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = 10.0 ** draw(st.floats(-3.0, 6.0))
    vol = draw(st.sampled_from([0.0, 1e-4, 0.01, 0.2]))
    close = np.clip(level * np.exp(np.cumsum(vol * rng.standard_normal(T))), 1e-3, 1e6)
    spread = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    high = np.minimum(close * (1.0 + spread * rng.random(T)), 1e6)
    low = np.maximum(close * (1.0 - spread * rng.random(T)), 1e-3)
    open_ = low + (high - low) * rng.random(T)
    volume = 10.0 ** draw(st.floats(0.0, 7.0)) * rng.lognormal(0.0, 1.0, T)
    if draw(st.booleans()):  # flat range: high == low == close
        a, b = _span(draw, T)
        high[a:b] = low[a:b] = close[a:b]
    if draw(st.booleans()):  # constant typical price
        a, b = _span(draw, T)
        high[a:b] = low[a:b] = close[a:b] = close[a]
    if draw(st.booleans()):
        a, b = _span(draw, T)
        volume[a:b] = 0.0
    return np.column_stack([open_, high, low, close, volume])


WINDOWS = st.integers(1, 130)


def _columns(ohlcv):
    """High, low, close and volume as contiguous series.

    The library's functions copy a strided column to a contiguous series
    before any arithmetic, and so must an oracle: BLAS sums a strided dot
    product in another order.
    """
    return tuple(np.ascontiguousarray(ohlcv[:, i]) for i in (1, 2, 3, 4))


#: (library, oracle) pairs, each taking (high, low, close, volume, window).
INDICATOR_ORACLES = {
    "sma": (lambda h, l, c, v, w: ind.sma(c, w), lambda h, l, c, v, w: ref_sma(c, w)),
    "ema": (lambda h, l, c, v, w: ind.ema(c, w), lambda h, l, c, v, w: ref_ema(c, w)),
    "wma": (lambda h, l, c, v, w: ind.wma(c, w), lambda h, l, c, v, w: ref_wma(c, w)),
    "atr": (
        lambda h, l, c, v, w: ind.atr(h, l, c, w),
        lambda h, l, c, v, w: ref_atr(h, l, c, w),
    ),
    "rsi": (lambda h, l, c, v, w: ind.rsi(c, w), lambda h, l, c, v, w: ref_rsi(c, w)),
    "stoch": (
        lambda h, l, c, v, w: ind.stochastic_oscillator(h, l, c, w),
        lambda h, l, c, v, w: ref_stoch(h, l, c, w),
    ),
    "williams_r": (
        lambda h, l, c, v, w: ind.williams_r(h, l, c, w),
        lambda h, l, c, v, w: ref_stoch(h, l, c, w) - 100.0,
    ),
    "rolling_std": (
        lambda h, l, c, v, w: ind.rolling_std(c, w),
        lambda h, l, c, v, w: ref_rolling_std(c, w),
    ),
    "bollinger": (
        lambda h, l, c, v, w: np.stack(ind.bollinger_bands(c, w)),
        lambda h, l, c, v, w: np.stack(ref_bollinger(c, w)),
    ),
    "cci": (
        lambda h, l, c, v, w: ind.cci(h, l, c, w),
        lambda h, l, c, v, w: ref_cci(h, l, c, w),
    ),
    "mfi": (
        lambda h, l, c, v, w: ind.mfi(h, l, c, v, w),
        lambda h, l, c, v, w: ref_mfi(h, l, c, v, w),
    ),
    "trix": (lambda h, l, c, v, w: ind.trix(c, w), lambda h, l, c, v, w: ref_trix(c, w)),
    "macd": (
        lambda h, l, c, v, w: np.stack(
            [ind.macd(c, w, w + 7), ind.macd_signal(c, w, w + 7, w)]
        ),
        lambda h, l, c, v, w: np.stack(
            [ref_macd(c, w, w + 7), ref_ema(ref_macd(c, w, w + 7), w)]
        ),
    ),
}


class TestBitIdentityOracles:
    """Each indicator, and the 83-column block, equals its oracle byte for byte."""

    @pytest.mark.parametrize("name", sorted(INDICATOR_ORACLES))
    @settings(max_examples=60, deadline=None)
    @given(data=ohlcv_series(), window=WINDOWS)
    def test_indicator_matches_oracle(self, name, data, window):
        library, oracle = INDICATOR_ORACLES[name]
        series = _columns(data)
        assert library(*series, window).tobytes() == oracle(*series, window).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=ohlcv_series())
    def test_indicator_matrix_matches_oracle(self, data):
        out = ind.compute_indicator_matrix(data)
        assert out.tobytes() == ref_indicator_matrix(data).tobytes()

    @pytest.mark.parametrize("length", [1, 2, 13, 119, 120, 121])
    def test_lengths_around_the_window_grid(self, length):
        """Shorter than every window, and around the longest (120)."""
        rng = np.random.default_rng(length)
        close = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(length)))
        ohlcv = np.column_stack([close, close * 1.01, close * 0.99, close, rng.random(length)])
        assert ind.compute_indicator_matrix(ohlcv).tobytes() == ref_indicator_matrix(ohlcv).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600))
    def test_kr_volatility_matches_scalar_draws(self, seed, T):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _log_volatility(ours, T).tobytes() == ref_log_volatility(theirs, T).tobytes()
        # The generator is left where T scalar draws leave it.
        assert ours.bit_generator.state == theirs.bit_generator.state


def _oracle_feature_matrix(ohlcv):
    data = np.asarray(ohlcv, dtype=np.float64)
    return np.column_stack([data, ref_indicator_matrix(data)])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["us_stock", "kr_stock"])
def test_stock_stand_ins_match_oracle_build(name, seed, monkeypatch):
    """The registry's stock tensors equal a build with every oracle patched in."""
    fast = load_dataset(name, random_state=seed)
    monkeypatch.setattr(stock, "compute_feature_matrix", _oracle_feature_matrix)
    monkeypatch.setattr(stock, "_log_volatility", ref_log_volatility)
    slow = load_dataset(name, random_state=seed)
    assert fast.row_counts == slow.row_counts
    for a, b in zip(fast.slices, slow.slices):
        assert a.tobytes() == b.tobytes()
