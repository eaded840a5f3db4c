"""Tests for the synthetic dataset generators (stock, audio, video, traffic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import audio
from repro.data.audio import (
    _envelope_run,
    generate_audio_tensor,
    hann_window,
    log_power_spectrogram,
    stft_magnitude,
    synthesize_clip,
)
from repro.data.registry import DATASETS, load_dataset
from repro.data.stock import (
    SECTORS,
    generate_market,
    listing_length_profile,
    named_universe,
    standardize_features,
)
from repro.data.synthetic import (
    PAPER_SIZE_GRID,
    irregular_scalability_tensor,
    paper_size_grid,
    scalability_tensor,
)
from repro.data.traffic import daily_profile, generate_traffic_tensor
from repro.data.video import generate_video_tensor, smooth_walk
from repro.util.rng import as_generator


class TestStockMarket:
    def test_market_shape(self):
        market = generate_market(n_stocks=10, max_days=100, min_days=40,
                                 random_state=0)
        assert market.tensor.n_slices == 10
        assert market.tensor.n_columns == 88
        assert len(market.tickers) == 10
        assert len(market.sectors) == 10
        assert all(s in SECTORS for s in market.sectors)

    def test_listing_bounds_respected(self):
        market = generate_market(n_stocks=15, max_days=120, min_days=50,
                                 random_state=1)
        for ik in market.tensor.row_counts:
            assert 50 <= ik <= 120

    def test_one_stock_spans_full_window(self):
        lengths = listing_length_profile(20, 200, 50, random_state=0)
        assert lengths.max() == 200

    def test_profile_long_tailed(self):
        lengths = listing_length_profile(200, 1000, 100, random_state=0)
        assert np.median(lengths) < 0.5 * lengths.max()

    def test_profile_bad_bounds(self):
        with pytest.raises(ValueError, match="min_days"):
            listing_length_profile(5, 10, 20)

    def test_deterministic(self):
        a = generate_market(n_stocks=5, max_days=60, min_days=30,
                            random_state=4)
        b = generate_market(n_stocks=5, max_days=60, min_days=30,
                            random_state=4)
        np.testing.assert_array_equal(a.tensor[0], b.tensor[0])

    def test_index_of(self):
        market = generate_market(n_stocks=5, max_days=60, min_days=30,
                                 random_state=0)
        assert market.index_of(market.tickers[3]) == 3
        with pytest.raises(KeyError, match="unknown ticker"):
            market.index_of("NOPE")

    def test_explicit_sector_ids(self):
        market = generate_market(n_stocks=3, max_days=60, min_days=30,
                                 sector_ids=[0, 0, 1], random_state=0)
        assert market.sectors == [SECTORS[0], SECTORS[0], SECTORS[1]]

    def test_bad_sector_ids_rejected(self):
        with pytest.raises(ValueError, match="sector"):
            generate_market(n_stocks=2, max_days=60, min_days=30,
                            sector_ids=[0, 99], random_state=0)

    def test_sector_id_count_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            generate_market(n_stocks=3, max_days=60, min_days=30,
                            sector_ids=[0], random_state=0)

    def test_volume_coupling_changes_data(self):
        coupled = generate_market(n_stocks=4, max_days=60, min_days=60,
                                  volume_coupled=True, random_state=2)
        uncoupled = generate_market(n_stocks=4, max_days=60, min_days=60,
                                    volume_coupled=False, random_state=2)
        assert not np.allclose(coupled.tensor[0], uncoupled.tensor[0])

    def test_standardize_per_slice(self):
        market = generate_market(n_stocks=4, max_days=80, min_days=40,
                                 random_state=0)
        z = standardize_features(market.tensor)
        for Xk in z:
            np.testing.assert_allclose(Xk.mean(axis=0), 0.0, atol=1e-9)
            stds = Xk.std(axis=0)
            nonconst = stds > 1e-12
            np.testing.assert_allclose(stds[nonconst], 1.0, atol=1e-9)

    def test_standardize_global(self):
        market = generate_market(n_stocks=4, max_days=80, min_days=40,
                                 random_state=0)
        z = standardize_features(market.tensor, per_slice=False)
        stacked = np.concatenate(list(z.slices), axis=0)
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)

    def test_named_universe(self):
        market = named_universe(
            {"AAA": "Technology", "BBB": "Energy"}, max_days=60,
            random_state=0,
        )
        assert market.tickers == ["AAA", "BBB"]
        assert market.sectors == ["Technology", "Energy"]
        assert market.tensor.row_counts == [60, 60]

    def test_named_universe_unknown_sector(self):
        with pytest.raises(ValueError, match="unknown sector"):
            named_universe({"AAA": "NotASector"})

    def test_named_universe_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            named_universe({})


class TestAudio:
    def test_hann_window_endpoints(self):
        w = hann_window(8)
        assert w[0] == pytest.approx(0.0)
        assert w.max() <= 1.0

    def test_hann_single_sample(self):
        np.testing.assert_array_equal(hann_window(1), [1.0])

    def test_stft_shape(self, rng):
        x = rng.standard_normal(1000)
        out = stft_magnitude(x, n_fft=128, hop=64)
        assert out.shape[1] == 65  # n_fft // 2 + 1
        assert out.shape[0] >= 1

    def test_stft_pure_tone_peaks_at_bin(self):
        sr, n_fft = 1000, 250
        t = np.arange(2000) / sr
        signal = np.sin(2 * np.pi * 100.0 * t)  # bin = 100 / (sr/n_fft) = 25
        mag = stft_magnitude(signal, n_fft=n_fft, hop=125)
        peak_bins = np.argmax(mag[1:-1], axis=1)
        assert np.median(peak_bins) == pytest.approx(25, abs=1)

    def test_stft_short_signal_padded(self):
        out = stft_magnitude(np.ones(10), n_fft=64, hop=32)
        assert out.shape[0] >= 1

    def test_log_power_range(self, rng):
        db = log_power_spectrogram(rng.standard_normal(2000))
        assert db.max() <= 0.0 + 1e-9
        assert db.min() >= -80.0 - 1e-9

    def test_log_power_silent_signal(self):
        db = log_power_spectrogram(np.zeros(1000))
        np.testing.assert_allclose(db, -80.0)

    def test_synthesize_clip_finite(self):
        clip = synthesize_clip(5000, random_state=0)
        assert clip.shape == (5000,)
        assert np.all(np.isfinite(clip))

    def test_audio_tensor_shape(self):
        tensor = generate_audio_tensor(n_clips=5, min_frames=10,
                                       max_frames=20, n_fft=128,
                                       random_state=0)
        assert tensor.n_slices == 5
        assert tensor.n_columns == 65
        for ik in tensor.row_counts:
            assert 10 <= ik <= 20

    def test_audio_tensor_bad_frames(self):
        with pytest.raises(ValueError, match="min_frames"):
            generate_audio_tensor(n_clips=2, min_frames=30, max_frames=10)

    def test_audio_tensor_low_rank_structure(self):
        """Spectrograms of harmonic audio must decay fast spectrally."""
        tensor = generate_audio_tensor(n_clips=3, min_frames=40,
                                       max_frames=60, n_fft=256,
                                       random_state=0)
        for Xk in tensor:
            s = np.linalg.svd(Xk, compute_uv=False)
            assert s[10] < 0.35 * s[0]


def ref_synthesize_clip(duration_samples, sample_rate=8000, n_voices=3, random_state=None):
    """The full-length definition: every harmonic over the whole clip."""
    rng = as_generator(random_state)
    t = np.arange(duration_samples) / sample_rate
    signal = np.zeros(duration_samples)
    for _ in range(n_voices):
        base = rng.uniform(80.0, 800.0)
        drift = rng.uniform(-20.0, 20.0)
        frequency = base + drift * t
        phase = 2.0 * np.pi * np.cumsum(frequency) / sample_rate
        onset = rng.uniform(0.0, 0.4)
        offset = rng.uniform(0.6, 1.0)
        envelope = ((t >= onset * t[-1]) & (t <= offset * t[-1])).astype(float)
        for harmonic in range(1, 5):
            amp = rng.uniform(0.5, 1.0) * 0.5**harmonic
            signal += amp * envelope * np.sin(harmonic * phase)
    signal += 0.02 * rng.standard_normal(duration_samples)
    return signal


def ref_stft_magnitude(signal, n_fft=256, hop=128):
    """One Hann-windowed frame at a time."""
    x = np.asarray(signal, dtype=np.float64).ravel()
    if x.size < n_fft:
        x = np.concatenate([x, np.zeros(n_fft - x.size)])
    n_frames = 1 + int(np.ceil((x.size - n_fft) / hop))
    padded = np.concatenate([x, np.zeros(max(0, (n_frames - 1) * hop + n_fft - x.size))])
    window = hann_window(n_fft)
    frames = np.stack([padded[i * hop : i * hop + n_fft] * window for i in range(n_frames)])
    return np.abs(np.fft.rfft(frames, axis=1))


class _WholeClipVoices(np.random.Generator):
    """Draws every voice's onset at the clip's start and offset at its end."""

    def uniform(self, low=0.0, high=1.0, size=None):
        if (low, high) == (0.0, 0.4):
            return 0.0
        if (low, high) == (0.6, 1.0):
            return 1.0
        return super().uniform(low, high, size)


class TestAudioOracles:
    """Clips and spectrograms equal their full-length definitions byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        duration=st.one_of(st.integers(1, 4), st.integers(1, 6000)),
        sample_rate=st.sampled_from([100, 8000, 22050]),
        n_voices=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clip_matches_full_length_oracle(self, duration, sample_rate, n_voices, seed):
        # Durations 1 and 2 give a voice that covers every sample and one
        # that covers none.
        ours = synthesize_clip(duration, sample_rate, n_voices, random_state=seed)
        theirs = ref_synthesize_clip(duration, sample_rate, n_voices, random_state=seed)
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("duration", [1, 2, 3, 1000])
    def test_voices_over_the_whole_clip(self, duration):
        ours = synthesize_clip(duration, random_state=_WholeClipVoices(np.random.PCG64(3)))
        theirs = ref_synthesize_clip(
            duration, random_state=_WholeClipVoices(np.random.PCG64(3))
        )
        assert ours.tobytes() == theirs.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        duration=st.integers(1, 500),
        onset=st.floats(0.0, 1.0),
        offset=st.floats(0.0, 1.0),
    )
    def test_envelope_run_is_the_envelope(self, duration, onset, offset):
        t = np.arange(duration) / 8000
        first, stop = _envelope_run(t, onset, offset)
        run = np.zeros(duration, dtype=bool)
        run[first:stop] = True
        np.testing.assert_array_equal(run, (t >= onset * t[-1]) & (t <= offset * t[-1]))

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(1, 5000),
        n_fft=st.sampled_from([4, 64, 256, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stft_matches_per_frame_oracle(self, length, n_fft, seed):
        signal = np.random.default_rng(seed).standard_normal(length)
        ours = stft_magnitude(signal, n_fft, n_fft // 2)
        assert ours.tobytes() == ref_stft_magnitude(signal, n_fft, n_fft // 2).tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["fma", "urban"])
def test_audio_stand_ins_match_oracle_build(name, seed, monkeypatch):
    """The registry's audio tensors equal a build with the oracles patched in."""
    fast = load_dataset(name, random_state=seed)
    monkeypatch.setattr(audio, "synthesize_clip", ref_synthesize_clip)
    monkeypatch.setattr(audio, "stft_magnitude", ref_stft_magnitude)
    slow = load_dataset(name, random_state=seed)
    assert fast.row_counts == slow.row_counts
    for a, b in zip(fast.slices, slow.slices):
        assert a.tobytes() == b.tobytes()


class TestVideo:
    def test_smooth_walk_is_smooth(self):
        walk = smooth_walk(500, 4, smoothness=0.95, random_state=0)
        step_var = np.var(np.diff(walk, axis=0))
        assert step_var < np.var(walk)  # steps much smaller than range

    def test_smooth_walk_bad_smoothness(self):
        with pytest.raises(ValueError, match="smoothness"):
            smooth_walk(10, 2, smoothness=1.0)

    def test_video_tensor_shape(self):
        tensor = generate_video_tensor(n_videos=6, n_features=16,
                                       min_frames=10, max_frames=30,
                                       random_state=0)
        assert tensor.n_slices == 6
        assert tensor.n_columns == 16
        for ik in tensor.row_counts:
            assert 10 <= ik <= 30

    def test_video_tensor_low_rank(self):
        tensor = generate_video_tensor(n_videos=4, n_features=32,
                                       min_frames=40, max_frames=40,
                                       n_latent=4, noise=0.0, random_state=0)
        for Xk in tensor:
            centered = Xk - Xk.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            assert s[4] < 1e-8 * s[0]  # latent dim 4 => rank <= 4 centered

    def test_video_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            generate_video_tensor(n_videos=2, noise=-1.0)


class TestTraffic:
    def test_daily_profile_shape(self):
        profile = daily_profile(96, [0.3], [0.05], random_state=0)
        assert profile.shape == (96,)
        assert np.all(profile >= 0)

    def test_daily_profile_peak_location(self):
        profile = daily_profile(240, [0.5], [0.02], random_state=0)
        assert abs(np.argmax(profile) - 120) <= 2

    def test_profile_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shapes"):
            daily_profile(96, [0.3, 0.7], [0.05])

    def test_traffic_tensor_regular(self):
        tensor = generate_traffic_tensor(n_stations=20, n_timestamps=24,
                                         n_days=10, random_state=0)
        assert tensor.n_slices == 10
        assert tensor.row_counts == [20] * 10
        assert tensor.n_columns == 24

    def test_traffic_nonnegative(self):
        tensor = generate_traffic_tensor(n_stations=10, n_timestamps=24,
                                         n_days=7, random_state=0)
        for Xk in tensor:
            assert np.all(Xk >= 0)

    def test_weekday_weekend_differ(self):
        tensor = generate_traffic_tensor(n_stations=30, n_timestamps=48,
                                         n_days=7, noise=0.0, random_state=0)
        weekday = tensor[0]
        weekend = tensor[5]
        assert not np.allclose(weekday, weekend, rtol=0.1)


class TestSynthetic:
    def test_scalability_tensor_equal_heights(self):
        t = scalability_tensor(10, 8, 5, random_state=0)
        assert t.row_counts == [10] * 5
        assert t.n_columns == 8

    def test_paper_grid_full_scale(self):
        assert paper_size_grid(1.0) == list(PAPER_SIZE_GRID)

    def test_paper_grid_scaled(self):
        grid = paper_size_grid(0.1)
        assert grid[0] == (100, 100, 100)
        assert grid[-1] == (200, 200, 400)

    def test_paper_grid_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            paper_size_grid(0.0)

    def test_irregular_scalability_bounds(self):
        t = irregular_scalability_tensor(100, 10, 20, random_state=0)
        assert t.n_slices == 20
        assert max(t.row_counts) <= 100
        assert min(t.row_counts) >= 5  # default min = max // 20

    def test_irregular_scalability_skew(self):
        t = irregular_scalability_tensor(1000, 4, 100, random_state=0)
        counts = np.array(t.row_counts)
        assert counts.max() > 3 * np.median(counts)


class TestRegistry:
    def test_registered_datasets(self):
        # Table II's eight datasets plus the synthetic sparse workload.
        assert len(DATASETS) == 9

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_each_dataset_loads(self, name):
        tensor = load_dataset(name, random_state=0)
        assert tensor.n_slices > 1
        assert tensor.n_columns > 1

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("imaginary")

    def test_name_normalization(self):
        tensor = load_dataset("PEMS-SF", random_state=0)
        assert tensor.n_slices == 40

    def test_paper_shapes_recorded(self):
        assert DATASETS["us_stock"].paper_shape == (7883, 88, 4742)
        assert DATASETS["fma"].paper_shape == (704, 2049, 7997)

    def test_stock_dataset_is_standardized(self):
        tensor = load_dataset("us_stock", random_state=0)
        np.testing.assert_allclose(tensor[0].mean(axis=0), 0.0, atol=1e-8)
