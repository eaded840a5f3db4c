"""Synthetic audio spectrogram tensors (FMA / Urban Sound analogues).

The paper converts each song/sound clip into a log-power spectrogram:
a (time, frequency) matrix; the dataset is the irregular tensor of clips of
different durations with a shared frequency axis (Table II: J = 2,049 —
i.e. an FFT size of 4,096).

This module synthesizes clips from scratch: a small number of harmonic
voices with drifting fundamentals plus filtered noise, then a from-scratch
STFT (Hann window, numpy FFT) and log-power mapping.  The resulting slices
have the strong low-rank structure real music spectrograms show (a few
harmonic templates modulated in time), which is the property DPar2's
compression stage exploits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor.irregular import IrregularTensor
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length."""
    check_positive_int(length, "length")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def stft_magnitude(
    signal: np.ndarray,
    n_fft: int = 256,
    hop: int = 128,
) -> np.ndarray:
    """Magnitude STFT: frames on rows, ``n_fft // 2 + 1`` frequency bins.

    Frames are Hann-windowed; the signal is zero-padded at the tail so the
    last partial frame is kept.  A pure-numpy replacement for the
    ``spectrogram`` step of the paper's preprocessing.
    """
    x = np.asarray(signal, dtype=np.float64).ravel()
    check_positive_int(n_fft, "n_fft")
    check_positive_int(hop, "hop")
    if x.size < n_fft:
        x = np.concatenate([x, np.zeros(n_fft - x.size)])
    n_frames = 1 + int(np.ceil((x.size - n_fft) / hop))
    padded = np.concatenate([x, np.zeros(max(0, (n_frames - 1) * hop + n_fft - x.size))])
    frames = sliding_window_view(padded, n_fft)[::hop] * hann_window(n_fft)
    return np.abs(np.fft.rfft(frames, axis=1))


def log_power_spectrogram(
    signal: np.ndarray,
    n_fft: int = 256,
    hop: int = 128,
    floor_db: float = -80.0,
) -> np.ndarray:
    """Log-power spectrogram ``10·log10(|STFT|²)`` clipped at ``floor_db``."""
    magnitude = stft_magnitude(signal, n_fft, hop)
    power = magnitude**2
    reference = power.max()
    if reference <= 0:
        return np.full_like(power, floor_db)
    db = 10.0 * np.log10(np.maximum(power / reference, 10 ** (floor_db / 10.0)))
    return db


def synthesize_clip(
    duration_samples: int,
    sample_rate: int = 8000,
    n_voices: int = 3,
    random_state=None,
) -> np.ndarray:
    """A synthetic music-like clip: harmonic voices + coloured noise.

    Each voice has a slowly drifting fundamental with 4 harmonics of
    geometrically decaying amplitude and a random onset/offset envelope —
    enough temporal/spectral structure to give realistic spectrograms.

    A voice's envelope is one contiguous run of ones (the samples with
    ``onset·t[-1] <= t <= offset·t[-1]``), so its harmonics are computed
    on that run only.  Outside it the full-length product
    ``amp · envelope · sin(h·phase)`` is ±0, and adding it would leave the
    signal unchanged: the clip is bit for bit the full-length sum.
    """
    check_positive_int(duration_samples, "duration_samples")
    check_positive_int(n_voices, "n_voices")
    rng = as_generator(random_state)
    t = np.arange(duration_samples) / sample_rate

    signal = np.zeros(duration_samples)
    for _ in range(n_voices):
        base = rng.uniform(80.0, 800.0)
        drift = rng.uniform(-20.0, 20.0)
        onset = rng.uniform(0.0, 0.4)
        offset = rng.uniform(0.6, 1.0)
        first, stop = _envelope_run(t, onset, offset)
        # The phase is a running sum, so its prefix up to ``stop`` is exact.
        phase = (2.0 * np.pi * np.cumsum(base + drift * t[:stop]) / sample_rate)[first:]
        for harmonic in range(1, 5):
            amp = rng.uniform(0.5, 1.0) * 0.5**harmonic
            signal[first:stop] += amp * np.sin(harmonic * phase)
    signal += 0.02 * rng.standard_normal(duration_samples)
    return signal


def _envelope_run(t: np.ndarray, onset: float, offset: float) -> tuple[int, int]:
    """``(first, stop)`` with ``onset·t[-1] <= t[i] <= offset·t[-1]`` iff ``first <= i < stop``.

    ``t`` is increasing, so the samples a voice sounds on are one run;
    ``first == stop`` when it sounds on none.
    """
    first = int(np.searchsorted(t, onset * t[-1], side="left"))
    stop = int(np.searchsorted(t, offset * t[-1], side="right"))
    return first, max(first, stop)


def generate_audio_tensor(
    n_clips: int = 40,
    min_frames: int = 40,
    max_frames: int = 120,
    n_fft: int = 256,
    random_state=None,
) -> IrregularTensor:
    """Irregular tensor of log-power spectrograms (time × frequency).

    ``J = n_fft // 2 + 1`` frequency bins shared by all clips; per-clip
    frame counts are drawn uniformly in ``[min_frames, max_frames]``.
    """
    check_positive_int(n_clips, "n_clips")
    if min_frames < 1 or min_frames > max_frames:
        raise ValueError(
            f"need 1 <= min_frames <= max_frames, got {min_frames}, {max_frames}"
        )
    rng = as_generator(random_state)
    hop = n_fft // 2
    slices = []
    for _ in range(n_clips):
        frames = int(rng.integers(min_frames, max_frames + 1))
        samples = (frames - 1) * hop + n_fft
        clip = synthesize_clip(samples, random_state=rng)
        spec = log_power_spectrogram(clip, n_fft=n_fft, hop=hop)
        slices.append(spec[:frames])
    return IrregularTensor(slices, copy=False)
