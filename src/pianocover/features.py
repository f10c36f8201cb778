"""Log-mel spectrogram frontend and WAV ingestion.

Frontend parameters are fixed by the downstream model contract: 22050 Hz
sample rate, 4096-sample Hann window, 1024-sample hop, magnitude squared to
power before mel pooling, HTK mel scale over [0, 11025] Hz with
area-normalized triangles, log floor 1e-6.  Frames are fully interior (no
center padding) so frame k covers samples [k*hop, k*hop + window) exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.io.wavfile
import scipy.signal

from .errors import FormatError, ParameterError

SAMPLE_RATE = 22050
WINDOW = 4096
HOP = 1024
N_MELS = 128
LOG_FLOOR = 1e-6


@dataclass(frozen=True)
class MelSpectrogram:
    frames: np.ndarray  # (num_frames, n_mels) log mel power
    sample_rate: int = SAMPLE_RATE
    window: int = WINDOW
    hop: int = HOP

    @property
    def n_mels(self):
        return self.frames.shape[1]

    @property
    def num_frames(self):
        return self.frames.shape[0]

    def frame_time(self, index):
        """Center time in seconds of frame ``index``."""
        return (index * self.hop + self.window / 2) / self.sample_rate


def num_frames(num_samples: int, window: int = WINDOW, hop: int = HOP) -> int:
    if num_samples < window:
        return 0
    return (num_samples - window) // hop + 1


def hann(window: int) -> np.ndarray:
    # Periodic Hann, matching the usual STFT analysis convention.
    n = np.arange(window)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window)


def stft_mag(audio: np.ndarray, window: int = WINDOW, hop: int = HOP) -> np.ndarray:
    """Magnitude STFT of mono audio, shape (frames, window // 2 + 1)."""
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 1:
        raise ParameterError("stft_mag expects mono audio")
    frames = num_frames(len(audio), window, hop)
    if frames == 0:
        raise ParameterError(
            f"audio of {len(audio)} samples is shorter than one {window}-sample window"
        )
    idx = np.arange(window)[None, :] + hop * np.arange(frames)[:, None]
    segs = audio[idx] * hann(window)[None, :]
    return np.abs(np.fft.rfft(segs, n=window, axis=1))


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int = SAMPLE_RATE, n_fft: int = WINDOW,
                   n_mels: int = N_MELS) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape (n_mels, n_fft // 2 + 1).

    Triangles span [0, sample_rate / 2] and are normalized to unit area
    (each row scaled by 2 / bandwidth).
    """
    if n_mels < 1:
        raise ParameterError(f"n_mels must be >= 1, got {n_mels}")
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2), n_mels + 2))
    bins = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bins[None, :] - lo) / (ctr - lo)
    falling = (hi - bins[None, :]) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb *= 2.0 / (hi - lo)
    return fb


def log_mel(mag: np.ndarray, sample_rate: int = SAMPLE_RATE,
            n_mels: int = N_MELS, window: int = WINDOW,
            hop: int = HOP) -> MelSpectrogram:
    """Pool an stft_mag matrix into log mel power frames."""
    mag = np.asarray(mag, dtype=np.float64)
    n_fft = 2 * (mag.shape[1] - 1)
    fb = mel_filterbank(sample_rate, n_fft, n_mels)
    energy = (mag ** 2) @ fb.T
    return MelSpectrogram(np.log(energy + LOG_FLOOR), sample_rate, window, hop)


def melspectrogram(audio: np.ndarray, sample_rate: int = SAMPLE_RATE,
                   n_mels: int = N_MELS, window: int = WINDOW,
                   hop: int = HOP) -> MelSpectrogram:
    return log_mel(stft_mag(audio, window, hop), sample_rate, n_mels, window, hop)


# ---------------------------------------------------------------------------
# Audio I/O


def resample(audio: np.ndarray, orig_rate: int, target_rate: int = SAMPLE_RATE):
    """Polyphase windowed-sinc resampling (Kaiser window, scipy default)."""
    if orig_rate == target_rate:
        return np.asarray(audio, dtype=np.float64)
    ratio = Fraction(target_rate, orig_rate)
    return scipy.signal.resample_poly(
        np.asarray(audio, dtype=np.float64), ratio.numerator, ratio.denominator
    )


def load_wav(path, target_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Read a 16-bit PCM WAV, downmix stereo by average, resample, and
    scale to [-1, 1]."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except (ValueError, struct.error) as exc:  # struct.error: truncated header
        raise FormatError(f"{path}: not a readable WAV file: {exc}") from exc
    if data.dtype != np.int16:
        raise ParameterError(
            f"{path}: expected 16-bit PCM WAV, got dtype {data.dtype}"
        )
    samples = data.astype(np.float64) / 32768.0
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return resample(samples, rate, target_rate)


def write_wav(path, audio: np.ndarray, sample_rate: int = SAMPLE_RATE):
    """Write mono float audio in [-1, 1] as 16-bit PCM."""
    clipped = np.clip(np.asarray(audio, dtype=np.float64), -1.0, 1.0)
    scipy.io.wavfile.write(path, sample_rate, (clipped * 32767.0).astype(np.int16))
