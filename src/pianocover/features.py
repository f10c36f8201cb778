"""Log-mel spectrogram frontend and WAV ingestion.

Frontend parameters are fixed by the downstream model contract: 22050 Hz
sample rate, 4096-sample Hann window, 1024-sample hop, power (squared
magnitude) pooled by the mel filters, HTK mel scale over [0, 11025] Hz with
area-normalized triangles, log floor 1e-6.  Frames are fully interior (no
center padding) so frame k covers samples [k*hop, k*hop + window) exactly.
Spectra are computed in bounded blocks of frames (``pooled_stft``), and
each block is pooled to a few values per frame before the next is built,
so no whole-song frame, spectrum or power array exists at any time.
A block is one power array plus its pool's arrays: ``stft_power`` tapers
and transforms one cache-sized chunk of frames at a time and writes the
chunk's power into the block's output, so tapered frames and complex
spectra exist one chunk at a time, and no block is held twice as
magnitude and power.
Mel filterbanks are applied over each filter's nonzero band only
(``mel_power``): a filter spans at most a few percent of the bins.
``load_wav`` resamples to SAMPLE_RATE, and the rate is fixed after it: no
function here, in ``beats`` or in ``sync`` takes another.  It reads WAV
bytes through ``errors.ByteCursor``, like every other binary input: 16-bit
PCM in a RIFF or big-endian RIFX file, with a plain or extensible fmt
chunk, at a rate up to MAX_SAMPLE_RATE.  RF64 files are refused: a 16-bit
song needs one only past 4 GB.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
# Imported when this module loads, not on first use: numpy 2 loads numpy.fft
# lazily, and a signal handler that reads np.fft while that import is under
# way (perfbench's speed gauge, on SIGALRM) recurses until RecursionError.
from numpy.fft import rfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ByteCursor, FormatError, ParameterError

SAMPLE_RATE = 22050
WINDOW = 4096
HOP = 1024
N_MELS = 128
LOG_FLOOR = 1e-6
# The highest sample rate a WAV file may declare and ``render --rate`` may
# ask for (the top rate of common audio interfaces).  Resampling from a
# rate designs a filter of 20 * max(up, down) + 1 taps, up/down being
# SAMPLE_RATE/rate in lowest terms, so a WAV header's rate is checked
# against it before anything allocates.
MAX_SAMPLE_RATE = 384_000
# The most 16-bit mono samples a WAV file holds: the RIFF size field, a
# u32, counts the data plus 36 header bytes.
MAX_WAV_SAMPLES = (2**32 - 1 - 36) // 2
# Samples of frame data per STFT block: 2048 frames at a 1024-sample
# window, 512 at WINDOW.  A block holds its power (about 8 MB) and its
# pool's arrays, whatever the length of the song.
_BLOCK_SAMPLES = 2**21
# Samples of frame data per chunk inside ``stft_power``: 64 frames at a
# 1024-sample window, 16 at WINDOW.  Tapered frames and complex spectra
# exist for one chunk at a time: about 1 MB, the size of a typical L2.
_CHUNK_SAMPLES = 2**16
# Samples per chunk of ``write_wav``'s float-to-PCM conversion: 512 kB of
# float64.
_WAV_CHUNK_SAMPLES = 2**16
# Consecutive mel filters applied as one matmul over the union of their
# nonzero bins.  Eight keeps the slabs about 7% (model) and 14% (onset)
# of the dense filterbank while each matmul stays large enough for BLAS.
_BAND_FILTERS = 8


@dataclass(frozen=True)
class MelSpectrogram:
    frames: np.ndarray  # (num_frames, N_MELS) log mel power


def num_frames(num_samples: int, window: int = WINDOW, hop: int = HOP) -> int:
    if num_samples < window:
        return 0
    return (num_samples - window) // hop + 1


def _read_only(array: np.ndarray) -> np.ndarray:
    # Cached arrays are shared by every caller; a write would corrupt them all.
    array.setflags(write=False)
    return array


@lru_cache(maxsize=16)
def hann(window: int) -> np.ndarray:
    """Periodic Hann, matching the usual STFT analysis convention (cached,
    read-only)."""
    n = np.arange(window)
    return _read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * n / window))


def stft_power(audio: np.ndarray, window: int = WINDOW, hop: int = HOP) -> np.ndarray:
    """Power STFT of mono audio, ``np.abs(rfft) ** 2`` of each Hann-tapered
    frame, shape (frames, window // 2 + 1)."""
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 1:
        raise ParameterError("stft_power expects mono audio")
    frames = num_frames(len(audio), window, hop)
    if frames == 0:
        raise ParameterError(
            f"audio of {len(audio)} samples is shorter than one {window}-sample window"
        )
    segs = sliding_window_view(audio, window)[::hop]
    taper = hann(window)
    power = np.empty((frames, window // 2 + 1))
    # rfft, abs and square work row by row, so chunked rows keep every bit;
    # squaring the magnitude in place keeps one array per block.
    chunk = max(_CHUNK_SAMPLES // window, 1)
    for start in range(0, frames, chunk):
        rows = power[start : start + chunk]
        np.abs(rfft(segs[start : start + chunk] * taper, n=window, axis=1), out=rows)
        np.square(rows, out=rows)
    return power


def pooled_stft(audio: np.ndarray, window: int, hop: int, pool) -> np.ndarray:
    """``pool(stft_power(audio, window, hop))``, built block by block.

    ``pool`` maps a (frames, bins) power block to one row per frame.
    Blocks hold ``_BLOCK_SAMPLES // window`` frames and the last block
    absorbs the remainder, so every block is at least that tall or is the
    whole signal: a block of a few rows runs other BLAS and reduction
    kernels, whose sums can round differently.  The rows are therefore
    bit-identical to pooling one whole-signal STFT.
    """
    audio = np.asarray(audio, dtype=np.float64)
    block = _BLOCK_SAMPLES // window
    starts = range(0, max(num_frames(len(audio), window, hop) // block, 1) * block, block)
    ends = [(s + block - 1) * hop + window for s in starts[:-1]] + [len(audio)]
    return np.concatenate([
        pool(stft_power(audio[s * hop : end], window, hop)) for s, end in zip(starts, ends)
    ])


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(n_fft: int = WINDOW, n_mels: int = N_MELS) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape (n_mels, n_fft // 2 + 1).

    Triangles span [0, SAMPLE_RATE / 2] and are normalized to unit area
    (each row scaled by 2 / bandwidth).  Built once per argument tuple and
    returned read-only.
    """
    if n_mels < 1:
        raise ParameterError(f"n_mels must be >= 1, got {n_mels}")
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), n_mels + 2))
    bins = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE / n_fft)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bins[None, :] - lo) / (ctr - lo)
    falling = (hi - bins[None, :]) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb *= 2.0 / (hi - lo)
    return _read_only(fb)


@lru_cache(maxsize=16)
def mel_bands(n_fft: int, n_mels: int) -> tuple:
    """``mel_filterbank`` split into runs of ``_BAND_FILTERS`` filters.

    Each band is ``(first_filter, first_bin, slab)``: ``slab`` holds the
    band's weights transposed, shape (bins, filters), over the consecutive
    bins from the band's first to its last nonzero weight.  Every weight
    outside the slabs is zero.  Built once per argument tuple, read-only.
    """
    fb = mel_filterbank(n_fft, n_mels)
    bands = []
    for first in range(0, n_mels, _BAND_FILTERS):
        rows = fb[first : first + _BAND_FILTERS]
        used = np.flatnonzero(rows.any(axis=0))
        lo, hi = (used[0], used[-1] + 1) if len(used) else (0, 0)
        bands.append((first, int(lo), _read_only(rows[:, lo:hi].T.copy())))
    return tuple(bands)


def mel_power(power: np.ndarray, n_mels: int) -> np.ndarray:
    """``power @ mel_filterbank(n_fft, n_mels).T`` for a
    (frames, n_fft // 2 + 1) power block, one small matmul per band.

    The sums skip the filters' zero weights, so they can differ from the
    dense product in the last place; a row's bits do not depend on how
    many rows the block has once it has a few hundred.
    """
    n_fft = 2 * (power.shape[1] - 1)
    out = np.empty((len(power), n_mels))
    for first, lo, slab in mel_bands(n_fft, n_mels):
        np.matmul(power[:, lo : lo + len(slab)], slab,
                  out=out[:, first : first + slab.shape[1]])
    return out


def log_mel(power: np.ndarray) -> MelSpectrogram:
    """Pool an stft_power matrix of SAMPLE_RATE audio into N_MELS log mel
    power frames."""
    energy = mel_power(np.asarray(power, dtype=np.float64), N_MELS)
    return MelSpectrogram(np.log(energy + LOG_FLOOR))


def melspectrogram(audio: np.ndarray) -> MelSpectrogram:
    """Model-frontend log mel frames of SAMPLE_RATE audio (WINDOW/HOP STFT)."""
    return MelSpectrogram(pooled_stft(audio, WINDOW, HOP, lambda power: log_mel(power).frames))


# ---------------------------------------------------------------------------
# Audio I/O


def check_sample_rate(rate: int) -> None:
    """Raise ParameterError for any rate but SAMPLE_RATE."""
    if rate != SAMPLE_RATE:
        raise ParameterError(f"audio runs at {SAMPLE_RATE} Hz after load_wav, not {rate}")


def resample(audio: np.ndarray, orig_rate: int):
    """Polyphase windowed-sinc resampling to SAMPLE_RATE (scipy's Kaiser window)."""
    if orig_rate == SAMPLE_RATE:
        return np.asarray(audio, dtype=np.float64)
    # Imported here, not at the top: scipy.signal costs about 1 s and 75 MB
    # of RSS to load, and only WAVs at another rate need it.
    import scipy.signal

    ratio = Fraction(SAMPLE_RATE, orig_rate)
    return scipy.signal.resample_poly(
        np.asarray(audio, dtype=np.float64), ratio.numerator, ratio.denominator
    )


# WAVE format tags, and the bytes after the first four of a KSDATAFORMAT
# subformat GUID, which carry a format tag in those four (RFC 2361).
_WAVE_PCM = 1
_WAVE_EXTENSIBLE = 0xFFFE
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_fmt(body: bytes, order: str, at: int, path) -> tuple:
    """(channels, rate) of the fmt chunk ``body`` found at byte ``at``."""
    if len(body) < 16:
        raise FormatError(f"fmt chunk of {len(body)} bytes, under 16", at)
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        order + "HHIIHH", body
    )
    if tag == _WAVE_EXTENSIBLE:
        if len(body) < 40:
            raise FormatError(f"extensible fmt chunk of {len(body)} bytes, under 40", at)
        guid = body[24:40]
        if guid[4:] == struct.pack(order + "HH", 0, 0x10) + _GUID_TAIL:
            (tag,) = struct.unpack_from(order + "I", guid)
    if channels == 0 or bits == 0:
        raise FormatError("fmt chunk has 0-byte samples or 0 channels", at + 2)
    if not 1 <= rate <= MAX_SAMPLE_RATE:
        raise FormatError(f"sample rate {rate} Hz is outside 1..{MAX_SAMPLE_RATE}", at + 4)
    if tag != _WAVE_PCM or bits != 16:
        raise ParameterError(
            f"{path}: expected 16-bit PCM WAV, got format tag 0x{tag:04x} "
            f"with {bits}-bit samples"
        )
    if block_align != 2 * channels:
        raise FormatError(
            f"block align {block_align} is not 2 bytes x {channels} channels", at + 12
        )
    if byte_rate != rate * block_align:
        raise FormatError(
            f"byte rate {byte_rate} is not {rate} Hz x {block_align}-byte frames", at + 8
        )
    return channels, rate


def _wav_samples(data: memoryview, path) -> tuple:
    """(byte order, channels, rate, offset, frames) of the 16-bit PCM
    samples in the bytes of a RIFF (or big-endian RIFX) WAVE file.

    Chunks are walked up to the end the RIFF header declares, and every
    chunk but ``fmt `` and ``data`` is skipped.  The first ``data`` chunk
    holds the samples, and nothing after it is read; a partial frame at
    its end is ignored.
    """
    r = ByteCursor(data)
    magic = r.take(4)
    if magic == b"RF64":
        raise FormatError("RF64 files are not supported", 0)
    if magic not in (b"RIFF", b"RIFX"):
        raise FormatError(f"no RIFF header, starts with {magic!r}", 0)
    order = "<" if magic == b"RIFF" else ">"
    riff_size, form = r.unpack(order + "I4s")
    if form != b"WAVE":
        raise FormatError(f"RIFF form is {form!r}, not WAVE", 8)
    fmt = None
    while r.pos < 8 + riff_size:
        chunk_id, size = r.unpack(order + "4sI")
        if chunk_id == b"data":
            if fmt is None:
                raise FormatError("data chunk before the fmt chunk", r.pos - 8)
            channels, rate = fmt
            return order, channels, rate, r.skip(size), size // (2 * channels)
        if chunk_id == b"fmt ":
            at = r.pos
            fmt = _wav_fmt(r.take(size), order, at, path)
        else:
            r.skip(size)
        r.pos += size % 2  # a pad byte keeps chunks at even offsets
    raise FormatError("no fmt or data chunk", r.pos)


def _read_pcm16_mono(path):
    """(rate, float64 mono samples in [-1, 1]) of a 16-bit PCM WAV."""
    # A numpy buffer, not a bytes object: numpy backs large arrays with huge
    # pages, and with bytes objects a perfbench build pass took about 1500
    # more minor page faults (6400 against 7900 per pass).
    data = memoryview(np.fromfile(path, np.uint8))
    try:
        order, channels, rate, offset, frames = _wav_samples(data, path)
    except FormatError as exc:
        raise FormatError(
            f"{path}: not a readable WAV file: {exc.reason}", exc.offset
        ) from None
    # Read in place: a copy of the data chunk would double the peak.
    pcm = np.frombuffer(data, order + "i2", frames * channels, offset)
    # One float64 pass: int16 sums and power-of-two scaling are exact, so
    # this equals scaling each channel by 1/32768 and then averaging.
    if channels > 1:
        samples = pcm.reshape(frames, channels).sum(axis=1, dtype=np.float64)
    else:
        samples = pcm.astype(np.float64)
    samples /= 32768.0 * channels
    return rate, samples


def load_wav(path) -> np.ndarray:
    """Read a 16-bit PCM WAV, downmix stereo by average, resample to
    SAMPLE_RATE, and scale to [-1, 1]."""
    # The file's bytes are freed before resampling allocates its output.
    rate, samples = _read_pcm16_mono(path)
    return resample(samples, rate)


def write_wav(path, audio: np.ndarray, sample_rate: int = SAMPLE_RATE):
    """Write mono float audio in [-1, 1] as 16-bit PCM. A rate the reader
    refuses, or more samples than the RIFF size field can count, raises
    ParameterError before the file is opened."""
    if not 1 <= sample_rate <= MAX_SAMPLE_RATE:
        raise ParameterError(f"sample rate {sample_rate} Hz is outside 1..{MAX_SAMPLE_RATE}")
    if np.size(audio) > MAX_WAV_SAMPLES:
        raise ParameterError(f"{np.size(audio)} samples are more than a WAV file holds "
                             f"({MAX_WAV_SAMPLES})")
    samples = np.asarray(audio).reshape(-1)
    pcm = np.empty(samples.size, "<i2")
    # Clip, scale and cast one chunk at a time: whole-signal float64 copies
    # would hold 18 bytes per sample next to the 2 of the PCM.
    for start in range(0, samples.size, _WAV_CHUNK_SAMPLES):
        rows = slice(start, start + _WAV_CHUNK_SAMPLES)
        chunk = samples[rows].astype(np.float64)
        np.clip(chunk, -1.0, 1.0, out=chunk)
        chunk *= 32767.0
        pcm[rows] = chunk
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
        b"fmt ", 16, _WAVE_PCM, 1, sample_rate, 2 * sample_rate, 2, 16,
        b"data", pcm.nbytes,
    )
    with open(path, "wb") as out:
        out.write(header)
        out.write(pcm)
