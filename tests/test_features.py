import ast
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from conftest import fmt_chunk, wav_bytes
from pianocover import beats, features, midi, sync, tokenizer
from pianocover.errors import FormatError, ParameterError
from pianocover.features import (
    _BLOCK_SAMPLES,
    _CHUNK_SAMPLES,
    _WAV_CHUNK_SAMPLES,
    HOP,
    LOG_FLOOR,
    MAX_SAMPLE_RATE,
    MAX_WAV_SAMPLES,
    N_MELS,
    SAMPLE_RATE,
    WINDOW,
    hann,
    load_wav,
    log_mel,
    mel_bands,
    mel_power,
    mel_to_hz,
    hz_to_mel,
    melspectrogram,
    num_frames,
    pooled_stft,
    resample,
    stft_power,
    write_wav,
)
from pianocover.midi import Note, NoteSequence
from pianocover.tokenizer import EOS, TokenSeq


def sine(freq, seconds, sr=SAMPLE_RATE, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def mel_filterbank(n_fft=WINDOW, n_mels=N_MELS):
    """The dense (n_mels, n_fft // 2 + 1) HTK-mel filterbank, every bin of
    every filter: the oracle the ``mel_bands`` slabs are checked against."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), n_mels + 2))
    bins = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE / n_fft)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bins[None, :] - lo) / (ctr - lo)
    falling = (hi - bins[None, :]) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb *= 2.0 / (hi - lo)
    return fb


class TestStft:
    def test_frame_count_law(self):
        for n in [WINDOW, WINDOW + 1, WINDOW + HOP, WINDOW + 5 * HOP + 3]:
            power = stft_power(np.zeros(n))
            assert power.shape[0] == (n - WINDOW) // HOP + 1 == num_frames(n)

    def test_too_short_is_error(self):
        with pytest.raises(ParameterError):
            stft_power(np.zeros(WINDOW - 1))

    def test_zeros_give_zero_magnitudes(self):
        assert np.all(stft_power(np.zeros(WINDOW + HOP)) == 0.0)

    def test_dc_closed_form(self):
        # DC of amplitude a -> bin 0 power equals (a * sum(window)) ** 2
        a = 0.37
        power = stft_power(np.full(WINDOW, a))
        expected = (a * hann(WINDOW).sum()) ** 2
        assert power[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_bin_center_sine_concentrates(self):
        # sine exactly on a bin center: dominant bin, leakage < -30 dB two bins off
        k = 100
        freq = k * SAMPLE_RATE / WINDOW
        spectrum = stft_power(sine(freq, 0.5))[2]
        assert np.argmax(spectrum) == k
        assert spectrum[k + 2] < spectrum[k] * 10 ** (-30 / 10)
        assert spectrum[k - 2] < spectrum[k] * 10 ** (-30 / 10)

    @pytest.mark.parametrize("window,hop", [(1024, 256), (2048, 1024), (WINDOW, HOP)])
    def test_bits_match_per_frame_rfft(self, window, hop):
        rng = np.random.default_rng(window + hop)
        chunk = _CHUNK_SAMPLES // window
        # Frame counts on both sides of the first and second chunk boundaries.
        at_chunks = [(frames - 1) * hop + window + hop // 2
                     for frames in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)]
        for length in [window, window + hop - 1, window + hop, window + 9 * hop + 5,
                       *at_chunks]:
            x = rng.normal(size=length)
            taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
            loop = np.array([
                np.abs(np.fft.rfft(x[k * hop : k * hop + window] * taper)) ** 2
                for k in range(num_frames(length, window, hop))
            ])
            assert np.array_equal(stft_power(x, window, hop), loop)

    def test_memory_is_the_output_plus_one_chunk(self):
        x = np.random.default_rng(1024).normal(size=1023 * 256 + 1024)
        tracemalloc.start()
        try:
            power = stft_power(x, 1024, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert power.shape == (1024, 513)
        assert peak <= 1.3 * power.nbytes, f"peak {peak / power.nbytes:.2f}x the output"

    def test_numpy_fft_loads_with_the_module(self):
        # numpy 2 imports numpy.fft on first use. A SIGALRM handler that
        # reads np.fft during that import (perfbench's speed gauge) recursed
        # until RecursionError, so features imports it when it loads.
        script = "import sys, pianocover.features; print('numpy.fft' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["True"]

    def test_windowed_dft_closed_form(self):
        # compare a whole frame against a direct DFT of the windowed signal
        rng = np.random.default_rng(3)
        x = rng.normal(size=WINDOW + HOP)
        power = stft_power(x)
        direct = np.abs(np.fft.rfft(x[HOP : HOP + WINDOW] * hann(WINDOW))) ** 2
        np.testing.assert_allclose(power[1], direct, rtol=1e-10, atol=1e-12)


# The three pools the pipeline runs over blocked STFTs: window, hop, and
# the pool that turns a power block into one row per frame.
POOLS = {
    "onset-log-mel": (1024, 256, beats._onset_log_mel),
    "chroma-fold": (2048, 1024, sync._fold_chroma),
    "model-log-mel": (WINDOW, HOP, lambda power: log_mel(power).frames),
}


def boundary_frame_counts(window):
    block = _BLOCK_SAMPLES // window
    return [1, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1,
            3 * block + 5]


def noise_with_frames(frames, window, hop):
    """Seeded noise yielding exactly ``frames`` frames, plus a partial hop."""
    rng = np.random.default_rng(frames)
    return rng.normal(scale=0.1, size=(frames - 1) * hop + window + hop // 2)


class TestPooledStft:
    @pytest.mark.parametrize("pool_name", POOLS)
    def test_blocks_match_one_whole_signal_stft(self, pool_name):
        window, hop, pool = POOLS[pool_name]
        for frames in boundary_frame_counts(window):
            x = noise_with_frames(frames, window, hop)
            whole = pool(stft_power(x, window, hop))
            assert len(whole) == frames
            assert np.array_equal(pooled_stft(x, window, hop, pool), whole), frames

    def test_onset_envelope_and_chroma_at_block_boundaries(self, monkeypatch):
        def whole_signal(audio, window, hop, pool):
            return pool(stft_power(audio, window, hop))

        for run, (window, hop, _), module in [
            (beats.onset_envelope, POOLS["onset-log-mel"], features),
            (lambda x: sync.audio_chroma(x).frames, POOLS["chroma-fold"], sync),
        ]:
            for frames in boundary_frame_counts(window)[1:]:
                x = noise_with_frames(frames, window, hop)
                blocked = run(x)
                with monkeypatch.context() as patch:
                    patch.setattr(module, "pooled_stft", whole_signal)
                    whole = run(x)
                assert np.array_equal(blocked, whole), (window, frames)

    def test_envelope_and_first_chroma_bucket_by_hand(self):
        window, hop, pool = POOLS["onset-log-mel"]
        for frames in boundary_frame_counts(window)[1:]:
            x = noise_with_frames(frames, window, hop)
            env, times = beats.onset_envelope(x)
            whole = pool(stft_power(x, window, hop))
            assert np.array_equal(env, np.maximum(np.diff(whole, axis=0), 0.0).sum(axis=1))
            assert len(times) == frames - 1
        window, hop, pool = POOLS["chroma-fold"]
        for frames in boundary_frame_counts(window):
            x = noise_with_frames(frames, window, hop)
            chroma = sync.audio_chroma(x).frames
            per_frame = pool(stft_power(x, window, hop))
            # Frames centred in the first 1/FRAME_RATE s fill bucket 0.
            first = int(np.sum((np.arange(frames) * hop + window / 2) / SAMPLE_RATE
                               < 1.0 / sync.FRAME_RATE))
            mean = per_frame[:first].mean(axis=0)
            assert np.allclose(chroma[0], mean / mean.max(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pool_name", POOLS)
    def test_a_block_is_one_power_array(self, pool_name, monkeypatch):
        window, hop, pool = POOLS[pool_name]
        frames = _BLOCK_SAMPLES // window
        x = noise_with_frames(frames, window, hop)
        # Cached tapers and filterbanks are built before tracing starts.
        pooled_stft(x[: window + hop], window, hop, pool)
        block = frames * (window // 2 + 1) * 8
        # At the module's chunk, a chunk's arrays weigh about a block, so a
        # second block made after the chunks are freed would peak no higher;
        # at a quarter chunk it would.
        for chunk_samples in (_CHUNK_SAMPLES, _CHUNK_SAMPLES // 4):
            monkeypatch.setattr(features, "_CHUNK_SAMPLES", chunk_samples)
            tracemalloc.start()
            try:
                pooled = pooled_stft(x, window, hop, pool)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # One chunk's tapered frames and complex spectra, and the pooled
            # rows, sit beside the block, and the margin is a quarter block.
            chunk = chunk_samples // window
            bound = (block + chunk * window * 8 + chunk * (window // 2 + 1) * 16
                     + pooled.nbytes + block // 4)
            assert peak <= bound, f"peak {peak / block:.2f}x the power block ({chunk} rows)"

    def test_too_short_is_error(self):
        with pytest.raises(ParameterError, match="shorter than one 1024-sample window"):
            pooled_stft(np.zeros(1023), 1024, 256, lambda power: power)

    # Traced bytes each may use on 240 s of audio, where whole-song STFT
    # arrays would take 200-400 MB: 1.6x the envelope's (frames, 64)
    # log-mel, which leaves no room for a second such array, and 4 MB for
    # the chromagram, a few power blocks and no whole-song array.
    @pytest.mark.parametrize("run,bound", [
        (beats.onset_envelope,
         1.6 * num_frames(240 * SAMPLE_RATE, beats._ONSET_WINDOW, beats._ONSET_HOP)
         * beats._ONSET_MELS * 8),
        (sync.audio_chroma, 4e6),
    ], ids=["onset_envelope", "audio_chroma"])
    def test_memory_does_not_grow_with_the_song(self, run, bound):
        audio = np.random.default_rng(240).normal(scale=0.1, size=240 * SAMPLE_RATE)
        tracemalloc.start()
        try:
            run(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{run.__name__} peaked {peak / 1e6:.1f} MB above its input"


def pcm_pulses(seconds, seed):
    """A 120-BPM pulse over noise as ``load_wav`` returns it: float32
    int16 / 32768."""
    rng = np.random.default_rng(seed)
    x = 0.05 * rng.standard_normal(int(seconds * SAMPLE_RATE))
    pulse = 0.8 * np.exp(-np.arange(2205) / 300.0) * rng.standard_normal(2205)
    for start in range(0, len(x) - len(pulse), SAMPLE_RATE // 2):
        x[start : start + len(pulse)] += pulse
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    return pcm.astype(np.float32) / np.float32(32768.0)


class TestFloat32Samples:
    @pytest.mark.parametrize("run,frames", [
        (beats.onset_envelope, lambda out: out[0]),
        (beats.track_beats, lambda out: out.beats),
        (sync.audio_chroma, lambda out: out.frames),
        (melspectrogram, lambda out: out.frames),
    ], ids=["onset_envelope", "track_beats", "audio_chroma", "melspectrogram"])
    def test_same_bits_as_the_float64_values(self, run, frames):
        audio = pcm_pulses(20, 32)
        got, want = frames(run(audio)), frames(run(audio.astype(np.float64)))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("run", [beats.track_beats, sync.audio_chroma],
                             ids=["track_beats", "audio_chroma"])
    def test_no_float64_copy_of_the_song(self, run):
        audio = pcm_pulses(60, 60)
        tracemalloc.start()
        try:
            run(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(audio), f"{run.__name__} peaked at {peak / 1e6:.1f} MB"


class TestMel:
    def test_scale_round_trip(self):
        f = np.array([0.0, 440.0, 1000.0, 11025.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12, atol=1e-9)

    def test_filter_rows_nonempty(self):
        fb = mel_filterbank()
        assert fb.shape == (128, WINDOW // 2 + 1)
        assert np.all(fb.sum(axis=1) > 0)

    def test_silence_hits_log_floor(self):
        mel = melspectrogram(np.zeros(WINDOW + 3 * HOP))
        assert np.all(mel.frames == np.log(LOG_FLOOR))

    def test_sine_peaks_at_nearest_band(self):
        mel = melspectrogram(sine(440.0, 1.0))
        centers = mel_to_hz(
            np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), 128 + 2)
        )[1:-1]
        expected_band = int(np.argmin(np.abs(centers - 440.0)))
        bands = np.argmax(mel.frames, axis=1)
        assert np.all(np.abs(bands - expected_band) <= 1)
        assert np.median(bands) == expected_band

    def test_cached_arrays_are_read_only(self):
        assert hann(WINDOW) is hann(WINDOW)
        with pytest.raises(ValueError):
            hann(WINDOW)[0] = 1.0
        with pytest.raises(ValueError):
            mel_bands(WINDOW, N_MELS)[0][2][0, 0] = 1.0

    def test_bad_n_mels(self):
        with pytest.raises(ParameterError):
            mel_bands(WINDOW, 0)

    def test_deterministic(self):
        x = sine(523.25, 0.6)
        a = melspectrogram(x)
        b = melspectrogram(x.copy())
        assert np.array_equal(a.frames, b.frames)

    def test_energy_scaling_is_exact_prelog(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=10.0, size=WINDOW + 4 * HOP)
        fb = mel_filterbank()
        e1 = stft_power(x) @ fb.T
        e2 = stft_power(2 * x) @ fb.T
        # doubling amplitude scales every pre-log mel energy by exactly 4
        assert np.array_equal(e2, 4.0 * e1)
        # and post-log difference is log(4) where energy dwarfs the 1e-6 floor
        la = log_mel(stft_power(x)).frames
        lb = log_mel(stft_power(2 * x)).frames
        strong = e1 > 1e4
        assert strong.sum() > 100
        np.testing.assert_allclose(
            (lb - la)[strong], np.log(4.0), rtol=0, atol=1e-9
        )


# The two filterbanks the pipeline applies, the model's and the onset's,
# and one so fine at the bottom that its first band has no nonzero weight.
FILTERBANKS = {
    "model": (WINDOW, N_MELS),
    "onset": (beats._ONSET_WINDOW, beats._ONSET_MELS),
    "empty-band": (1024, 1024),
}


class TestMelBands:
    @pytest.mark.parametrize("bank", FILTERBANKS)
    def test_bands_reassemble_the_filterbank(self, bank):
        fb = mel_filterbank(*FILTERBANKS[bank])
        dense = np.zeros_like(fb)
        for first, lo, slab in mel_bands(*FILTERBANKS[bank]):
            bins, filters = slab.shape
            assert not dense[first : first + filters].any()
            dense[first : first + filters, lo : lo + bins] = slab.T
        # Every nonzero weight sits in exactly one slab, in place, and each
        # slab's first and last bins carry weight.
        assert np.array_equal(dense, fb)
        for _, _, slab in mel_bands(*FILTERBANKS[bank]):
            assert not slab.size or (slab[0].any() and slab[-1].any())

    @pytest.mark.parametrize("bank", FILTERBANKS)
    def test_cold_bands_hold_no_dense_bank(self, bank):
        n_fft, n_mels = FILTERBANKS[bank]
        for value in vars(features).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        tracemalloc.start()
        try:
            bands = mel_bands(n_fft, n_mels)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = n_mels * (n_fft // 2 + 1) * 8
        slabs = sum(slab.nbytes for _, _, slab in bands)
        assert peak <= dense / 2, f"peak {peak / dense:.2f}x the dense bank"
        # Each band's tuple and array header cost about 224 bytes of objects.
        assert kept <= 1.1 * slabs + 256 * len(bands), f"kept {kept / slabs:.2f}x the slabs"

    @pytest.mark.parametrize("bank", FILTERBANKS)
    def test_bands_are_cached_and_read_only(self, bank):
        bands = mel_bands(*FILTERBANKS[bank])
        assert bands is mel_bands(*FILTERBANKS[bank])
        for _, _, slab in bands:
            with pytest.raises(ValueError):
                slab[0, 0] = 1.0

    @pytest.mark.parametrize("bank", FILTERBANKS)
    @pytest.mark.parametrize("rows", [1, 40, 512, 2048])
    def test_band_products_match_the_dense_product(self, bank, rows):
        n_fft, n_mels = FILTERBANKS[bank]
        fb = mel_filterbank(n_fft, n_mels)
        power = np.random.default_rng(rows).exponential(size=(rows, n_fft // 2 + 1)) ** 2
        got = mel_power(power, n_mels)
        np.testing.assert_allclose(got, power @ fb.T, rtol=1e-13, atol=0)


class TestWavIO:
    def test_round_trip_mono(self, tmp_path):
        x = sine(440.0, 0.3, amp=0.4)
        p = tmp_path / "a.wav"
        write_wav(p, x)
        y = load_wav(p)
        assert len(y) == len(x)
        assert np.max(np.abs(x - y)) < 2e-4  # 16-bit quantization

    def test_stereo_downmix(self, tmp_path):
        import scipy.io.wavfile

        left = (sine(440.0, 0.2, amp=0.4) * 32767).astype(np.int16)
        right = np.zeros_like(left)
        p = tmp_path / "st.wav"
        scipy.io.wavfile.write(p, SAMPLE_RATE, np.stack([left, right], axis=1))
        y = load_wav(p)
        assert np.max(np.abs(y)) == pytest.approx(0.2, abs=1e-3)

    def test_resampled_on_load(self, tmp_path):
        import scipy.io.wavfile

        sr = 44100
        t = np.arange(sr) / sr
        x = (0.4 * np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16)
        p = tmp_path / "hi.wav"
        scipy.io.wavfile.write(p, sr, x)
        y = load_wav(p)
        assert abs(len(y) - SAMPLE_RATE) <= 1
        peak_bin = np.argmax(stft_power(y)[4])
        assert abs(peak_bin * SAMPLE_RATE / WINDOW - 440.0) < 6.0

    @pytest.mark.parametrize("rate", [SAMPLE_RATE, 44100])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_scaling_and_downmix_bits_and_memory(self, tmp_path, rate, channels):
        rng = np.random.default_rng(rate + channels)
        data = rng.integers(-32768, 32768, size=(30 * rate, channels)).astype(np.int16)
        p = tmp_path / "noise.wav"
        scipy.io.wavfile.write(p, rate, data[:, 0] if channels == 1 else data)
        # The first resample in a process imports scipy.signal; its memory
        # is not the reader's, so it is paid before tracing starts.
        resample(np.zeros(64), rate)
        tracemalloc.start()
        try:
            y = load_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Per-channel scaling, then the average, as separate passes.  At
        # SAMPLE_RATE float32 holds it exactly; a resampled file is the
        # float64 reference rounded once to float32.
        expected = resample((data.astype(np.float64) / 32768.0).mean(axis=1), rate)
        assert y.dtype == np.float32
        assert np.array_equal(y, expected if rate == SAMPLE_RATE else expected.astype(np.float32))
        # Four float64 arrays of the output's length.
        assert peak <= 32 * len(y)

    def test_byte_mutations_raise_only_package_errors(self, tmp_path):
        path = tmp_path / "tone.wav"
        write_wav(path, sine(440.0, 0.2))
        blob = path.read_bytes()
        rng = np.random.default_rng(0)
        mutant = tmp_path / "mutant.wav"
        for trial in range(3000):
            data = bytearray(blob)
            # Most edits land in the RIFF, fmt and data headers.
            for _ in range(int(rng.integers(1, 4))):
                at = rng.integers(0, 64) if rng.random() < 0.8 else rng.integers(0, len(data))
                data[int(at)] = int(rng.integers(0, 256))
            if rng.random() < 0.2:
                del data[int(rng.integers(0, len(data))):]
            mutant.write_bytes(bytes(data))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    load_wav(mutant)
                except (FormatError, ParameterError):
                    pass
            assert not caught, (trial, [str(w.message) for w in caught])

    @pytest.mark.parametrize("layout", ["plain", "extensible", "list", "odd-chunk", "rifx"])
    @pytest.mark.parametrize("rate,channels", [(SAMPLE_RATE, 1), (SAMPLE_RATE, 2),
                                               (SAMPLE_RATE, 4), (44100, 1), (44100, 2)])
    def test_samples_equal_the_scipy_reader(self, tmp_path, layout, rate, channels):
        pcm = np.random.default_rng(rate + channels).integers(
            -32768, 32768, size=(rate // 4, channels), dtype=np.int16)
        order = ">" if layout == "rifx" else "<"
        fmt = fmt_chunk(channels, rate, order=order,
                        subformat=1 if layout == "extensible" else None)
        extra = {"list": [(b"LIST", b"INFOISFT\x06\0\0\0pianos")],
                 "odd-chunk": [(b"abcd", b"odd")]}.get(layout, [])
        path = tmp_path / "valid.wav"
        path.write_bytes(wav_bytes((b"fmt ", fmt), *extra,
                                   (b"data", pcm.astype(order + "i2").tobytes()),
                                   magic=b"RIFX" if layout == "rifx" else b"RIFF"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy reports chunks it skips
            scipy_rate, data = scipy.io.wavfile.read(path)
        # load_wav as it was when scipy read the file, in float64.  At
        # SAMPLE_RATE float32 holds the channel sum over 32768 * channels
        # exactly; a resampled file is rounded to float32 once, at the end.
        expected = data.reshape(len(data), -1).sum(axis=1, dtype=np.float64)
        expected /= 32768.0 * channels
        if rate != SAMPLE_RATE:
            expected = resample(expected, rate).astype(np.float32)
        assert scipy_rate == rate
        y = load_wav(path)
        assert y.dtype == np.float32
        assert np.array_equal(y, expected)

    @pytest.mark.parametrize("rate", [SAMPLE_RATE, 44100])
    @pytest.mark.parametrize("count", [1, 4001, 3 * _WAV_CHUNK_SAMPLES + 4001, None])
    def test_writer_bytes_equal_scipy_writer(self, tmp_path, rate, count):
        count = 30 * rate if count is None else count
        audio = np.random.default_rng(count).uniform(-1.1, 1.1, count)
        path = tmp_path / "out.wav"
        write_wav(path, audio, rate)
        expected = io.BytesIO()
        pcm = (np.clip(audio, -1.0, 1.0) * 32767.0).astype(np.int16)
        scipy.io.wavfile.write(expected, rate, pcm)
        assert path.read_bytes() == expected.getvalue()

    def test_writer_converts_in_chunks(self, tmp_path):
        audio = np.random.default_rng(5).uniform(-1.1, 1.1, 2_000_003)
        tracemalloc.start()
        try:
            write_wav(tmp_path / "out.wav", audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The PCM plus a few float64 chunks, not whole-signal float copies.
        assert peak <= 2 * audio.size + 4 * 8 * _WAV_CHUNK_SAMPLES

    def test_scipy_loads_only_to_resample(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, sine(440.0, 0.2))
        script = """
import json, sys
import numpy as np
import pianocover.cli, pianocover.pipeline
from pianocover.features import load_wav, resample
load_wav(sys.argv[1])
after_load = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
x = np.random.default_rng(0).standard_normal(4410)
y = resample(x, 44100)
loaded = "scipy.signal" in sys.modules
import scipy.signal
same = y.tobytes() == scipy.signal.resample_poly(x, 1, 2).tobytes()
print(json.dumps([after_load, loaded, same]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[], True, True]

    @pytest.mark.parametrize("rate", [0, MAX_SAMPLE_RATE + 1, 4_294_967_291])
    def test_rate_outside_the_bounds_is_refused_before_allocating(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        path.write_bytes(wav_bytes((b"fmt ", fmt_chunk(1, rate)), (b"data", bytes(4000))))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"sample rate {rate} Hz is outside"):
                load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("rate", [0, MAX_SAMPLE_RATE + 1, 2**31])
    def test_writer_refuses_a_rate_the_reader_refuses(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        with pytest.raises(ParameterError, match=f"sample rate {rate} Hz is outside"):
            write_wav(path, np.zeros(4), rate)
        assert not path.exists()

    def test_writer_refuses_more_samples_than_riff_counts(self, tmp_path):
        # A zero-stride view: the length is real, the memory is one sample.
        path = tmp_path / "long.wav"
        with pytest.raises(ParameterError, match="2147483630 samples are more than a WAV"):
            write_wav(path, np.broadcast_to(np.zeros(1), (MAX_WAV_SAMPLES + 1,)))
        assert not path.exists()
        assert 36 + 2 * MAX_WAV_SAMPLES <= 2**32 - 1 < 36 + 2 * (MAX_WAV_SAMPLES + 1)

    def test_rate_at_the_ceiling_loads(self, tmp_path):
        path = tmp_path / "rate.wav"
        path.write_bytes(wav_bytes((b"fmt ", fmt_chunk(1, MAX_SAMPLE_RATE)),
                                   (b"data", bytes(2 * 7680))))
        # 7680 samples at 384 kHz are 441 at SAMPLE_RATE.
        assert np.array_equal(load_wav(path), np.zeros(441))

    def test_rejects_float_wav(self, tmp_path):
        import scipy.io.wavfile

        p = tmp_path / "f.wav"
        scipy.io.wavfile.write(p, SAMPLE_RATE, np.zeros(1000, dtype=np.float32))
        with pytest.raises(ParameterError):
            load_wav(p)

    def test_resample_identity(self):
        x = sine(100.0, 0.1)
        assert resample(x, SAMPLE_RATE) is not None
        assert np.array_equal(resample(x, SAMPLE_RATE), x)


# Audio runs at SAMPLE_RATE after load_wav, write_smf writes one division
# and every segment is SEGMENT_HALFBEATS long, so no function takes one of
# these.  write_wav's rate is the ``render --rate`` option; the other three
# are parameters the benchmark passes positionally, which take only their
# constant.
FIXED_VALUES = {"sample_rate", "frame_rate", "target_rate", "ticks_per_quarter",
                "segment_halfbeats"}
SETTABLE = {("features", "write_wav", "sample_rate"), ("beats", "track_beats", "sample_rate"),
            ("sync", "align_to_audio", "sample_rate"),
            ("tokenizer", "stitch", "segment_halfbeats")}


def test_no_function_takes_a_rate_a_division_or_a_segment_length():
    found = set()
    for module in (features, beats, sync, tokenizer, midi):
        name = module.__name__.rsplit(".", 1)[1]
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is not None and arg.arg in FIXED_VALUES:
                        found.add((name, getattr(node, "name", "<lambda>"), arg.arg))
    assert found - SETTABLE == set()


def test_pinned_parameters_refuse_another_value_before_any_stft(monkeypatch):
    def no_stft(*args):
        raise AssertionError("an STFT ran before the parameter was checked")

    monkeypatch.setattr(features, "pooled_stft", no_stft)
    monkeypatch.setattr(sync, "pooled_stft", no_stft)  # sync's own name for it
    audio = np.zeros(10 * SAMPLE_RATE)
    seq = NoteSequence.build([Note(0.0, 60, 1.0)])
    for call in (lambda: beats.track_beats(audio, 44100),
                 lambda: sync.align_to_audio(seq, audio, 44100),
                 lambda: tokenizer.stitch([TokenSeq((EOS,))] * 2, 16)):
        with pytest.raises(ParameterError):
            call()
