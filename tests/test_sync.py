import math
import tracemalloc

import numpy as np
import pytest

from pianocover import sync
from pianocover.errors import AlignmentError, ParameterError, ValidationError
from pianocover.midi import Note, NoteSequence, TimeUnit
from pianocover.sync import (
    Chromagram,
    WarpPath,
    align_to_audio,
    apply_warp,
    audio_chroma,
    chroma_cost,
    dtw,
    midi_chroma,
)

SR = 22050


def sine(freq, seconds):
    return np.sin(2 * np.pi * freq * np.arange(int(seconds * SR)) / SR)


def random_chroma(rng, n, zero_frames=0):
    frames = rng.uniform(0.05, 1.0, (n, 12))
    for i in rng.choice(n, size=min(zero_frames, n), replace=False):
        frames[i] = 0.0
    return Chromagram(frames)


def dp_oracle(cost):
    """Plain two-loop DP over the same cost matrix."""
    n, m = cost.shape
    acc = [[0.0] * m for _ in range(n)]
    acc[0][0] = float(cost[0][0])
    for i in range(1, n):
        acc[i][0] = acc[i - 1][0] + float(cost[i][0])
    for j in range(1, m):
        acc[0][j] = acc[0][j - 1] + float(cost[0][j])
    for i in range(1, n):
        for j in range(1, m):
            acc[i][j] = float(cost[i][j]) + min(
                acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
            )
    return acc[n - 1][m - 1]


def dp_oracle_path(cost):
    """Scalar-loop accumulated cost matrix and its backtrace, with the
    tie order of dtw: diagonal, then source advance, then target."""
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    acc[0, 0] = cost[0, 0]
    for i in range(n):
        for j in range(m):
            prev = []
            if i > 0 and j > 0:
                prev.append(acc[i - 1, j - 1])
            if i > 0:
                prev.append(acc[i - 1, j])
            if j > 0:
                prev.append(acc[i, j - 1])
            if prev:
                acc[i, j] = cost[i, j] + min(prev)
    i, j = n - 1, m - 1
    pairs = [(i, j)]
    while i > 0 or j > 0:
        steps = []
        if i > 0 and j > 0:
            steps.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            steps.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            steps.append((acc[i, j - 1], i, j - 1))
        best = min(s[0] for s in steps)
        _, i, j = next(s for s in steps if s[0] == best)
        pairs.append((i, j))
    return acc, np.array(pairs[::-1])


class TestChromagram:
    def test_rows_are_unit_max(self):
        c = Chromagram(np.array([[0.0, 4.0] + [0.0] * 10, [0.0] * 12]))
        assert c.frames[0].max() == 1.0
        assert c.frames[1].max() == 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            Chromagram(np.zeros((3, 11)))
        with pytest.raises(ValidationError):
            Chromagram(-np.ones((3, 12)))


class TestAudioChroma:
    def test_a440_lands_on_class_9(self):
        c = audio_chroma(sine(440.0, 3.0))
        voiced = c.frames.max(axis=1) > 0
        assert voiced.any()
        assert (c.frames[voiced].argmax(axis=1) == 9).all()

    def test_octave_fold(self):
        lo = audio_chroma(sine(440.0, 3.0))
        hi = audio_chroma(sine(880.0, 3.0))
        voiced = hi.frames.max(axis=1) > 0
        assert (hi.frames[voiced].argmax(axis=1) == 9).all()
        assert lo.frames[voiced].argmax(axis=1).tolist() == hi.frames[
            voiced
        ].argmax(axis=1).tolist()

    def test_silence_is_zero(self):
        c = audio_chroma(np.zeros(SR))
        assert (c.frames == 0).all()

    def test_empty_audio_is_error(self):
        with pytest.raises(ParameterError):
            audio_chroma(np.array([]))


class TestMidiChroma:
    def test_single_note_frames(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0)])
        c = midi_chroma(seq)
        assert len(c) == 10
        assert (c.frames[:, 0] == 1.0).all()
        assert c.frames[:, 1:].sum() == 0.0

    def test_triad_equal_weight(self):
        seq = NoteSequence.build([Note(0, 60, 1), Note(0, 64, 1), Note(0, 67, 1)])
        c = midi_chroma(seq)
        assert set(np.flatnonzero(c.frames[0])) == {0, 4, 7}
        assert len(set(c.frames[0][[0, 4, 7]])) == 1

    def test_against_per_frame_recount(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            notes = []
            for _ in range(rng.integers(1, 15)):
                onset = rng.uniform(0, 8.0)
                notes.append(
                    Note(onset, int(rng.integers(21, 109)), onset + rng.uniform(0.05, 3.0))
                )
            seq = NoteSequence.build(notes)
            c = midi_chroma(seq)
            for k in range(len(c)):
                t = (k + 0.5) / 10.0
                expect = np.zeros(12)
                for n in seq:
                    if n.onset <= t < n.offset:
                        expect[n.pitch % 12] += 1.0
                if expect.max() > 0:
                    expect /= expect.max()
                np.testing.assert_array_equal(c.frames[k], expect)

    def test_requires_seconds_nonempty(self):
        with pytest.raises(ParameterError):
            midi_chroma(NoteSequence.build([Note(0, 60, 1)], TimeUnit.HALF_BEATS))
        with pytest.raises(ParameterError):
            midi_chroma(NoteSequence.build([]))


class TestCost:
    def test_zero_frame_rules(self):
        a = Chromagram(np.array([[1.0] + [0.0] * 11, [0.0] * 12]))
        cost = chroma_cost(a, a)
        assert cost[0, 0] == 0.0
        assert cost[0, 1] == 1.0
        assert cost[1, 0] == 1.0
        assert cost[1, 1] == 0.0

    def test_matches_scalar_cosine(self):
        rng = np.random.default_rng(3)
        a = random_chroma(rng, 20, zero_frames=2)
        b = random_chroma(rng, 17, zero_frames=2)
        cost = chroma_cost(a, b)
        for i in range(20):
            for j in range(17):
                u, v = a.frames[i], b.frames[j]
                nu = math.sqrt(sum(x * x for x in u))
                nv = math.sqrt(sum(x * x for x in v))
                if nu == 0 and nv == 0:
                    want = 0.0
                elif nu == 0 or nv == 0:
                    want = 1.0
                else:
                    want = 1.0 - sum(x * y for x, y in zip(u, v)) / (nu * nv)
                    if abs(want) < 1e-12:
                        want = 0.0
                assert abs(cost[i, j] - want) < 1e-12


class TestDTW:
    def test_self_alignment_is_free_diagonal(self):
        # The longer pair's near-zero costs are snapped over three row blocks.
        for frames in (30, 2 * sync._SNAP_ROWS + 3):
            c = random_chroma(np.random.default_rng(frames), frames)
            path = dtw(c, c)
            assert path.total_cost == 0.0
            np.testing.assert_array_equal(path.pairs[:, 0], path.pairs[:, 1])

    def test_doubled_frames_zero_cost(self):
        rng = np.random.default_rng(5)
        frames = rng.uniform(0.05, 1.0, (12, 12))
        src = Chromagram(frames)
        tgt = Chromagram(np.repeat(frames, 2, axis=0))
        path = dtw(src, tgt)
        assert path.total_cost == 0.0
        visited = {tuple(p) for p in path.pairs}
        assert all((i, 2 * i) in visited for i in range(12))

    def test_matches_dp_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n, m = rng.integers(1, 51, size=2)
            a = random_chroma(rng, n, zero_frames=int(rng.integers(0, 3)))
            b = random_chroma(rng, m, zero_frames=int(rng.integers(0, 3)))
            path = dtw(a, b)
            assert path.total_cost == dp_oracle(chroma_cost(a, b))
            assert tuple(path.pairs[-1]) == (n - 1, m - 1)

    def test_matrix_and_path_match_scalar_loop(self):
        rng = np.random.default_rng(13)
        shapes = [(1, 1), (1, 17), (23, 1), (2, 2), (1, 2), (2, 1)]
        shapes += [tuple(rng.integers(1, 41, size=2)) for _ in range(60)]
        for n, m in shapes:
            a = random_chroma(rng, n, zero_frames=int(rng.integers(0, 3)))
            b = random_chroma(rng, m, zero_frames=int(rng.integers(0, 3)))
            cost = chroma_cost(a, b)
            if rng.random() < 0.3:
                cost = np.round(cost, 1)  # coarse costs force tied neighbours
            acc, pairs = dp_oracle_path(cost)
            got = sync._accumulate(cost)
            assert np.array_equal(got, acc)
            np.testing.assert_array_equal(sync._backtrace(got), pairs)
        a, b = random_chroma(rng, 9), random_chroma(rng, 14)
        _, pairs = dp_oracle_path(chroma_cost(a, b))
        np.testing.assert_array_equal(dtw(a, b).pairs, pairs)

    def test_path_cost_sums_along_pairs(self):
        rng = np.random.default_rng(12)
        a = random_chroma(rng, 25)
        b = random_chroma(rng, 40)
        cost = chroma_cost(a, b)
        path = dtw(a, b)
        total = 0.0
        for i, j in path.pairs:
            total += cost[i, j]
        assert total == path.total_cost

    def test_empty_and_mismatched(self):
        c = random_chroma(np.random.default_rng(1), 5)
        with pytest.raises(ParameterError):
            dtw(Chromagram(np.zeros((0, 12))), c)

    def test_cell_budget_is_checked_before_allocating(self):
        source = Chromagram(np.ones((7000, 12)))
        target = Chromagram(np.ones((6000, 12)))
        assert len(source) * len(target) > sync.MAX_DTW_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(AlignmentError, match="aligning 7000 to 6000 chroma frames"):
                dtw(source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the cost matrix alone would be 336 MB

    def test_sweep_runs_in_one_cost_sized_buffer(self):
        rng = np.random.default_rng(2000)
        source, target = random_chroma(rng, 2000, 3), random_chroma(rng, 2000, 3)
        tracemalloc.start()
        try:
            dtw(source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float64 matrix, 8 bytes per cell, plus boolean masks over a
        # block of rows while near-zero costs are snapped.
        assert peak <= 8.5 * 2000 * 2000, f"{peak / (2000 * 2000):.2f} bytes per cell"


class TestAlignBudget:
    def test_frame_counts_match_the_chromagrams(self):
        for samples in [2048, 2049, 3071, 3072, 4096, 22050, 22050 + 1023, 10 * SR + 7]:
            frames = len(audio_chroma(np.zeros(samples)))
            assert sync._audio_chroma_frames(samples) == frames, samples
        assert sync._audio_chroma_frames(2047) == 0
        for duration in [0.01, 0.05, 0.1, 0.1 + 1e-12, 0.15, 1.0, 7.33, 60.0]:
            seq = NoteSequence.build([Note(0.0, 60, 0.01)], TimeUnit.SECONDS, duration)
            assert sync._midi_chroma_frames(seq.duration) == len(midi_chroma(seq)), duration

    def test_over_long_cover_is_refused_before_any_chromagram(self):
        audio = sine(440.0, 10.0)
        cover = NoteSequence.build([Note(0.0, 60, 12 * 3600.0)], TimeUnit.SECONDS)
        tracemalloc.start()
        try:
            with pytest.raises(AlignmentError, match=r"aligning 432000 to \d+ chroma frames"):
                align_to_audio(cover, audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the cover's chromagram alone would be 41 MB


def diagonal_path(n):
    pairs = np.stack([np.arange(n), np.arange(n)], axis=1)
    return WarpPath(pairs, 0.0)


def stretch_path(n):
    pairs = []
    for i in range(n):
        pairs.append((i, 2 * i))
        pairs.append((i, 2 * i + 1))
    return WarpPath(np.array(pairs), 0.0)


def random_path(rng, n, m):
    i = j = 0
    pairs = [(0, 0)]
    while i < n - 1 or j < m - 1:
        opts = []
        if i < n - 1 and j < m - 1:
            opts.append((1, 1))
        if i < n - 1:
            opts.append((1, 0))
        if j < m - 1:
            opts.append((0, 1))
        di, dj = opts[rng.integers(len(opts))]
        i, j = i + di, j + dj
        pairs.append((i, j))
    return WarpPath(np.array(pairs), 0.0)


class TestApplyWarp:
    def test_identity_path(self):
        seq = NoteSequence.build([Note(0.3, 60, 1.1), Note(2.0, 72, 2.5)])
        out = apply_warp(seq, diagonal_path(40))
        for a, b in zip(seq, out):
            assert a.onset == pytest.approx(b.onset, abs=1e-9)
            assert a.offset == pytest.approx(b.offset, abs=1e-9)

    def test_double_stretch(self):
        seq = NoteSequence.build([Note(0.3, 60, 1.1), Note(1.5, 72, 2.2)])
        out = apply_warp(seq, stretch_path(30))
        for a, b in zip(seq, out):
            assert b.onset == pytest.approx(2 * a.onset, abs=1e-9)
            assert b.offset == pytest.approx(2 * a.offset, abs=1e-9)

    def test_order_and_duration_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            notes = []
            for _ in range(rng.integers(2, 10)):
                onset = rng.uniform(0, 3.5)
                notes.append(
                    Note(onset, int(rng.integers(21, 109)), onset + rng.uniform(0.01, 1.0))
                )
            seq = NoteSequence.build(notes)
            path = random_path(rng, 40, int(rng.integers(10, 80)))
            out = apply_warp(seq, path)
            onsets = [n.onset for n in out]
            assert onsets == sorted(onsets)
            assert all(n.offset > n.onset for n in out)

    def test_degenerate_path(self):
        seq = NoteSequence.build([Note(0, 60, 1)])
        single = WarpPath(np.array([[0, 0]]), 0.0)
        with pytest.raises(AlignmentError):
            apply_warp(seq, single)
        flat = WarpPath(np.array([[0, 0], [0, 1], [0, 2]]), 0.0)
        with pytest.raises(AlignmentError):
            apply_warp(seq, flat)


def apply_warp_per_note(seq, path):
    """apply_warp as one interpolation call per note, over a time map that
    averages each source frame's targets with ndarray.mean."""
    pairs = path.pairs
    src_frames, starts = np.unique(pairs[:, 0], return_index=True)
    if len(src_frames) < 2:
        raise AlignmentError("path is degenerate, nothing to interpolate")
    bounds = np.append(starts, len(pairs))
    tgt_mean = np.array([pairs[a:b, 1].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    x = (src_frames + 0.5) / sync.FRAME_RATE
    y = (tgt_mean + 0.5) / sync.FRAME_RATE
    for k in range(1, len(y)):
        y[k] = max(y[k], y[k - 1] + sync._STRICT_EPS)
    notes = []
    for note in seq:
        onset, offset = sync._interp_extrapolate([note.onset, note.offset], x, y)
        notes.append(Note(float(onset), note.pitch, float(offset), note.velocity))
    duration = float(sync._interp_extrapolate([seq.duration], x, y)[0])
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration=duration)


class TestApplyWarpBits:
    def test_matches_per_note_loop(self):
        rng = np.random.default_rng(22)
        raised = 0
        for trial in range(300):
            n = int(rng.integers(1, 50))
            path = random_path(rng, n, int(rng.integers(1, 90)))
            notes = []
            for _ in range(int(rng.integers(0, 30))):
                # Onsets reach past both ends of the path, so extrapolation
                # runs both ways and can warp an onset below zero.
                onset = rng.uniform(0.0, n / 10.0 + 1.0)
                velocity = int(rng.integers(1, 128))
                notes.append(Note(onset, int(rng.integers(21, 109)),
                                  onset + rng.uniform(0.001, 2.0), velocity))
            seq = NoteSequence.build(notes, duration=n / 10.0 + 3.0)
            outcomes = []
            for warp in (apply_warp, apply_warp_per_note):
                try:
                    out = warp(seq, path)
                    outcomes.append((out.notes, out.duration))
                except ValidationError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], trial
            raised += isinstance(outcomes[0][0], type)
        assert 0 < raised < 300


def render_sines(seq, sr=SR):
    total = int((seq.duration + 0.2) * sr)
    out = np.zeros(total)
    for n in seq:
        freq = 440.0 * 2 ** ((n.pitch - 69) / 12)
        length = int((n.offset - n.onset) * sr)
        t = np.arange(length) / sr
        tone = np.sin(2 * np.pi * freq * t)
        fade = min(256, length // 2)
        if fade:
            ramp = np.linspace(0, 1, fade)
            tone[:fade] *= ramp
            tone[-fade:] *= ramp[::-1]
        s = int(n.onset * sr)
        out[s : s + length] += 0.3 * tone
    return out


def random_piece(rng, halfbeats=64, spacing=0.25):
    # A palette spanning seven pitch classes; folding everything onto a
    # single triad would leave the chroma aligner nothing to lock onto.
    scale = [48, 50, 52, 53, 55, 57, 59, 60, 62, 64, 65, 67, 69, 71, 72]
    notes = []
    for hb in range(halfbeats):
        if rng.random() < 0.7:
            for p in rng.choice(scale, size=rng.integers(1, 4), replace=False):
                dur = int(rng.integers(1, 5))
                notes.append(Note(hb * spacing, int(p), (hb + dur) * spacing))
    return NoteSequence.build(notes)


def distort(seq, rng, max_dev=0.15):
    knots = np.linspace(0.0, seq.duration, 5)
    slopes = rng.uniform(1 - max_dev, 1 + max_dev, len(knots) - 1)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])

    def warp(t):
        return float(np.interp(t, knots, ys))

    notes = [
        Note(warp(n.onset), n.pitch, warp(n.offset), n.velocity) for n in seq
    ]
    return NoteSequence.build(notes, duration=warp(seq.duration))


class TestRecovery:
    def test_distorted_cover_realigns(self):
        rng = np.random.default_rng(2024)
        hits = 0
        total = 0
        for _ in range(3):
            truth = random_piece(rng)
            audio = render_sines(truth)
            cover = distort(truth, rng)
            recovered = align_to_audio(cover, audio)
            assert len(recovered) == len(truth)
            for a, b in zip(truth, recovered):
                assert a.pitch == b.pitch
                total += 1
                hits += abs(a.onset - b.onset) <= 0.1
        assert hits / total >= 0.95
