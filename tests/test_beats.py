import numpy as np
import pytest

from pianocover import beats
from pianocover.beats import (
    BeatGrid,
    halfbeats_to_seconds,
    quantize,
    read_beat_file,
    track_beats,
    write_beat_file,
)
from pianocover.errors import NoBeatsError, ParameterError, ValidationError
from pianocover.midi import Note, NoteSequence, TimeUnit
from pianocover.tokenizer import EOS, TokenSeq, decode_segment

SR = 22050


def grid_120bpm(n_beats=16):
    # beats at 0.0, 0.5, 1.0, ... -> half-beats every 0.25 s
    return BeatGrid(np.arange(n_beats) * 0.5)


def click_track(period=0.5, seconds=30.0, start=0.0, sr=SR):
    x = np.zeros(int(seconds * sr))
    t = start
    while t < seconds - 0.05:
        s = int(t * sr)
        dur = int(0.03 * sr)
        burst = np.sin(2 * np.pi * 1000 * np.arange(dur) / sr)
        burst *= np.exp(-np.arange(dur) / (0.005 * sr))
        x[s : s + dur] += burst
        t += period
    return x


class TestBeatGrid:
    def test_halfbeat_construction(self):
        g = BeatGrid(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(g.half_beats, [0.0, 0.25, 0.5, 0.75, 1.0, 1.25])
        assert len(g.half_beats) == 2 * len(g.beats)

    def test_trailing_midpoint_follows_last_interval(self):
        g = BeatGrid(np.array([0.0, 0.4, 1.0]))
        np.testing.assert_allclose(g.half_beats, [0.0, 0.2, 0.4, 0.7, 1.0, 1.3])

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            BeatGrid(np.array([0.0]))
        with pytest.raises(ValidationError):
            BeatGrid(np.array([0.0, 1.0, 1.0]))

    def test_beat_file_round_trip(self, tmp_path):
        g = grid_120bpm()
        p = tmp_path / "beats.txt"
        write_beat_file(p, g)
        g2 = read_beat_file(p)
        np.testing.assert_allclose(g2.beats, g.beats, atol=1e-9)

    def test_beat_file_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ValidationError):
            read_beat_file(p)


class TestQuantize:
    def test_nearest_grid_arithmetic(self):
        g = grid_120bpm()
        seq = NoteSequence.build([Note(0.26, 60, 0.80, 90)])
        q = quantize(seq, g)
        assert (q.notes[0].onset, q.notes[0].offset) == (1, 3)
        assert q.notes[0].velocity == 90

    def test_collision_rule_moves_offset(self):
        g = grid_120bpm()
        q = quantize(NoteSequence.build([Note(0.26, 60, 0.27, 64)]), g)
        assert (q.notes[0].onset, q.notes[0].offset) == (1, 2)

    def test_tie_rounds_down(self):
        g = grid_120bpm()
        # 0.125 is exactly between half-beats 0 and 1 -> earlier index;
        # collision then pushes the offset up.
        q = quantize(NoteSequence.build([Note(0.125, 60, 0.375, 64)]), g)
        assert (q.notes[0].onset, q.notes[0].offset) == (0, 1)

    def test_grid_aligned_is_identity_on_indices(self):
        g = grid_120bpm()
        seq = NoteSequence.build(
            [Note(0.25 * i, 50 + i, 0.25 * (i + 2)) for i in range(8)]
        )
        q = quantize(seq, g)
        assert [(n.onset, n.offset) for n in q] == [(i, i + 2) for i in range(8)]

    def test_clamping_outside_grid(self):
        g = BeatGrid(np.array([1.0, 1.5, 2.0]))
        q = quantize(NoteSequence.build([Note(0.0, 60, 9.9)]), g)
        assert q.notes[0].onset == 0
        assert q.notes[0].offset == len(g.half_beats) - 1

    def test_duplicates_merge(self):
        g = grid_120bpm()
        seq = NoteSequence.build(
            [Note(0.26, 60, 0.80, 40), Note(0.24, 60, 0.76, 99)]
        )
        q = quantize(seq, g)
        assert len(q) == 1
        assert q.notes[0].velocity == 99

    def test_offset_always_after_onset(self):
        rng = np.random.default_rng(42)
        g = grid_120bpm()
        for _ in range(300):
            onset = rng.uniform(0, 7.0)
            offset = onset + rng.uniform(1e-4, 0.5)
            q = quantize(NoteSequence.build([Note(onset, 60, offset)]), g)
            assert q.notes[0].offset >= q.notes[0].onset + 1

    def test_requires_seconds(self):
        with pytest.raises(ParameterError):
            quantize(NoteSequence.build([], TimeUnit.HALF_BEATS), grid_120bpm())


class TestHalfbeatsToSeconds:
    def test_basic_lookup(self):
        g = grid_120bpm()
        seq = NoteSequence.build([Note(0, 60, 3)], TimeUnit.HALF_BEATS)
        out = halfbeats_to_seconds(seq, g)
        assert out.notes[0].onset == 0.0
        assert out.notes[0].offset == 0.75

    def test_extrapolation_past_grid(self):
        g = BeatGrid(np.array([0.0, 0.5]))  # half-beats 0, .25, .5, .75
        seq = NoteSequence.build([Note(3, 60, 5)], TimeUnit.HALF_BEATS)
        out = halfbeats_to_seconds(seq, g)
        assert out.notes[0].onset == pytest.approx(0.75)
        assert out.notes[0].offset == pytest.approx(1.25)

    def test_matches_one_scalar_lookup_per_time(self):
        rng = np.random.default_rng(17)
        g = BeatGrid(np.cumsum(rng.uniform(0.3, 0.7, 12)))
        last = len(g.half_beats)
        # Onsets run past the grid's last half-beat, so some notes and the
        # duration extrapolate.
        notes = []
        for _ in range(80):
            onset = int(rng.integers(0, last + 10))
            notes.append(Note(onset, int(rng.integers(21, 109)),
                              onset + int(rng.integers(1, 6)), int(rng.integers(1, 128))))
        seq = NoteSequence.build(notes, TimeUnit.HALF_BEATS, duration=last + 20)
        out = halfbeats_to_seconds(seq, g)
        want = [Note(g.halfbeat_to_seconds(n.onset), n.pitch,
                     g.halfbeat_to_seconds(n.offset), n.velocity) for n in seq]
        assert any(n.offset > last for n in seq)
        assert out.notes == tuple(want)
        assert all(type(n.onset) is float and type(n.offset) is float for n in out)
        assert out.duration == g.halfbeat_to_seconds(last + 20)

    def test_empty_piece(self):
        g = grid_120bpm()
        for duration in (0, 5, 40):
            out = halfbeats_to_seconds(NoteSequence.build([], TimeUnit.HALF_BEATS, duration), g)
            assert out.notes == () and out.time_unit is TimeUnit.SECONDS
            assert out.duration == g.halfbeat_to_seconds(duration)

    def test_integral_float_indices_map_like_integers(self):
        g = BeatGrid(np.cumsum(np.random.default_rng(3).uniform(0.3, 0.7, 6)))
        ints = np.arange(-2, len(g.half_beats) + 4)
        assert np.array_equal(g.halfbeat_to_seconds(ints.astype(float)),
                              g.halfbeat_to_seconds(ints))
        for i in ints.tolist():
            assert g.halfbeat_to_seconds(float(i)) == g.halfbeat_to_seconds(i)

    @pytest.mark.parametrize("index", [2.5, -0.5, float("nan"), float("inf"), [1.0, 3.25]])
    def test_non_integral_index_is_a_parameter_error(self, index):
        with pytest.raises(ParameterError, match="is not an integer"):
            grid_120bpm().halfbeat_to_seconds(index)

    def test_empty_piece_with_a_float_duration(self):
        # A segment with no notes decodes to a duration of 0.0, as does an
        # empty half-beat piece built without one.
        g = grid_120bpm()
        decoded, _ = decode_segment(TokenSeq((EOS,)), {})
        for piece in (decoded, NoteSequence.build([], TimeUnit.HALF_BEATS)):
            assert piece.notes == () and type(piece.duration) is float
            out = halfbeats_to_seconds(piece, g)
            assert out.notes == () and out.duration == g.halfbeat_to_seconds(0)

    def test_strictly_monotone_in_index(self):
        g = BeatGrid(np.cumsum(np.random.default_rng(1).uniform(0.3, 0.7, 20)))
        secs = [g.halfbeat_to_seconds(i) for i in range(2 * len(g.beats) + 5)]
        assert all(b > a for a, b in zip(secs, secs[1:]))

    def test_projection_idempotence(self):
        rng = np.random.default_rng(9)
        g = grid_120bpm(32)
        for _ in range(200):
            notes = []
            for _ in range(rng.integers(1, 12)):
                onset = rng.uniform(0, 14.0)
                notes.append(
                    Note(onset, int(rng.integers(21, 109)), onset + rng.uniform(0.01, 2.0))
                )
            q1 = quantize(NoteSequence.build(notes), g)
            q2 = quantize(halfbeats_to_seconds(q1, g), g)
            assert q1 == q2


class TestTracker:
    def test_click_track_accuracy(self):
        grid = track_beats(click_track())
        err = np.abs(grid.beats / 0.5 - np.round(grid.beats / 0.5)) * 0.5
        assert np.mean(err <= 0.07) >= 0.95
        assert len(grid.beats) >= 50

    def test_silence_is_error(self):
        with pytest.raises(NoBeatsError):
            track_beats(np.zeros(10 * SR))

    def test_too_short_is_error(self):
        with pytest.raises(NoBeatsError):
            track_beats(click_track(seconds=3.0)[: 3 * SR])

    def test_shift_invariant_tempo(self):
        g1 = track_beats(click_track())
        g2 = track_beats(click_track(start=0.1))
        ibi1 = np.median(np.diff(g1.beats))
        ibi2 = np.median(np.diff(g2.beats))
        assert abs(ibi1 - 0.5) <= 0.01
        assert abs(ibi2 - ibi1) <= 0.01


def tempo_period_full_correlate(env, frame_rate):
    """estimate_tempo_period over every lag of np.correlate: the reference
    for the version that computes only the lags it reads."""
    kernel = np.hanning(7)
    x = np.convolve(env, kernel / kernel.sum(), mode="same")
    x = x - x.mean()
    acf = np.correlate(x, x, mode="full")[len(x) - 1 :]
    lag_min = max(2, int(np.floor(frame_rate * 60.0 / beats.TEMPO_MAX_BPM)))
    lag_max = int(np.ceil(frame_rate * 60.0 / beats.TEMPO_MIN_BPM))
    if lag_max >= len(acf):
        raise NoBeatsError("audio too short to estimate a tempo")
    lags = np.arange(lag_min, lag_max + 1)
    bpm = 60.0 * frame_rate / lags
    prior = np.exp(-0.5 * np.log2(bpm / 120.0) ** 2)
    window = acf[lag_min : lag_max + 1] * prior
    k = lag_min + int(np.argmax(window))
    period = float(k)
    if 1 <= k < len(acf) - 1:
        a, b, c = acf[k - 1], acf[k], acf[k + 1]
        denom = a - 2 * b + c
        if denom < 0:
            period = k + 0.5 * (a - c) / denom
    return float(np.clip(period, lag_min, lag_max))


ONSET_FRAME_RATE = SR / beats._ONSET_HOP
LAG_MAX = int(np.ceil(ONSET_FRAME_RATE))  # the 60 BPM lag


class TestTempoPeriod:
    def test_matches_full_correlate_on_seeded_envelopes(self):
        rng = np.random.default_rng(60)
        lengths = [LAG_MAX + 1, LAG_MAX + 2, 200, 1001, 5000, 20000]
        for n in lengths:
            for period in [28.4, 43.0, 61.7, 86.0]:
                env = rng.exponential(size=n)
                env[np.round(np.arange(0, n, period)).astype(int)] += 5.0
                assert beats.estimate_tempo_period(env) == \
                    tempo_period_full_correlate(env, ONSET_FRAME_RATE), (n, period)

    @pytest.mark.parametrize("n", [LAG_MAX + 1, LAG_MAX + 2])
    def test_matches_at_the_shortest_lengths(self, n):
        # Three signed values at each end put the peak on the longest lag
        # in about one envelope in ten; at LAG_MAX + 1 frames that lag has
        # no right-hand neighbour for the parabola.
        rng = np.random.default_rng(n)
        for _ in range(200):
            env = np.zeros(n)
            env[:3], env[-3:] = rng.normal(size=(2, 3))
            period = beats.estimate_tempo_period(env)
            assert period == tempo_period_full_correlate(env, ONSET_FRAME_RATE)

    def test_too_short_is_error_in_both(self):
        env = np.ones(LAG_MAX)
        with pytest.raises(NoBeatsError):
            beats.estimate_tempo_period(env)
        with pytest.raises(NoBeatsError):
            tempo_period_full_correlate(env, ONSET_FRAME_RATE)

    @pytest.mark.parametrize("seconds_per_beat", [0.4, 0.5, 0.6, 0.75])
    def test_matches_full_correlate_on_click_tracks(self, seconds_per_beat):
        env, _ = beats.onset_envelope(click_track(seconds_per_beat))
        period = beats.estimate_tempo_period(env)
        assert period == tempo_period_full_correlate(env, ONSET_FRAME_RATE)
        assert abs(period / ONSET_FRAME_RATE - seconds_per_beat) < 0.02


def dp_beat_select_loop(env, period):
    """Per-frame DP loop: the reference for the blocked _dp_beat_select."""
    n = len(env)
    scale = env.std()
    strength = env / scale if scale > 0 else env
    score = strength.copy()
    backlink = np.full(n, -1, dtype=np.int64)
    lo = max(1, int(round(period / 2)))
    hi = int(round(period * 2))
    for i in range(lo, n):
        j0 = max(0, i - hi)
        j1 = i - lo + 1
        if j1 <= j0:
            continue
        prev = np.arange(j0, j1)
        penalty = beats._TIGHTNESS * np.log((i - prev) / period) ** 2
        cand = score[j0:j1] - penalty
        best = int(np.argmax(cand))
        score[i] = strength[i] + cand[best]
        backlink[i] = j0 + best
    tail = max(n - int(round(period)), 0)
    end = tail + int(np.argmax(score[tail:]))
    path = [end]
    while backlink[path[-1]] >= 0:
        path.append(backlink[path[-1]])
    return np.array(path[::-1], dtype=np.int64)


class TestDpBeatSelect:
    @pytest.mark.parametrize("period", [28.0, 43.0, 86.1])
    def test_matches_per_frame_loop(self, period):
        rng = np.random.default_rng(int(period * 10))
        for n in [3, int(period), int(2 * period) + 1, 1500]:
            env = rng.exponential(size=n)
            np.testing.assert_array_equal(
                beats._dp_beat_select(env, period), dp_beat_select_loop(env, period)
            )

    @pytest.mark.parametrize("period", [28.0, 43.0, 86.1])
    def test_plateaus_break_ties_like_the_loop(self, period):
        # Flat runs make many predecessors score exactly alike, so any
        # change in which one wins a tie changes the beat list.
        rng = np.random.default_rng(7)
        env = np.repeat(rng.integers(0, 3, size=120).astype(float), 9)
        got = beats._dp_beat_select(env, period)
        np.testing.assert_array_equal(got, dp_beat_select_loop(env, period))
        flat = np.ones(1000)
        np.testing.assert_array_equal(
            beats._dp_beat_select(flat, period), dp_beat_select_loop(flat, period)
        )
