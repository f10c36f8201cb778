import math

import numpy as np
import pytest

from pianocover.errors import (
    ParameterError,
    UndefinedMetricError,
    ValidationError,
)
from pianocover.filtering import (
    UNVOICED,
    F0Contour,
    Verdict,
    filter_pair,
    hz_to_cents,
    melody_chroma_accuracy,
    midi_topline,
    pitch_to_cents,
    read_f0_csv,
    write_f0_csv,
)
from pianocover.midi import Note, NoteSequence, TimeUnit


# A frame hop of 1024 samples at 44.1 kHz, a common f0 extractor setting.
HOP = 1024 / 44100


def hop_contour(f0_hz, hop=HOP):
    """An F0Contour of the given values, one per hop from time 0."""
    f0_hz = np.asarray(f0_hz, dtype=float)
    return F0Contour(np.arange(len(f0_hz)) * hop, f0_hz)


def pitch_hz(pitch):
    return 440.0 * 2 ** ((pitch - 69) / 12)


def random_contour(rng, n, voiced_p=0.7):
    f0 = np.where(
        rng.random(n) < voiced_p,
        np.exp(rng.uniform(np.log(80.0), np.log(1000.0), n)),
        0.0,
    )
    return hop_contour(f0)


class TestF0Contour:
    def test_validation(self):
        with pytest.raises(ValidationError):
            F0Contour(np.array([0.0, 0.1, 0.3]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError):
            F0Contour(np.array([0.0, 0.1]), np.array([-1.0, 1.0]))
        with pytest.raises(ValidationError):
            F0Contour(np.array([]), np.array([]))


class TestTopline:
    def test_single_note(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0)])
        assert midi_topline(seq, [0.25, 0.5]).tolist() == [60, 60]

    def test_highest_wins(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0), Note(0.0, 64, 1.0)])
        assert midi_topline(seq, [0.25, 0.5]).tolist() == [64, 64]

    def test_unvoiced_outside_notes(self):
        seq = NoteSequence.build([Note(0.4, 60, 0.6)])
        assert midi_topline(seq, [0.0, 0.5, 1.0]).tolist() == [UNVOICED, 60, UNVOICED]

    def test_onset_inclusive_offset_exclusive(self):
        seq = NoteSequence.build([Note(0.5, 60, 1.0)])
        assert midi_topline(seq, [0.5, 1.0]).tolist() == [60, UNVOICED]

    def test_against_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            notes = []
            for _ in range(rng.integers(1, 20)):
                onset = rng.uniform(0, 5.0)
                notes.append(
                    Note(onset, int(rng.integers(21, 109)), onset + rng.uniform(0.05, 2.0))
                )
            seq = NoteSequence.build(notes)
            grid = np.arange(rng.integers(5, 120)) * 0.05
            top = midi_topline(seq, grid)
            for k, t in enumerate(grid):
                active = [n.pitch for n in seq if n.onset <= t < n.offset]
                assert top[k] == (max(active) if active else UNVOICED)

    def test_requires_seconds(self):
        seq = NoteSequence.build([Note(0, 60, 1)], TimeUnit.HALF_BEATS)
        with pytest.raises(ParameterError):
            midi_topline(seq, [0.0, 0.5])


class TestMCA:
    def test_exact_match(self):
        ref = hop_contour(np.full(50, 440.0))
        assert melody_chroma_accuracy(ref, np.full(50, 69)) == 1.0

    def test_octave_ignored(self):
        ref = hop_contour(np.full(50, 440.0))
        assert melody_chroma_accuracy(ref, np.full(50, 57)) == 1.0
        assert melody_chroma_accuracy(ref, np.full(50, 81)) == 1.0

    def test_semitone_off_scores_zero(self):
        ref = hop_contour(np.full(50, 440.0))
        assert melody_chroma_accuracy(ref, np.full(50, 70)) == 0.0

    def test_unvoiced_est_counts_wrong(self):
        ref = hop_contour(np.full(10, 440.0))
        est = np.array([69] * 5 + [UNVOICED] * 5)
        assert melody_chroma_accuracy(ref, est) == 0.5

    def test_padding_semantics(self):
        ref = hop_contour(np.full(10, 440.0))
        # short est: missing tail counts as unvoiced, hence wrong
        assert melody_chroma_accuracy(ref, np.full(5, 69)) == 0.5
        # long est: extra frames fall on unvoiced padded reference
        assert melody_chroma_accuracy(ref, np.full(20, 69)) == 1.0

    def test_all_unvoiced_ref(self):
        ref = hop_contour(np.zeros(10))
        with pytest.raises(UndefinedMetricError):
            melody_chroma_accuracy(ref, np.full(10, 69))

    def test_octave_transposition_invariance_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ref = random_contour(rng, 200)
            est = np.where(
                rng.random(200) < 0.8, rng.integers(21, 109, 200), UNVOICED
            )
            base = melody_chroma_accuracy(ref, est)
            up = np.where(est != UNVOICED, est + 12, est)
            down = np.where(est != UNVOICED, est - 12, est)
            assert melody_chroma_accuracy(ref, up) == base
            assert melody_chroma_accuracy(ref, down) == base

    def test_against_frame_recount(self):
        offset = 1200.0 * math.log2(44.0) - 6900.0
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(5, 300))
            ref = random_contour(rng, n)
            est = np.where(
                rng.random(n) < 0.75, rng.integers(21, 109, n), UNVOICED
            )
            correct = 0
            denom = 0
            for f, p in zip(ref.f0_hz, est):
                if f <= 0:
                    continue
                denom += 1
                if p == UNVOICED:
                    continue
                rc = 1200.0 * math.log2(f / 10.0)
                ec = 100.0 * (p % 12) + offset
                d = abs((rc - ec) % 1200.0)
                if min(d, 1200.0 - d) <= 50.0:
                    correct += 1
            if denom == 0:
                with pytest.raises(UndefinedMetricError):
                    melody_chroma_accuracy(ref, est)
                continue
            got = melody_chroma_accuracy(ref, est)
            assert abs(got - correct / denom) < 1e-9

    def test_self_topline_is_perfect(self):
        rng = np.random.default_rng(5)
        notes = []
        t = 0.0
        for _ in range(30):
            dur = rng.uniform(0.1, 0.5)
            notes.append(Note(t, int(rng.integers(40, 90)), t + dur))
            t += dur
        seq = NoteSequence.build(notes)
        grid = np.arange(int(seq.duration / HOP)) * HOP
        top = midi_topline(seq, grid)
        f0 = np.where(top != UNVOICED, pitch_hz(top), 0.0)
        ref = F0Contour(grid, f0)
        assert melody_chroma_accuracy(ref, top) == 1.0

    def test_cent_helpers(self):
        assert hz_to_cents([10.0])[0] == 0.0
        assert np.isnan(hz_to_cents([0.0])[0])
        assert np.isnan(pitch_to_cents([UNVOICED])[0])
        a4 = hz_to_cents([440.0])[0]
        folded = pitch_to_cents([69])[0]
        assert abs((a4 - folded) % 1200.0) % 1200.0 == pytest.approx(0.0, abs=1e-9)


class TestFilterPair:
    def test_mca_boundary_inclusive(self):
        report = filter_pair(0.15, 100.0, 100.0)
        assert report.verdict is Verdict.DISCARD
        assert report.reasons == ("mca",)

    def test_just_above_both_boundaries(self):
        report = filter_pair(0.151, 100.0, 119.9)
        assert report.verdict is Verdict.KEEP
        assert report.reasons == ()

    def test_keep_case(self):
        assert filter_pair(0.16, 100.0, 110.0).verdict is Verdict.KEEP

    def test_length_boundary_inclusive(self):
        report = filter_pair(0.90, 100.0, 120.0)
        assert report.verdict is Verdict.DISCARD
        assert report.reasons == ("length",)
        assert report.length_ratio_diff == pytest.approx(0.20)

    def test_shorter_cover_counts_too(self):
        assert filter_pair(0.9, 100.0, 80.0).verdict is Verdict.DISCARD

    def test_both_rules_fire(self):
        report = filter_pair(0.05, 100.0, 150.0)
        assert set(report.reasons) == {"mca", "length"}

    def test_monotone(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            mca = rng.uniform(0, 1)
            cover = rng.uniform(50, 150)
            first = filter_pair(mca, 100.0, cover)
            worse = filter_pair(
                mca * 0.5, 100.0, 100.0 + (cover - 100.0) * 1.5
            )
            if first.verdict is Verdict.DISCARD:
                assert worse.verdict is Verdict.DISCARD

    def test_unmeasured_mca_leaves_the_length_rule_alone(self):
        report = filter_pair(None, 100.0, 70.0)
        assert report.verdict is Verdict.DISCARD
        assert report.reasons == ("length",)
        assert report.mca is None
        kept = filter_pair(None, 100.0, 100.0)
        assert kept.verdict is Verdict.KEEP and kept.reasons == () and kept.mca is None

    def test_bad_pop_len(self):
        with pytest.raises(ParameterError):
            filter_pair(0.5, 0.0, 10.0)


class TestF0CSV:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        contour = random_contour(rng, 100)
        p = tmp_path / "f0.csv"
        write_f0_csv(p, contour)
        back = read_f0_csv(p)
        np.testing.assert_allclose(back.times, contour.times, atol=1e-8)
        np.testing.assert_allclose(back.f0_hz, contour.f0_hz, atol=1e-5)

    def test_header_required(self, tmp_path):
        p = tmp_path / "f0.csv"
        p.write_text("t,hz\n0.0,100.0\n")
        with pytest.raises(ValidationError):
            read_f0_csv(p)

    def test_bad_rows(self, tmp_path):
        p = tmp_path / "f0.csv"
        p.write_text("time,frequency\n0.0,abc\n")
        with pytest.raises(ValidationError):
            read_f0_csv(p)
