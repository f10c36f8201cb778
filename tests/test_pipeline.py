"""End-to-end tests: dataset builds, cover generation, stats, and the CLI."""

import json

import numpy as np
import pytest

from pianocover.beats import BeatGrid, halfbeats_to_seconds, read_beat_file, write_beat_file
from pianocover.cli import main
from pianocover.errors import ParameterError
from pianocover.features import SAMPLE_RATE, load_wav, write_wav
from pianocover.filtering import (
    UNVOICED,
    F0Contour,
    Verdict,
    hz_to_cents,
    midi_topline,
    pitch_to_cents,
    write_f0_csv,
)
from pianocover.midi import Note, NoteSequence, TimeUnit, parse_smf, write_smf
from pianocover.model import (
    desk_config,
    greedy_generate,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from pianocover.pipeline import (
    BuildReport,
    CoverJob,
    PairRecord,
    build_dataset,
    build_pair,
    eval_stats,
    generate_cover,
    load_dataset,
    render_sine_audio,
    _resolve_pitch_overlaps,
    _window_spectrogram,
    save_dataset,
)
from pianocover.tokenizer import EOS, TokenSeq, decode_segment, stitch

# A palette spanning seven pitch classes; chroma alignment needs the
# harmony to actually move.
PALETTE = [48, 50, 52, 53, 55, 57, 59, 60, 62, 64, 65, 67, 69, 71, 72]


def make_grid(n_beats, bpm=120.0, start=0.25):
    return BeatGrid(start + (60.0 / bpm) * np.arange(n_beats))


def random_piece(rng, n_halfbeats, min_len=4):
    """Half-beat piece with sustained notes and no same-pitch overlap."""
    notes = []
    busy = {}
    for t in range(n_halfbeats - min_len):
        if rng.random() < 0.45:
            continue
        for pitch in rng.choice(PALETTE, size=int(rng.integers(1, 4)), replace=False):
            pitch = int(pitch)
            if busy.get(pitch, 0) > t:
                continue
            end = min(t + int(rng.integers(min_len, 9)), n_halfbeats)
            busy[pitch] = end
            notes.append(Note(t, pitch, end))
    if not notes:
        notes.append(Note(0, 60, n_halfbeats))
    return NoteSequence.build(
        notes, TimeUnit.HALF_BEATS, duration=n_halfbeats, validate=False
    )


def topline_contour(seq, hop=0.02, guard=0.15):
    """The sequence's own top line as a melody reference.

    Frames are voiced only where the top line is stable for +-guard
    seconds, the way a real extractor goes unvoiced at transitions.
    """
    n = int(seq.duration / hop)
    times = np.arange(n) * hop
    top = midi_topline(seq, times)
    margin = int(round(guard / hop))
    f0 = np.zeros(n)
    for i in range(n):
        if top[i] == UNVOICED:
            continue
        lo, hi = max(0, i - margin), min(n, i + margin + 1)
        if np.all(top[lo:hi] == top[i]):
            f0[i] = 440.0 * 2.0 ** ((top[i] - 69) / 12.0)
    return F0Contour(times, f0)


def make_pair(tmp_path, rng, name="pair", n_beats=16, arranger_id=0, transpose=0):
    """Write a synthetic (pop wav, cover mid, beats, f0) record to disk."""
    grid = make_grid(n_beats)
    piece = random_piece(rng, 2 * n_beats - 4)
    seconds = halfbeats_to_seconds(piece, grid)
    audio = render_sine_audio(seconds, SAMPLE_RATE)
    wav = tmp_path / f"{name}.wav"
    write_wav(wav, audio)
    cover = seconds if transpose == 0 else NoteSequence.build(
        [Note(n.onset, n.pitch + transpose, n.offset, n.velocity) for n in seconds],
        TimeUnit.SECONDS,
        duration=seconds.duration,
    )
    mid = tmp_path / f"{name}.mid"
    mid.write_bytes(write_smf(cover))
    beats = tmp_path / f"{name}.beats"
    write_beat_file(beats, grid)
    f0 = tmp_path / f"{name}.csv"
    write_f0_csv(f0, topline_contour(seconds))
    record = PairRecord(
        pop_audio=str(wav),
        cover_midi=str(mid),
        arranger_id=arranger_id,
        beats=str(beats),
        f0=str(f0),
    )
    return record, grid, piece, seconds


def toy_checkpoint(tmp_path, seed=0, **overrides):
    base = dict(
        d_model=32,
        num_heads=4,
        d_ff=64,
        num_encoder_layers=1,
        num_decoder_layers=1,
        n_mels=32,
        num_arrangers=4,
        relative_bias_buckets=8,
        relative_bias_max_distance=20,
        max_decode_len=48,
    )
    base.update(overrides)
    cfg = desk_config(**base)
    params = init_params(cfg, seed=seed)
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, params, cfg)
    return path, cfg


class TestRenderSineAudio:
    def _spectrum(self, samples, sample_rate):
        mag = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
        freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
        return freqs, mag

    def test_single_note_dominant_frequency(self):
        seq = NoteSequence.build([Note(0.1, 69, 1.1)], duration=1.2)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        span = audio[int(0.2 * SAMPLE_RATE) : int(1.0 * SAMPLE_RATE)]
        freqs, mag = self._spectrum(span, SAMPLE_RATE)
        assert abs(freqs[int(np.argmax(mag))] - 440.0) < 2.0

    def test_silence_between_notes(self):
        seq = NoteSequence.build(
            [Note(0.0, 60, 0.5), Note(1.5, 64, 2.0)], duration=2.0
        )
        audio = render_sine_audio(seq, SAMPLE_RATE)
        gap = audio[int(0.6 * SAMPLE_RATE) : int(1.4 * SAMPLE_RATE)]
        assert np.abs(gap).max() <= 1e-3

    def test_chord_has_both_peaks(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0), Note(0.0, 67, 1.0)], duration=1.0)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        freqs, mag = self._spectrum(audio, SAMPLE_RATE)
        for pitch in (60, 67):
            f = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
            window = (freqs > f - 5) & (freqs < f + 5)
            assert mag[window].max() > 0.2 * mag.max()

    def test_peak_normalized(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0)], duration=1.0)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        assert abs(np.abs(audio).max() - 0.9) < 1e-9

    def test_empty_rejected(self):
        seq = NoteSequence.build([], duration=1.0)
        with pytest.raises(ParameterError):
            render_sine_audio(seq, SAMPLE_RATE)


class TestBuildPair:
    def test_self_pair_keeps_with_full_mca(self, tmp_path):
        rng = np.random.default_rng(0)
        record, _, piece, _ = make_pair(tmp_path, rng)
        built = build_pair(record)
        assert built.report.verdict is Verdict.KEEP
        assert built.report.mca == 1.0
        assert built.report.length_ratio_diff < 0.02
        assert len(built.examples) >= 1

    def test_transposed_cover_discarded(self, tmp_path):
        rng = np.random.default_rng(1)
        record, _, _, _ = make_pair(tmp_path, rng, name="tritone", transpose=6)
        built = build_pair(record)
        assert built.report.verdict is Verdict.DISCARD
        assert "mca" in built.report.reasons
        assert built.report.mca <= 0.15
        assert built.examples == []

    def test_examples_decode_within_window(self, tmp_path):
        rng = np.random.default_rng(2)
        record, _, _, _ = make_pair(tmp_path, rng, name="win")
        built = build_pair(record)
        for _, arranger_id, tokens in built.examples:
            assert arranger_id == record.arranger_id
            closed, open_map = decode_segment(tokens.ids)
            for note in closed:
                assert 0 <= note.onset < 8
                assert 21 <= note.pitch <= 108
            for pitch, onset in open_map.items():
                assert 0 <= onset < 8
                assert 21 <= pitch <= 108


class TestBuildDataset:
    def test_empty_manifest(self):
        examples, report = build_dataset([])
        assert examples == []
        assert (report.total, report.kept, report.discarded, report.failed) == (0, 0, 0, 0)

    def test_mixed_records(self, tmp_path):
        rng = np.random.default_rng(3)
        good, _, _, _ = make_pair(tmp_path, rng, name="good", arranger_id=1)
        bad, _, _, _ = make_pair(tmp_path, rng, name="bad", transpose=6)
        missing = PairRecord(str(tmp_path / "nope.wav"), good.cover_midi, 0)
        not_wav = tmp_path / "not_wav.wav"
        not_wav.write_bytes(b"ID3 this is not a RIFF file")
        garbled = PairRecord(str(not_wav), good.cover_midi, 0)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"time,frequency\n0.0,0.0\n# caf\xe9\n")
        undecodable = PairRecord(good.pop_audio, good.cover_midi, 0, good.beats, str(latin1))
        examples, report = build_dataset([good, bad, missing, garbled, undecodable])
        assert (report.kept, report.discarded, report.failed) == (1, 1, 3)
        statuses = [e["status"] for e in report.entries]
        assert statuses == ["kept", "discarded", "failed", "failed", "failed"]
        assert "not a readable WAV file" in report.entries[3]["reason"]
        assert "latin1.csv: not UTF-8 text" in report.entries[4]["reason"]
        assert report.entries[0]["n_examples"] == len(examples) >= 1
        assert all(aid == 1 for _, aid, _ in examples)

    def test_rebuild_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        record, _, _, _ = make_pair(tmp_path, rng, name="idem")
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"ds_{run}"
            build_dataset([record], out_dir=out)
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b and len(files_a) >= 3
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        record, _, _, _ = make_pair(tmp_path, rng, name="rt", arranger_id=2)
        out = tmp_path / "ds"
        examples, report = build_dataset([record], out_dir=out)
        loaded, loaded_report = load_dataset(out)
        assert len(loaded) == len(examples)
        assert loaded_report["kept"] == report.kept
        for (spec, aid, tokens), (frames, laid, ltokens) in zip(examples, loaded):
            assert np.array_equal(np.asarray(spec.frames), frames)
            assert (aid, tokens.ids) == (laid, ltokens.ids)


class TestGenerateCover:
    def _job(self, tmp_path, rng, n_beats=16, **ckpt_overrides):
        record, grid, _, _ = make_pair(tmp_path, rng, name="cov", n_beats=n_beats)
        ckpt, cfg = toy_checkpoint(tmp_path, **ckpt_overrides)
        job = CoverJob(
            audio=record.pop_audio,
            arranger_id=1,
            checkpoint=str(ckpt),
            output=str(tmp_path / "cover.mid"),
            beats=record.beats,
        )
        return job, grid, cfg

    def test_output_is_valid_midi(self, tmp_path):
        job, grid, _ = self._job(tmp_path, np.random.default_rng(6))
        seq = generate_cover(job)
        assert job.windows == (len(grid.half_beats)) // 8
        parsed = parse_smf((tmp_path / "cover.mid").read_bytes())
        assert len(parsed.notes) == len(seq.notes)
        onsets = [n.onset for n in seq]
        assert onsets == sorted(onsets)
        for note in seq:
            assert 21 <= note.pitch <= 108
        final = grid.halfbeat_to_seconds(len(grid.half_beats))
        assert seq.duration <= final + 1e-9

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        job, _, _ = self._job(tmp_path, rng)
        generate_cover(job)
        first = (tmp_path / "cover.mid").read_bytes()
        job2 = CoverJob(
            audio=job.audio,
            arranger_id=job.arranger_id,
            checkpoint=job.checkpoint,
            output=job.output,
            beats=job.beats,
        )
        generate_cover(job2)
        assert (tmp_path / "cover.mid").read_bytes() == first

    def test_lockstep_matches_window_by_window(self, tmp_path):
        job, _, _ = self._job(tmp_path, np.random.default_rng(21))
        # A tempo that changes every four beats gives every window its
        # own frame count.
        spacing = [0.5] * 4 + [0.35] * 4 + [0.6] * 4 + [0.45] * 3
        write_beat_file(job.beats, BeatGrid(0.25 + np.cumsum([0.0] + spacing)))
        params, config = load_checkpoint(job.checkpoint)
        # EOS takes the output row of token 26, which some windows settle
        # on, so those windows stop early and the others hit the cap.
        params["token_emb"][EOS] = params["token_emb"][26]
        save_checkpoint(job.checkpoint, params, config)
        generate_cover(job)

        audio = load_wav(job.audio)
        grid = read_beat_file(job.beats)
        specs = [_window_spectrogram(audio, grid, w, config.n_mels) for w in range(4)]
        assert len({len(spec.frames) for spec in specs}) == 4
        segments = [greedy_generate(spec, job.arranger_id, params, config) for spec in specs]
        stopped = [tokens.ids[-1] == EOS for tokens in segments]
        assert any(stopped) and not all(stopped)
        piece = _resolve_pitch_overlaps(stitch(segments))
        expected = write_smf(halfbeats_to_seconds(piece, grid))
        assert (tmp_path / "cover.mid").read_bytes() == expected
        assert (job.windows, job.truncated_segments) == (4, stopped.count(False))

    def test_exactly_four_beats_is_one_window(self, tmp_path):
        job, grid, _ = self._job(tmp_path, np.random.default_rng(8), n_beats=4)
        generate_cover(job)
        assert len(grid.half_beats) == 8
        assert job.windows == 1

    def test_fewer_than_four_beats_rejected(self, tmp_path):
        job, _, _ = self._job(tmp_path, np.random.default_rng(9), n_beats=3)
        with pytest.raises(ParameterError):
            generate_cover(job)


class TestEvalStats:
    def _cover(self, density, seconds=10.0, pitch=60):
        count = int(density * seconds)
        notes = [Note(i * seconds / count, pitch, i * seconds / count + 0.2) for i in range(count)]
        return NoteSequence.build(notes, duration=seconds, validate=False)

    def test_mean_density(self):
        covers = [(self._cover(2.0), 3), (self._cover(4.0), 3)]
        stats = eval_stats(covers)
        assert stats["arrangers"][3]["count"] == 2
        assert stats["arrangers"][3]["mean_density"] == pytest.approx(3.0)

    def test_groups_by_arranger(self):
        covers = [(self._cover(2.0), 0), (self._cover(4.0), 1)]
        stats = eval_stats(covers)
        assert stats["arrangers"][0]["mean_density"] == pytest.approx(2.0)
        assert stats["arrangers"][1]["mean_density"] == pytest.approx(4.0)

    def test_amca_self_consistency(self):
        rng = np.random.default_rng(10)
        covers = []
        contours = []
        for k in range(3):
            grid = make_grid(12)
            piece = random_piece(rng, 20)
            seconds = halfbeats_to_seconds(piece, grid)
            covers.append((seconds, k))
            contours.append(topline_contour(seconds))
        stats = eval_stats(covers, contours)
        assert stats["amca"] == 1.0

    def test_amca_matches_per_frame_recount(self):
        rng = np.random.default_rng(11)
        grid = make_grid(12)
        seconds = halfbeats_to_seconds(random_piece(rng, 20), grid)
        contour = topline_contour(seconds, guard=0.0)
        stats = eval_stats([(seconds, 0)], [contour])

        top = midi_topline(seconds, contour.times)
        ref_cents = hz_to_cents(contour.f0_hz)
        est_cents = pitch_to_cents(top)
        hits = total = 0
        for r, e, voiced in zip(ref_cents, est_cents, contour.f0_hz > 0):
            if not voiced:
                continue
            total += 1
            if not np.isnan(e):
                d = abs((r - e) % 1200.0)
                if min(d, 1200.0 - d) <= 50.0:
                    hits += 1
        assert abs(stats["amca"] - hits / total) < 1e-9

    def test_errors(self):
        with pytest.raises(ParameterError):
            eval_stats([])
        with pytest.raises(ParameterError):
            eval_stats([(self._cover(2.0), 0)], [])


class TestCli:
    def test_tokenize_detokenize_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        piece = random_piece(rng, 24)
        step = 0.25
        notes = [
            Note(n.onset * step, n.pitch, n.offset * step, n.velocity) for n in piece
        ]
        seconds = NoteSequence.build(notes, duration=piece.duration * step)
        src = tmp_path / "in.mid"
        src.write_bytes(write_smf(seconds))
        tokens = tmp_path / "piece.tokens"
        out = tmp_path / "out.mid"
        assert main(["tokenize", str(src), str(tokens)]) == 0
        assert main(["detokenize", str(tokens), str(out)]) == 0
        assert parse_smf(out.read_bytes()).notes == seconds.notes

    def test_sync_and_filter_commands(self, tmp_path):
        rng = np.random.default_rng(13)
        record, _, _, seconds = make_pair(tmp_path, rng, name="cli")
        aligned = tmp_path / "aligned.mid"
        code = main(
            ["sync", record.pop_audio, record.cover_midi, str(aligned),
             "--beats", record.beats]
        )
        assert code == 0
        assert len(parse_smf(aligned.read_bytes()).notes) == len(seconds.notes)

        report_path = tmp_path / "report.json"
        code = main(
            ["filter", str(aligned), record.f0,
             "--pop-seconds", str(seconds.duration), "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "keep"
        assert report["mca"] == 1.0

    def test_sync_keeps_one_note_per_pitch_like_build_dataset(self, tmp_path, caplog):
        # Each restrike starts 10 ms after a 50 ms note of the same pitch;
        # both snap to one half-beat onset, and only one of them can sound.
        notes = []
        for k in range(12):
            t = 1.0 + 2.0 * k
            pitch = PALETTE[3 * k % len(PALETTE)]
            notes += [Note(t, pitch, t + 0.05), Note(t + 0.06, pitch, t + 0.5),
                      Note(t + 0.5, PALETTE[(3 * k + 5) % len(PALETTE)], t + 1.5)]
        cover = NoteSequence.build(notes, duration=26.0)
        wav, mid, beats = (tmp_path / f"song.{ext}" for ext in ("wav", "mid", "beats"))
        write_wav(wav, render_sine_audio(cover))
        mid.write_bytes(write_smf(cover))
        write_beat_file(beats, make_grid(52))
        out = tmp_path / "synced.mid"
        assert main(["sync", str(wav), str(mid), str(out), "--beats", str(beats)]) == 0
        with caplog.at_level("WARNING", logger="pianocover.midi"):
            synced = parse_smf(out.read_bytes())
        assert not [r for r in caplog.records if "no matching note-on" in r.message]

        built = build_pair(PairRecord(str(wav), str(mid), 0, beats=str(beats)))
        assert built.kept and built.dropped_segments == 0
        piece = stitch([tokens for _, _, tokens in built.examples])
        expected = halfbeats_to_seconds(piece, read_beat_file(beats))
        assert len(synced) == len(expected) == 24
        for got, want in zip(synced, expected):
            assert got.pitch == want.pitch
            assert (got.onset, got.offset) == pytest.approx((want.onset, want.offset), abs=1e-3)

    def test_render_command(self, tmp_path):
        seq = NoteSequence.build([Note(0.0, 69, 0.5)], duration=0.5)
        mid = tmp_path / "tone.mid"
        mid.write_bytes(write_smf(seq))
        wav = tmp_path / "tone.wav"
        assert main(["render", str(mid), str(wav)]) == 0
        assert len(load_wav(wav)) > 0

    def test_stats_command(self, tmp_path):
        seq = NoteSequence.build([Note(0.0, 60, 1.0), Note(1.0, 64, 2.0)], duration=2.0)
        mid = tmp_path / "c.mid"
        mid.write_bytes(write_smf(seq))
        out = tmp_path / "stats.json"
        assert main(["stats", str(mid), "--arranger", "2", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["arrangers"]["2"]["mean_density"] == pytest.approx(1.0)

    def test_exit_codes(self, tmp_path):
        assert main(["render", str(tmp_path / "missing.mid"), str(tmp_path / "o.wav")]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,columns\n1,2\n")
        assert main(["build-dataset", str(bad), str(tmp_path / "ds")]) == 1

    @pytest.mark.parametrize(
        "command,bad_file,content,message",
        [
            pytest.param("cover", "song.wav", b"ID3 not a RIFF file", "not a readable WAV",
                         id="wav-not-riff"),
            pytest.param("cover", "song.wav", b"RIFF", "not a readable WAV", id="wav-truncated"),
            pytest.param("build-dataset", "manifest.csv",
                         b"pop_path,cover_path,arranger_id\na.wav,a.mid,0\nb.wav,b.mid,two\n",
                         "manifest.csv:3: arranger_id 'two' is not an integer",
                         id="manifest-arranger"),
            pytest.param("build-dataset", "manifest.csv",
                         b"pop_path,cover_path,arranger_id\na.wav\n",
                         "manifest.csv:2: arranger_id None is not an integer",
                         id="manifest-short-row"),
            pytest.param("build-dataset", "manifest.csv",
                         b"pop_path,arranger_id,cover_path\nw.wav,0\n",
                         "manifest.csv:2: missing cover_path", id="manifest-no-cover"),
            pytest.param("build-dataset", "manifest.csv",
                         b"arranger_id,cover_path,pop_path\n0,c.mid\n",
                         "manifest.csv:2: missing pop_path", id="manifest-no-pop"),
            pytest.param("train", "train.cfg", b"epochs = 2\nseed = -1\n",
                         "seed must be non-negative, got -1", id="config-seed"),
            pytest.param("train", "train.cfg", b"epochs = 2\nd_model = 3.5\n",
                         "train.cfg:2: cannot read d_model = '3.5' as int", id="config-model"),
            pytest.param("train", "train.cfg", b"learning_rate = fast\n",
                         "train.cfg:1: cannot read learning_rate = 'fast' as float",
                         id="config-learning-rate"),
            pytest.param("train", "train.cfg", b"# run\nepochs = ten\n",
                         "train.cfg:2: cannot read epochs = 'ten' as int", id="config-train"),
            pytest.param("detokenize", "piece.tokens", b"\xff5 1\n",
                         "piece.tokens: not UTF-8 text (at byte offset 0)", id="tokens-not-utf8"),
            pytest.param("cover-beats", "song.beats", b"0.25\n0.75\xff\n",
                         "song.beats: not UTF-8 text (at byte offset 9)", id="beats-not-utf8"),
            pytest.param("build-dataset", "manifest.csv",
                         b"\xffpop_path,cover_path,arranger_id\n",
                         "manifest.csv: not UTF-8 text (at byte offset 0)",
                         id="manifest-not-utf8"),
            pytest.param("train", "train.cfg", b"epochs = 2\n\xff\n",
                         "train.cfg: not UTF-8 text (at byte offset 11)", id="config-not-utf8"),
        ],
    )
    def test_malformed_input_is_one_error_line(
        self, tmp_path, capsys, command, bad_file, content, message
    ):
        bad = tmp_path / bad_file
        bad.write_bytes(content)
        argv = {
            "cover": lambda: ["cover", str(bad), str(tmp_path / "o.mid"), "--arranger", "0",
                              "--checkpoint", str(toy_checkpoint(tmp_path)[0])],
            "cover-beats": lambda: ["cover", make_pair(tmp_path, np.random.default_rng(0))[0]
                                    .pop_audio, str(tmp_path / "o.mid"), "--arranger", "0",
                                    "--checkpoint", str(toy_checkpoint(tmp_path)[0]),
                                    "--beats", str(bad)],
            "detokenize": lambda: ["detokenize", str(bad), str(tmp_path / "o.mid")],
            "build-dataset": lambda: ["build-dataset", str(bad), str(tmp_path / "ds")],
            "train": lambda: ["train", str(tmp_path / "ds"), str(bad), str(tmp_path / "m.ckpt")],
        }[command]()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "bad_file,content,message",
        [
            pytest.param("dataset.json", b"{not json", "dataset.json: not a dataset index",
                         id="index-not-json"),
            pytest.param("dataset.json", b'{"report": {}}',
                         "dataset.json: not a dataset index: KeyError('examples')",
                         id="index-no-examples"),
            pytest.param("dataset.json",
                         b'{"examples": [{"mel": "ex000000.mel.npy", "arranger_id": "x",'
                         b' "tokens": "ex000000.tokens.txt"}], "report": {}}',
                         "dataset.json: not a dataset index: ValueError(\"invalid literal",
                         id="index-arranger"),
            pytest.param("ex000000.mel.npy", b"not an array",
                         "ex000000.mel.npy: not an .npy array", id="mel-not-npy"),
            pytest.param("ex000000.tokens.txt", b"999 1\n",
                         "ex000000.tokens.txt:1: id 999 outside the vocabulary",
                         id="tokens-bad-id"),
            pytest.param("ex000000.tokens.txt", b"\xff1\n",
                         "ex000000.tokens.txt: not UTF-8 text (at byte offset 0)",
                         id="tokens-not-utf8"),
        ],
    )
    def test_malformed_dataset_is_one_error_line(
        self, tmp_path, capsys, bad_file, content, message
    ):
        ds = tmp_path / "ds"
        example = (np.zeros((4, 128)), 0, TokenSeq((EOS,)))
        save_dataset(ds, [example], BuildReport(1, 1, 0, 0, []))
        (ds / bad_file).write_bytes(content)
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\n")
        assert main(["train", str(ds), str(config), str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p.pop("dec1_ff2"), id="missing"),
            pytest.param(lambda p: p.update(dec0_sq=np.zeros((64, 32))), id="shape"),
        ],
    )
    def test_cover_rejects_mismatched_checkpoint(self, tmp_path, capsys, edit):
        rng = np.random.default_rng(15)
        record, _, _, _ = make_pair(tmp_path, rng, name="ck")
        cfg = desk_config(max_decode_len=8)
        params = init_params(cfg, seed=0)
        edit(params)
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, params, cfg)
        out = tmp_path / "cover.mid"
        code = main(
            ["cover", record.pop_audio, str(out), "--arranger", "0",
             "--checkpoint", str(ckpt), "--beats", record.beats]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_full_chain(self, tmp_path):
        rng = np.random.default_rng(14)
        keep, _, _, _ = make_pair(tmp_path, rng, name="k0", arranger_id=1)
        drop, _, _, _ = make_pair(tmp_path, rng, name="k1", transpose=6)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "pop_path,cover_path,arranger_id,beats_path,f0_path\n"
            f"{keep.pop_audio},{keep.cover_midi},1,{keep.beats},{keep.f0}\n"
            f"{drop.pop_audio},{drop.cover_midi},0,{drop.beats},{drop.f0}\n"
        )
        ds = tmp_path / "dataset"
        assert main(["build-dataset", str(manifest), str(ds)]) == 0
        _, report = load_dataset(ds)
        assert report["kept"] == 1 and report["discarded"] == 1

        config = tmp_path / "train.cfg"
        config.write_text(
            "# toy run\n"
            "d_model = 32\nnum_heads = 4\nd_ff = 64\n"
            "num_encoder_layers = 1\nnum_decoder_layers = 1\n"
            "n_mels = 128\nnum_arrangers = 4\nmax_decode_len = 48\n"
            "epochs = 2\nbatch_size = 2\nlearning_rate = 0.001\n"
            "optimizer = adam\nseed = 0\n"
        )
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", str(ds), str(config), str(ckpt)]) == 0

        cover_out = tmp_path / "generated.mid"
        code = main(
            ["cover", keep.pop_audio, str(cover_out),
             "--arranger", "1", "--checkpoint", str(ckpt), "--beats", keep.beats]
        )
        assert code == 0
        generated = parse_smf(cover_out.read_bytes())
        last_offset = {}
        for note in generated:
            assert 21 <= note.pitch <= 108
            # One sounding note per pitch at a time, or the file would
            # not have survived its own parse.
            assert note.onset >= last_offset.get(note.pitch, 0.0)
            last_offset[note.pitch] = note.offset
