"""Pipeline orchestration and subcommands, exercised through ``main(argv)``."""
from __future__ import annotations

import builtins
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import re
import shutil
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from songpipe import cli, conditioning, formats, harmony, metrics, planner, prep, render, score_io
from songpipe.cli import (
    _STAGE_FUNCS,
    ART,
    STAGES,
    PipelineConfig,
    StageError,
    config_from_json,
    harmonize_song,
    main,
    render_windows,
    run_pipeline,
    section_keys,
)
from songpipe.harmony import section_key_estimates
from songpipe.score import Note, Section, VocalScore

from helpers import bpm_to_us, pcm16_wav_bytes, random_score, simple_score

MELODY = [60, 62, 64, 65, 67, 65, 64, 62] * 4  # 8 bars of C-major noodling


@pytest.fixture
def score_file(tmp_path):
    score = simple_score(MELODY, labels=["verse", "chorus"])
    path = tmp_path / "song.mid"
    path.write_bytes(score_io.write_smf(score))
    return path


def _run(config: PipelineConfig) -> dict:
    return run_pipeline(config)


def _read_bytes_map(directory) -> dict[str, bytes]:
    return {
        name: (directory / name).read_bytes() for name in os.listdir(directory)
    }


def test_run_pipeline_produces_every_artifact(score_file, tmp_path):
    out = tmp_path / "out"
    manifest = _run(PipelineConfig(str(score_file), str(out)))
    for name in ART.values():
        if name == "reference.json":  # no lyrics or bank configured
            continue
        assert (out / name).exists(), f"missing {name}"
    assert "window_files" not in manifest
    assert not [n for n in os.listdir(out) if n.startswith("window_")]
    report = manifest["report"]
    assert report["rhythm_f1_log_vs_conditions"] >= 0.9
    assert report["chord_f1_audio_vs_conditions"] >= 0.8
    assert report["num_logged_beats"] > 0


def test_auto_intro_is_prepended(score_file, tmp_path):
    out = tmp_path / "out"
    _run(PipelineConfig(str(score_file), str(out)))
    song = score_io.score_from_json((out / "song.score.json").read_text())
    assert [s.label for s in song.sections] == ["intro", "verse", "chorus"]
    assert song.num_bars == 12  # 8 sung bars plus 4 intro bars
    chords = conditioning.parse_chords((out / "chords.txt").read_text())
    assert chords.end_sec == pytest.approx(24.0)  # 12 bars at 120 BPM


def test_intro_not_duplicated_when_score_has_one(tmp_path):
    score = simple_score(MELODY, labels=["intro", "verse"])
    path = tmp_path / "with_intro.mid"
    path.write_bytes(score_io.write_smf(score))
    out = tmp_path / "out"
    _run(PipelineConfig(str(path), str(out)))
    song = score_io.score_from_json((out / "song.score.json").read_text())
    assert [s.label for s in song.sections] == ["intro", "verse"]
    assert song.num_bars == 8


def test_reruns_are_byte_identical(score_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(PipelineConfig(str(score_file), str(out_a)))
    _run(PipelineConfig(str(score_file), str(out_b)))
    files_a, files_b = _read_bytes_map(out_a), _read_bytes_map(out_b)
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between reruns"


def test_editing_chords_and_resuming_changes_only_downstream(score_file, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    _run(config)
    before = _read_bytes_map(out)

    chords = conditioning.parse_chords((out / "chords.txt").read_text())
    shifted = conditioning.ChordSequence(
        tuple(
            conditioning.ChordSpan(c.start_sec, c.end_sec, (c.root + 2) % 12, c.quality)
            for c in chords
        )
    )
    (out / "chords.txt").write_text(conditioning.format_chords(shifted))

    run_pipeline(config, from_stage="condition")
    after = _read_bytes_map(out)

    unchanged = [
        "input.score.json", "register.json",
        "registered.score.json", "song.score.json", "plan.json",
    ]
    for name in unchanged:
        assert before[name] == after[name], f"{name} should be untouched"
    # the harmony-bearing artifacts must pick up the new chords ...
    for name in ("conditions.json", "accompaniment.wav", "mix.wav"):
        assert before[name] != after[name], f"{name} should reflect the edit"
    # ... and the new conditions really carry the transposed chroma
    bundle = conditioning.bundle_from_json((out / "conditions.json").read_text())
    np.testing.assert_array_equal(
        bundle.chroma, np.roll(
            conditioning.bundle_from_json(before["conditions.json"]).chroma, 2, axis=1
        )
    )


def test_resume_without_artifacts_names_the_stage(score_file, tmp_path):
    config = PipelineConfig(str(score_file), str(tmp_path / "empty"))
    with pytest.raises(StageError) as err:
        run_pipeline(config, from_stage="render")
    assert err.value.stage == "render"
    with pytest.raises(ValueError):
        run_pipeline(config, from_stage="warp")


def test_missing_score_fails_in_load(tmp_path):
    config = PipelineConfig(str(tmp_path / "nope.mid"), str(tmp_path / "out"))
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "load"


def test_run_command_exit_codes(score_file, tmp_path, capsys):
    assert main(["run", "--score", str(score_file), "--output", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "manifest:" in out
    assert main(["run", "--score", str(tmp_path / "nope.mid"),
                 "--output", str(tmp_path / "o2")]) == 1
    assert "load" in capsys.readouterr().err


def test_run_with_config_file(score_file, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"score_path": str(score_file)}))
    out = tmp_path / "from_config"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_a_config_file_that_starts_with_a_byte_order_mark_is_read(score_file, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"score_path": str(score_file)}).encode())
    out = tmp_path / "from_config"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_run_seed_flag_reaches_the_manifest_config(score_file, tmp_path):
    out = tmp_path / "seeded"
    assert main(["run", "--score", str(score_file), "--output", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 7


def test_run_needs_a_config_or_a_score(tmp_path, capsys):
    assert main(["run", "--output", str(tmp_path / "o")]) == 1
    assert "error: either --config or --score is required" in capsys.readouterr().err


def test_set_section_keys_reach_conditions_json(score_file, tmp_path):
    labels = ("C:maj", "A:min")
    expected = list(enumerate(map(conditioning.KeyLabel.parse, labels)))
    # So the keys below come from the labels, not from the estimates.
    assert section_key_estimates(score_io.load_score(score_file)) != expected
    out = tmp_path / "out"
    # Without intro bars the song keeps the score's two sections.
    _run(PipelineConfig(str(score_file), str(out), intro_bars=0, section_keys=labels))
    conditions = tmp_path / "conditions.json"
    assert main(["condition", str(score_file), "--chords", str(out / "chords.txt"),
                 "-o", str(conditions), "--keys", ",".join(labels)]) == 0
    for path in (out / "conditions.json", conditions):
        assert list(conditioning.bundle_from_json(path.read_text()).keys) == expected


def test_config_round_trip_and_validation(score_file):
    config = config_from_json(
        json.dumps(
            {
                "score_path": str(score_file),
                "profiles": [{"name": "alto", "low": 53, "high": 72}],
                "seed": 3,
            }
        ),
        output_dir="somewhere",
    )
    assert config.output_dir == "somewhere"
    assert config.profiles[0].name == "alto"
    with pytest.raises(ValueError):
        config_from_json(json.dumps({"score_path": "x", "bogus_key": 1}))
    with pytest.raises(ValueError):
        config_from_json(json.dumps({"seed": 1}))


def test_validate_command(score_file, tmp_path, capsys):
    assert main(["validate", str(score_file)]) == 0
    assert "OK" in capsys.readouterr().out
    bad = tmp_path / "bad.score.json"
    score = simple_score([60] * 8)
    bad.write_text(
        score_io.score_to_json(score).replace('"pitch": 60', '"pitch": 200', 1)
    )
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_the_score_reader_names_every_violation(tmp_path, capsys):
    doc = json.loads(score_io.score_to_json(simple_score([60] * 8)))
    doc["notes"][0]["pitch"] = 200
    doc["notes"][1]["onset_tick"] = doc["notes"][0]["onset_tick"] + 1
    bad = tmp_path / "bad.score.json"
    bad.write_text(json.dumps(doc))
    reason = (f"cannot read {bad}: score document is invalid: note 0 pitch 200 outside "
              "[0, 127]; notes 0 and 1 overlap (melody must be monophonic)\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {reason}"
    out = tmp_path / "out"
    assert main(["run", "--score", str(bad), "--output", str(out)]) == 1
    assert f"error in stage 'load': {reason}" in capsys.readouterr().err
    assert not (out / "input.score.json").exists()


def test_register_apply_of_a_score_a_midi_file_cannot_hold_is_an_error(tmp_path, capsys):
    doc = json.loads(score_io.score_to_json(simple_score([60] * 8)))
    doc["ticks_per_quarter"] = 70000
    score = tmp_path / "s.json"
    score.write_text(json.dumps(doc))
    assert main(["register", str(score), "--apply", str(tmp_path / "out.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "ticks_per_quarter must be <= 32767 (the MIDI limit), got 70000" in err
    assert not (tmp_path / "out.mid").exists()


def test_harmonize_command(score_file, tmp_path, capsys):
    assert main(["harmonize", str(score_file)]) == 0
    chords = conditioning.parse_chords(capsys.readouterr().out)
    assert len(chords.entries) == 8  # one span per bar
    out = tmp_path / "chords.txt"
    assert main(["harmonize", str(score_file), "-o", str(out), "--intro-bars", "4"]) == 0
    with_intro = conditioning.parse_chords(out.read_text())
    assert with_intro.end_sec == pytest.approx(24.0)


def test_register_command(score_file, tmp_path, capsys):
    assert main(["register", str(score_file)]) == 0
    assert "profile=" in capsys.readouterr().out
    out = tmp_path / "shifted.score.json"
    assert main(["register", str(score_file), "--apply", str(out),
                 "--profile", "bass:40:59"]) == 0
    shifted = score_io.load_score(out)
    assert shifted.notes  # wrote a loadable score


@pytest.mark.parametrize("spec, message", [
    ("alto:50", "profile must look like name:low:high, got 'alto:50'"),
    ("a:x:60", "invalid literal for int() with base 10: 'x'"),
])
def test_register_refuses_a_malformed_profile(score_file, capsys, spec, message):
    with pytest.raises(SystemExit) as code:
        main(["register", str(score_file), "--profile", spec])
    assert code.value.code == 2
    assert f"argument --profile: {message}" in capsys.readouterr().err


def test_condition_plan_render_mix_commands(score_file, tmp_path, capsys):
    chords = tmp_path / "chords.txt"
    conditions = tmp_path / "conditions.json"
    plan = tmp_path / "plan.json"
    stage_dir = tmp_path / "render_out"
    assert main(["harmonize", str(score_file), "-o", str(chords)]) == 0
    assert main(["condition", str(score_file), "--chords", str(chords),
                 "-o", str(conditions)]) == 0
    bundle = conditioning.bundle_from_json(conditions.read_text())
    assert bundle.num_frames == 800  # 16 s at 50 fps
    assert main(["plan", str(score_file), "-o", str(plan)]) == 0
    windows = planner.plan_from_json(plan.read_text())
    assert windows
    assert main(["render", "--conditions", str(conditions), "--plan", str(plan),
                 "-o", str(stage_dir)]) == 0
    assert (stage_dir / "accompaniment.wav").exists()
    assert (stage_dir / "events.txt").exists()

    vocal = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 1000))), vocal)
    mixed = tmp_path / "mixed.wav"
    assert main(["mix", str(vocal), str(stage_dir / "accompaniment.wav"),
                 "-o", str(mixed)]) == 0
    assert np.abs(render.read_wav(mixed).samples).max() == pytest.approx(0.95, abs=1e-6)


def test_mix_command_prints_the_peak_it_wrote(tmp_path, capsys):
    vocal, accompaniment = tmp_path / "vocal.wav", tmp_path / "accompaniment.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 1000))), vocal)
    tone = 0.3 * np.sin(np.linspace(0.0, 50.0, 800))[None, :]
    for samples, peak in ((tone, "0.950"), (np.zeros((1, 800)), "0.000")):
        render.write_wav(render.AudioBuffer(44100, samples), accompaniment)
        out = str(tmp_path / f"mix_{peak}.wav")
        assert main(["mix", str(vocal), str(accompaniment), "-o", out]) == 0
        assert capsys.readouterr().out == f"wrote {out} (peak {peak})\n"


def test_condition_command_rejects_wrong_key_count(score_file, tmp_path, capsys):
    chords = tmp_path / "chords.txt"
    main(["harmonize", str(score_file), "-o", str(chords)])
    code = main(["condition", str(score_file), "--chords", str(chords),
                 "-o", str(tmp_path / "c.json"), "--keys", "C:maj"])
    assert code == 1
    assert "2 sections" in capsys.readouterr().err


def test_eval_command_beats_and_text(tmp_path, capsys):
    ref = tmp_path / "ref.beats"
    est = tmp_path / "est.beats"
    ref.write_text("0.000000\t1\n0.500000\t2\n1.000000\t3\n")
    est.write_text("0.010000\t1\n0.500000\t2\n1.060000\t3\n")
    assert main(["eval", "--ref-beats", str(ref), "--est-beats", str(est)]) == 0
    out = capsys.readouterr().out
    assert "rhythm_f1" in out and "1.000000" in out

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("la la la\nla la la\noh\n")
    b.write_text("la la la\noh\n")
    results = tmp_path / "results.json"
    assert main(["eval", "--ref-text", str(a), "--hyp-text", str(b),
                 "--dedup", "--json", str(results)]) == 0
    doc = json.loads(results.read_text())
    assert doc["per"] == 0.0  # identical after dedup


def test_a_per_line_holding_a_form_feed_is_one_line(tmp_path, capsys):
    # Lines end only at \n, \r\n and \r: the form feed is whitespace, so
    # both texts are one line of two tokens, not two lines that dedup merges.
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text("oh\foh\n")
    hyp.write_text("oh oh\n")
    assert main(["eval", "--ref-text", str(ref), "--hyp-text", str(hyp), "--dedup"]) == 0
    assert capsys.readouterr().out == "per  0.000000\n"


def test_a_per_text_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    plain, bom = tmp_path / "ref.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"la la la\n")
    bom.write_bytes(b"\xef\xbb\xbfla la la\n")
    assert main(["eval", "--ref-text", str(plain), "--hyp-text", str(bom)]) == 0
    assert capsys.readouterr().out == "per  0.000000\n"


def test_eval_command_requires_pairs(tmp_path, capsys):
    assert main(["eval", "--ref-beats", str(tmp_path / "x")]) == 1
    assert main(["eval"]) == 1


def test_nan_weight_and_tolerance_flags_are_rejected(tmp_path, capsys):
    # This used to exit 0 with F1 0.0 for identical beat files.
    beats = tmp_path / "a.beats"
    beats.write_text("0.0 1\n0.5 2\n")
    assert main(["eval", "--ref-beats", str(beats), "--est-beats", str(beats),
                 "--tolerance", "nan"]) == 1
    err = capsys.readouterr().err
    assert "tolerance must be non-negative" in err


def test_section_key_estimates_cover_empty_sections():
    notes = tuple(Note(i * 480, 480, p) for i, p in enumerate([60, 64, 67, 72]))
    score = VocalScore(
        notes=notes,
        tempo_map=((0, bpm_to_us(120)),),
        sections=(Section("verse", 0, 1920), Section("inst", 1920, 3840)),
    )
    keys = section_key_estimates(score)
    assert [i for i, _ in keys] == [0, 1]
    assert keys[0][1] == keys[1][1]  # empty section borrows the overall key
    silent = VocalScore(sections=(Section("verse", 0, 1920),))
    with pytest.raises(ValueError):
        section_key_estimates(silent)


def _section_histograms_loop_oracle(score):
    """Reference per-section pitch-class histograms: one Python add per note and section."""
    per_section = np.zeros((len(score.sections), 12))
    for note in score.notes:
        for i, sec in enumerate(score.sections):
            lo = max(note.onset_tick, sec.start_tick)
            hi = min(note.end_tick, sec.end_tick)
            if hi > lo:
                per_section[i, note.pitch % 12] += hi - lo
    return per_section


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_section_key_estimates_equal_the_loop_oracle(seed):
    # Notes start anywhere and may run across one or more section edges; the
    # sections past the last note, and a gap in the melody, hold no notes.
    rng = random.Random(seed)
    edges = sorted(rng.sample(range(1, 20_000), rng.randint(0, 6)))
    edges = [0, *edges, edges[-1] + rng.randint(1, 5_000) if edges else 5_000]
    sections = tuple(Section("verse", a, b) for a, b in zip(edges, edges[1:]))
    gap = sorted(rng.sample(range(edges[-1]), 2))
    notes = tuple(
        Note(onset, rng.randint(1, 3_000), rng.randint(0, 127))
        for onset in sorted(rng.sample(range(edges[-1]), rng.randint(0, 40)))
        if not gap[0] <= onset < gap[1]
    )
    score = VocalScore(notes=notes, sections=sections)
    expected = _section_histograms_loop_oracle(score)
    seen = []

    def record(hist):
        seen.append(np.array(hist[0]))
        return conditioning.KeyLabel(0, "major")

    if not expected.any():
        with pytest.raises(ValueError, match="no notes"):
            section_key_estimates(score)
        return
    with mock.patch.object(metrics, "estimate_key", side_effect=record):
        section_key_estimates(score)
    fallback = expected.sum(axis=0)
    assert len(seen) == len(sections)
    for i, hist in enumerate(seen):
        np.testing.assert_array_equal(hist, expected[i] if expected[i].any() else fallback)
    assert section_key_estimates(score) == [
        (i, metrics.estimate_key(h if h.any() else fallback)) for i, h in enumerate(expected)
    ]


@pytest.mark.parametrize(
    "name, garbage",
    [("conditions.json", '{"format": "conditions", "num_frames": "many"}'),
     ("events.txt", "0.5\tbeat\nnot-a-time\tdownbeat\n")],
    ids=["conditions", "events"],
)
def test_malformed_input_at_report_names_the_stage(score_file, tmp_path, name, garbage):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)
    (tmp_path / "out" / name).write_text(garbage)
    with pytest.raises(StageError) as err:
        run_pipeline(config, from_stage="report")
    assert err.value.stage == "report"


def test_an_unknown_event_kind_in_the_log_is_named_at_report(score_file, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--score", str(score_file), "--output", str(out)]
    assert main(args) == 0
    lines = (out / "events.txt").read_text().splitlines(keepends=True)
    lines[1] = lines[1].split("\t")[0] + "\tbaet\n"
    (out / "events.txt").write_text("".join(lines))
    capsys.readouterr()
    assert main(args + ["--from", "report"]) == 1
    assert ("error in stage 'report': cannot read events.txt: event line 2: unknown kind "
            "'baet'") in capsys.readouterr().err


@pytest.mark.parametrize("bad", [60.0, 47.5, 0.0, -3.0])
def test_config_rejects_out_of_range_max_window(bad):
    with pytest.raises(ValueError, match="47"):
        config_from_json(json.dumps({"score_path": "x", "max_window_sec": bad}))
    assert config_from_json(
        json.dumps({"score_path": "x", "max_window_sec": 47})
    ).max_window_sec == 47.0


@pytest.mark.parametrize("bad", ["60", "0", "-1", "47.5", "nan"])
def test_plan_command_rejects_out_of_range_max_window(score_file, capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["plan", str(score_file), "--max-window", bad])
    assert exc.value.code == 2
    assert "47" in capsys.readouterr().err
    assert main(["plan", str(score_file), "--max-window", "30"]) == 0


def test_config_rejects_negative_intro_bars():
    with pytest.raises(ValueError, match="intro_bars must be >= 0, got -2"):
        config_from_json(json.dumps({"score_path": "x", "intro_bars": -2}))
    assert config_from_json(json.dumps({"score_path": "x", "intro_bars": 0})).intro_bars == 0


def test_harmonize_command_rejects_negative_intro_bars(score_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harmonize", str(score_file), "--intro-bars", "-2"])
    assert exc.value.code == 2
    assert "intro_bars must be >= 0, got -2" in capsys.readouterr().err
    assert main(["harmonize", str(score_file), "--intro-bars", "0"]) == 0


def _random_score_file(tmp_path):
    path = tmp_path / "random.mid"
    path.write_bytes(score_io.write_smf(random_score(random.Random(11))))
    return str(path)


@pytest.mark.parametrize("key, value, message", [
    ("frame_rate", "Infinity", "frame_rate must be finite and > 0 fps, got inf"),
    ("frame_rate", "NaN", "frame_rate must be finite and > 0 fps, got nan"),
    ("frame_rate", "0", "frame_rate must be finite and > 0 fps, got 0"),
    ("frame_rate", "-50", "frame_rate must be finite and > 0 fps, got -50"),
    pytest.param("frame_rate", "1" + "0" * 400, "frame_rate must be finite and > 0 fps",
                 id="frame_rate-int-beyond-float"),
    ("sigma", "Infinity", "sigma must be finite and > 0 s, got inf"),
    ("sigma", "-0.05", "sigma must be finite and > 0 s, got -0.05"),
    ("sigma", "1e-300", "sigma must be > 2**-538 s (about 1.1e-162 s) so that "
                        "2*sigma*sigma > 0, got 1e-300"),
    ("sample_rate", "Infinity", "sample_rate must be finite and >= 1 Hz, got inf"),
    ("sample_rate", "NaN", "sample_rate must be finite and >= 1 Hz, got nan"),
    ("sample_rate", "0.5", "sample_rate must be finite and >= 1 Hz, got 0.5"),
    ("sample_rate", "-44100", "sample_rate must be finite and >= 1 Hz, got -44100"),
])
def test_config_rejects_out_of_range_rates(tmp_path, key, value, message):
    # Before these checks, frame_rate Infinity escaped run as an OverflowError,
    # sigma Infinity gave a flat rhythm activation and sigma 1e-300 divided by
    # zero in rhythm_activation.
    text = f'{{"score_path": {json.dumps(_random_score_file(tmp_path))}, "{key}": {value}}}'
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_json(text)


def test_config_accepts_rates_at_their_limits(tmp_path):
    smallest_sigma = math.nextafter(2.0 ** -538, 1.0)
    config = config_from_json(json.dumps({
        "score_path": "x", "frame_rate": 1e-3, "sigma": smallest_sigma, "sample_rate": 1,
    }))
    assert (config.frame_rate, config.sigma, config.sample_rate) == (1e-3, smallest_sigma, 1)
    assert config_from_json(json.dumps({"score_path": "x", "sample_rate": 22050.0})).sample_rate == 22050


def test_config_keys_are_the_config_fields():
    doc = {f.name: getattr(PipelineConfig("s", "o"), f.name) for f in fields(PipelineConfig)}
    doc["profiles"] = [{"name": p.name, "low": p.low, "high": p.high} for p in doc["profiles"]]
    assert config_from_json(json.dumps(doc)) == PipelineConfig("s", "o")
    with pytest.raises(ValueError, match=re.escape("unknown config keys: ['bogus', 'fps']")):
        config_from_json(json.dumps({"score_path": "x", "fps": 50, "bogus": 1}))


@pytest.mark.parametrize("flag, value, message", [
    ("--frame-rate", "inf", "frame_rate must be finite and > 0 fps, got inf"),
    ("--frame-rate", "0", "frame_rate must be finite and > 0 fps, got 0"),
    ("--sigma", "nan", "sigma must be finite and > 0 s, got nan"),
    ("--sigma", "1e-300", "so that 2*sigma*sigma > 0, got 1e-300"),
    ("--frame-rate", "Infinity", "frame_rate must be finite and > 0 fps, got inf"),
    ("--sigma", "0.05s", "argument --sigma: invalid number value: '0.05s'"),
])
def test_condition_command_rejects_out_of_range_rates(score_file, tmp_path, capsys,
                                                      flag, value, message):
    chords = tmp_path / "chords.txt"
    assert main(["harmonize", str(score_file), "-o", str(chords)]) == 0
    argv = ["condition", str(score_file), "--chords", str(chords), "-o", str(tmp_path / "c.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert main(argv + [flag, "43"]) == 0


@pytest.mark.parametrize("value", ["0", "inf", "-8000", "0.5", "nan"])
def test_render_command_rejects_out_of_range_sample_rate(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--conditions", "c.json", "--plan", "p.json",
              "-o", str(tmp_path), "--sample-rate", value])
    assert exc.value.code == 2
    assert f"sample_rate must be finite and >= 1 Hz, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("frame_rate", math.inf),
    ("frame_rate", 0.0),
    ("sigma", math.nan),
    ("sigma", 1e-300),
    ("max_window_sec", 60.0),
    ("intro_bars", -2),
    ("sample_rate", 0.5),
    ("sample_rate", -math.inf),
    ("sample_rate", 44100.5),
    ("intro_bars", 2.9),
    ("sample_rate", "44100"),
    ("frame_rate", True),
    ("profiles", []),
    ("seed", "zz"),
    ("reject_fewer_lines", "yes"),
    ("vocal_path", 5),
])
def test_config_built_in_code_is_checked_like_a_config_file(key, value):
    # A config built in code used to skip these checks: frame_rate inf escaped
    # run as an OverflowError and sigma 1e-300 divided by zero.
    with pytest.raises(ValueError) as from_json:
        config_from_json(json.dumps({"score_path": "s", key: value}))
    with pytest.raises(ValueError) as built:
        PipelineConfig("s", "o", **{key: value})
    assert str(built.value) == str(from_json.value)
    with pytest.raises(ValueError, match=re.escape(str(from_json.value))):
        replace(PipelineConfig("s", "o"), **{key: value})


def test_harmonize_command_keeps_an_existing_intro(tmp_path):
    path = tmp_path / "with_intro.mid"
    path.write_bytes(score_io.write_smf(simple_score(MELODY, labels=["intro", "verse"])))
    out = tmp_path / "out"
    _run(PipelineConfig(str(path), str(out)))
    chords = tmp_path / "chords.txt"
    assert main(["harmonize", str(path), "-o", str(chords), "--intro-bars", "4"]) == 0
    assert chords.read_bytes() == (out / "chords.txt").read_bytes()


def test_harmonize_command_skips_an_intro_longer_than_the_score(tmp_path, capsys):
    path = tmp_path / "two_bars.mid"
    path.write_bytes(score_io.write_smf(simple_score(MELODY[:8])))
    assert main(["harmonize", str(path), "--intro-bars", "4"]) == 0
    with_flag = capsys.readouterr().out
    assert main(["harmonize", str(path)]) == 0
    assert with_flag == capsys.readouterr().out
    assert len(conditioning.parse_chords(with_flag).entries) == 2


def test_render_command_matches_run(score_file, tmp_path):
    out = tmp_path / "out"
    _run(PipelineConfig(str(score_file), str(out)))
    stage_dir = tmp_path / "render_out"
    stage_dir.mkdir()
    assert main(["render", "--conditions", str(out / "conditions.json"),
                 "--plan", str(out / "plan.json"), "-o", str(stage_dir)]) == 0
    written = _read_bytes_map(stage_dir)
    assert sorted(written) == ["accompaniment.wav", "events.txt"]
    for name, data in written.items():
        assert data == (out / name).read_bytes(), f"{name} differs from run's"


@pytest.mark.parametrize("key, value", [
    ("frame_rate", None),
    ("intro_bars", None),
    ("sample_rate", [44100]),
    ("section_keys", 5),
    ("section_keys", [1, 2]),
    ("profiles", [{"name": "a"}]),
    ("profiles", [{"name": 5, "low": 50, "high": 69}]),
    ("profiles", [{"name": "alto", "low": "50", "high": 69}]),
    ("profiles", [{"name": "alto", "low": 50, "high": 69.9}]),
    ("profiles", [{"name": "alto", "low": True, "high": 69}]),
    ("profiles", []),
    ("vocal_path", 5),
    ("reject_fewer_lines", "false"),
    ("reject_fewer_lines", 1),
    ("seed", 1.9),
    ("seed", True),
    ("seed", "12"),
    ("score_path", 5),
    ("output_dir", 5),
    ("output_dir", False),
    ("sample_rate", "44100"),
    ("sample_rate", False),
    ("frame_rate", True),
    ("sigma", "0.1"),
    ("max_window_sec", "30"),
    ("intro_bars", "3"),
    ("intro_bars", 2.9),
    ("profiles", "x"),
])
def test_config_rejects_wrong_typed_values(key, value):
    # Each of these used to escape run as a TypeError, KeyError or
    # AttributeError, or (a number as a path) to open a file descriptor.
    with pytest.raises(ValueError, match=key):
        config_from_json(json.dumps({"score_path": "s", key: value}))


def test_config_built_in_code_rejects_a_number_as_the_score_path():
    # open(5) would read file descriptor 5.
    with pytest.raises(ValueError) as from_json:
        config_from_json(json.dumps({"score_path": 5}))
    with pytest.raises(ValueError) as built:
        PipelineConfig(5, "o")
    assert str(built.value) == str(from_json.value)
    assert "score_path" in str(built.value)
    with pytest.raises(ValueError, match="score_path"):
        replace(PipelineConfig("s", "o"), score_path=5)


#: Config key: the arguments of a subcommand that has the key's flag, the
#: flag, and the argparse destination of its value.
_FLAGS = {
    "frame_rate": (["condition", "s", "--chords", "c", "-o", "o"], "--frame-rate", "frame_rate"),
    "sigma": (["condition", "s", "--chords", "c", "-o", "o"], "--sigma", "sigma"),
    "max_window_sec": (["plan", "s"], "--max-window", "max_window"),
    "intro_bars": (["harmonize", "s"], "--intro-bars", "intro_bars"),
    "sample_rate": (["render", "--conditions", "c", "--plan", "p", "-o", "o"],
                    "--sample-rate", "sample_rate"),
}


@pytest.mark.parametrize("key, text", [
    ("sample_rate", "22050.0"),
    ("sample_rate", "22050"),
    ("sample_rate", "44100.5"),
    ("sample_rate", "0.5"),
    ("sample_rate", "1e400"),
    ("intro_bars", "2.9"),
    ("intro_bars", "2.0"),
    ("intro_bars", "-2"),
    ("frame_rate", "43"),
    ("frame_rate", "0"),
    ("sigma", "0.04"),
    ("sigma", "1e-300"),
    ("max_window_sec", "30"),
    ("max_window_sec", "47.5"),
])
def test_a_flag_takes_what_its_config_key_takes(capsys, key, text):
    # render --sample-rate 22050.0 used to exit 2 while the config key took
    # it, and harmonize --intro-bars 2.9 was refused while the key truncated it.
    argv, flag, dest = _FLAGS[key]
    try:
        expected = getattr(config_from_json(f'{{"score_path": "s", "{key}": {text}}}'), key)
    except ValueError as exc:
        with pytest.raises(SystemExit) as code:
            cli.build_parser().parse_args(argv + [flag, text])
        assert code.value.code == 2
        assert f"argument {flag}: {exc}" in capsys.readouterr().err
    else:
        value = getattr(cli.build_parser().parse_args(argv + [flag, text]), dest)
        assert (value, type(value)) == (expected, type(expected))


@pytest.mark.parametrize("arg, message", [
    ("--frame-rate=-inf", "argument --frame-rate: frame_rate must be finite and > 0 fps, got -inf"),
    ("--sigma=-1e-3", "argument --sigma: sigma must be finite and > 0 s, got -0.001"),
])
def test_a_flag_value_that_starts_with_a_dash_is_given_after_an_equals_sign(capsys, arg, message):
    # The --flag=VALUE spelling: the value reaches the range check.
    with pytest.raises(SystemExit) as code:
        main(["condition", "s", "--chords", "c", "-o", "o", arg])
    assert code.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--frame-rate", "-inf", "argument --frame-rate: frame_rate must be finite and > 0 fps, got -inf"),
    ("--sigma", "-1e-3", "argument --sigma: sigma must be finite and > 0 s, got -0.001"),
])
def test_a_config_flag_value_that_starts_with_a_dash_may_follow_a_space(capsys, flag, value,
                                                                        message):
    # This used to exit 2 with "argument --sigma: expected one argument".
    with pytest.raises(SystemExit) as code:
        main(["condition", "s", "--chords", "c", "-o", "o", flag, value])
    assert code.value.code == 2
    assert message in capsys.readouterr().err


def test_a_numeric_flag_value_that_starts_with_a_dash_may_follow_a_space(tmp_path, capsys):
    beats = tmp_path / "a.beats"
    beats.write_text("0.0 1\n0.5 2\n")
    assert main(["eval", "--ref-beats", str(beats), "--est-beats", str(beats),
                 "--tolerance", "-1e-3"]) == 1
    err = capsys.readouterr().err
    assert "error: tolerance must be non-negative, got -0.001" in err


def test_flag_defaults_are_the_config_and_weight_defaults():
    config = PipelineConfig("s", "o")
    for key, (argv, _, dest) in _FLAGS.items():
        value = getattr(cli.build_parser().parse_args(argv), dest)
        # harmonize prepends no intro unless asked; run's default is 4 bars.
        assert value == (0 if key == "intro_bars" else getattr(config, key)), key


def test_config_built_in_code_rejects_wrong_typed_section_keys():
    # These used to reach the condition stage and escape run as an AttributeError.
    with pytest.raises(ValueError, match="section_keys"):
        PipelineConfig("s", "o", section_keys=(1, 2, 3))


def test_condition_command_rejects_chords_past_the_score(score_file, tmp_path, capsys):
    # Chords for the song with a 4-bar intro laid over the 8-bar melody used
    # to give 800 misaligned frames with the last four bars of chords dropped.
    chords = tmp_path / "chords.txt"
    assert main(["harmonize", str(score_file), "-o", str(chords), "--intro-bars", "4"]) == 0
    assert main(["condition", str(score_file), "--chords", str(chords),
                 "-o", str(tmp_path / "c.json")]) == 1
    assert "chords run to 24.0 s, past the end of the score (16.0 s)" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_a_frame_rate_too_small_to_render_is_an_error_not_a_traceback(score_file, tmp_path,
                                                                     capsys):
    # This used to escape as an OverflowError traceback: the schema accepts
    # 1e-305 frames per second, and a frame's time in samples overflows to inf.
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps({"score_path": str(score_file),
                                       "output_dir": str(tmp_path / "job"),
                                       "frame_rate": 1e-305}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert ("error in stage 'render': cannot convert float infinity to integer\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "job" / "accompaniment.wav").exists()


def test_the_render_command_over_a_tiny_frame_rate_is_an_error_not_a_traceback(
    score_file, tmp_path, capsys
):
    chords, conditions, plan = (tmp_path / n for n in ("chords.txt", "c.json", "plan.json"))
    assert main(["harmonize", str(score_file), "-o", str(chords)]) == 0
    assert main(["condition", str(score_file), "--chords", str(chords),
                 "--frame-rate", "1e-305", "-o", str(conditions)]) == 0
    assert main(["plan", str(score_file), "-o", str(plan)]) == 0
    capsys.readouterr()
    assert main(["render", "--conditions", str(conditions), "--plan", str(plan),
                 "-o", str(tmp_path / "out")]) == 1
    assert "error: cannot convert float infinity to integer\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / "accompaniment.wav").exists()


def test_a_frame_rate_edited_too_large_for_the_report_is_a_stage_error(score_file, tmp_path,
                                                                       capsys):
    # The radius of steady_frames used to overflow numpy's int64 as a traceback.
    out = tmp_path / "out"
    args = ["run", "--score", str(score_file), "--output", str(out)]
    assert main(args) == 0
    doc = json.loads((out / "conditions.json").read_text())
    doc["frame_rate"] = 1e300
    (out / "conditions.json").write_text(json.dumps(doc))
    report = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert main(args + ["--from", "report"]) == 1
    assert ("error in stage 'report': Python int too large to convert to C long\n"
            in capsys.readouterr().err)
    assert (out / "report.json").read_bytes() == report


def test_a_vocal_with_sample_rate_0_is_refused_by_name(score_file, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    data = bytearray(render.wav_bytes(render.AudioBuffer(44100, np.zeros((1, 100)))))
    data[24:28] = bytes(4)  # the sample-rate field of the fmt chunk
    (tmp_path / "v.wav").write_bytes(data)
    assert main(["run", "--score", str(score_file), "--vocal", "v.wav", "--output", "out"]) == 1
    assert ("error in stage 'mix': cannot read v.wav: invalid sample rate 0\n"
            in capsys.readouterr().err)


def test_a_key_without_a_mode_is_refused(tmp_path, capsys):
    path = tmp_path / "three.mid"
    path.write_bytes(score_io.write_smf(
        simple_score(MELODY + MELODY[:16], labels=["verse", "chorus", "bridge"])))
    chords = tmp_path / "chords.txt"
    assert main(["harmonize", str(path), "-o", str(chords)]) == 0
    capsys.readouterr()
    assert main(["condition", str(path), "--chords", str(chords), "--keys", "C,D:maj,E:min",
                 "-o", str(tmp_path / "c.json")]) == 1
    assert capsys.readouterr().err == "error: key label must look like 'C:maj', got 'C'\n"


def test_a_frame_rate_too_large_to_allocate_is_an_error_not_a_traceback(score_file, tmp_path,
                                                                        capsys):
    # These used to escape as a MemoryError traceback.  1e16 frames per second
    # asks for a frame axis of over 100 PiB, past any 64-bit address space in use.
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps({"score_path": str(score_file),
                                       "output_dir": str(tmp_path / "job"),
                                       "frame_rate": 1e16}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "error in stage 'condition': Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "job" / "conditions.json").exists()
    chords = tmp_path / "chords.txt"
    assert main(["harmonize", str(score_file), "-o", str(chords)]) == 0
    assert main(["condition", str(score_file), "--chords", str(chords),
                 "--frame-rate", "1e16", "-o", str(tmp_path / "c.json")]) == 1
    assert "error: Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def test_unreadable_artifact_is_a_stage_error(score_file, tmp_path):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)
    _replace_with_directory(tmp_path / "out" / "conditions.json")
    with pytest.raises(StageError, match="conditions.json") as err:
        run_pipeline(config, from_stage="render")
    assert err.value.stage == "render"


def test_unwritable_artifact_is_a_stage_error(score_file, tmp_path):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)
    _replace_with_directory(tmp_path / "out" / "report.json")
    with pytest.raises(StageError, match="report.json") as err:
        run_pipeline(config, from_stage="report")
    assert err.value.stage == "report"


def test_value_error_inside_report_is_a_stage_error(score_file, tmp_path, monkeypatch):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)

    def broken(*args, **kwargs):
        raise ValueError("no chroma today")

    monkeypatch.setattr("songpipe.metrics.chroma_from_audio", broken)
    with pytest.raises(StageError, match="no chroma today") as err:
        run_pipeline(config, from_stage="report")
    assert err.value.stage == "report"


@pytest.mark.parametrize("num_frames", [[], None], ids=["list", "missing"])
def test_malformed_frame_count_is_a_stage_error(score_file, tmp_path, num_frames):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)
    path = tmp_path / "out" / "conditions.json"
    doc = json.loads(path.read_text())
    if num_frames is None:
        del doc["num_frames"]
    else:
        doc["num_frames"] = num_frames
    path.write_text(json.dumps(doc))
    with pytest.raises(StageError, match="conditions.json") as err:
        run_pipeline(config, from_stage="render")
    assert err.value.stage == "render"


# ---------------------------------------------------------------------------
# The streamed audio path


def _accompaniment_oracle(bundle, windows, sample_rate: int) -> bytes:
    """The whole-song accompaniment: windows concatenated in time order, encoded once."""
    pieces = [
        (w, render.render_stub(bundle, w, sample_rate)[0])
        for w in sorted(windows, key=lambda w: w.order)
    ]
    pieces.sort(key=lambda p: p[0].start_sec)
    full = np.concatenate([p[1].samples for p in pieces], axis=1)
    return render.wav_bytes(render.AudioBuffer(sample_rate, full))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    sample_rate=st.sampled_from((101, 997)),
    chunk=st.sampled_from((3, 16, render.STREAM_FRAMES)),
)
def test_spliced_accompaniment_matches_the_concatenated_windows(seed, sample_rate, chunk):
    song, chords = harmonize_song(random_score(random.Random(seed), max_bars=12), 4)
    bundle = conditioning.build_condition_bundle(song, chords, section_keys(song, None))
    windows = planner.plan_inference(song)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(render, "STREAM_FRAMES", chunk):
        path = os.path.join(tmp, ART["accompaniment"])
        render_windows(bundle, windows, sample_rate, path)
        with open(path, "rb") as fh:
            assert fh.read() == _accompaniment_oracle(bundle, windows, sample_rate)


@pytest.mark.parametrize("failing", ["render_stub", "splice"])
def test_a_render_that_fails_midway_keeps_the_previous_output(
    score_file, tmp_path, monkeypatch, capsys, failing
):
    out = tmp_path / "out"
    args = ["run", "--score", str(score_file), "--output", str(out)]
    assert main(args) == 0
    fresh = _read_bytes_map(out)
    assert len(json.loads(fresh["render.json"])["windows"]) >= 2
    for order in (0, 1):  # windows whose copies fail their check are rendered again
        _flip_in_window(out, order)
    older = (out / "accompaniment.wav").read_bytes()

    calls = []

    def second_call_fails(original):
        def wrapper(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("interrupted")
            return original(*a, **kw)
        return wrapper

    if failing == "render_stub":  # with window 0 written and window 1 to write
        monkeypatch.setattr(render, "render_stub", second_call_fails(render.render_stub))
    else:  # with accompaniment.wav half streamed; reused windows copy the old bytes
        monkeypatch.setattr(render.WavReader, "read_bytes",
                            second_call_fails(render.WavReader.read_bytes))
    assert main(args + ["--from", "render"]) == 1
    assert "error in stage 'render': interrupted" in capsys.readouterr().err
    assert (out / "accompaniment.wav").read_bytes() == older
    assert (out / "render.json").read_bytes() == fresh["render.json"]
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]

    monkeypatch.undo()
    assert main(args + ["--from", "render"]) == 0
    assert _read_bytes_map(out) == fresh


def test_a_window_rendered_to_another_length_fails_before_the_rename(
    score_file, tmp_path, monkeypatch
):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    original = render.render_stub

    def one_sample_short(*args, **kwargs):
        audio, events = original(*args, **kwargs)
        return render.AudioBuffer(audio.sample_rate, audio.samples[:, 1:]), events

    monkeypatch.setattr(render, "render_stub", one_sample_short)
    (out / "render.json").unlink()
    with pytest.raises(StageError, match="window 0 rendered [0-9]+ samples, not [0-9]+") as err:
        run_pipeline(config, "render")
    assert err.value.stage == "render"
    assert _read_bytes_map(out) == {k: v for k, v in fresh.items() if k != "render.json"}


def test_unreadable_outside_inputs_are_named(score_file, tmp_path, capsys):
    bad_mid = tmp_path / "bad.mid"
    bad_mid.write_bytes(score_file.read_bytes()[:10])
    assert main(["run", "--score", str(bad_mid), "--output", str(tmp_path / "o1")]) == 1
    assert (f"error in stage 'load': cannot read {bad_mid}: file too short for MThd header"
            in capsys.readouterr().err)
    assert main(["validate", str(bad_mid)]) == 1
    assert f"error: cannot read {bad_mid}: " in capsys.readouterr().err

    bad_lyrics = tmp_path / "bad.txt"
    bad_lyrics.write_text("[verse\nla la\n")
    assert main(["run", "--score", str(score_file), "--lyrics", str(bad_lyrics),
                 "--output", str(tmp_path / "o2")]) == 1
    assert (f"error in stage 'load': cannot read {bad_lyrics}: lyric line 1: unterminated"
            in capsys.readouterr().err)

    bad_wav = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 100))), bad_wav)
    bad_wav.write_bytes(bad_wav.read_bytes()[:10])
    out = tmp_path / "o3"
    assert main(["run", "--score", str(score_file), "--vocal", str(bad_wav),
                 "--output", str(out)]) == 1
    assert (f"error in stage 'mix': cannot read {bad_wav}: file too short for a RIFF header"
            in capsys.readouterr().err)
    assert main(["mix", str(bad_wav), str(out / "accompaniment.wav"),
                 "-o", str(tmp_path / "m.wav")]) == 1
    assert f"error: cannot read {bad_wav}: file too short" in capsys.readouterr().err

    # An artifact is named once, by its file name.
    (out / "accompaniment.wav").write_bytes(b"RIFF")
    assert main(["run", "--score", str(score_file), "--output", str(out), "--from", "mix"]) == 1
    assert ("error in stage 'mix': cannot read accompaniment.wav: file too short for a RIFF "
            "header\n") in capsys.readouterr().err


def test_a_text_artifact_is_read_as_utf8_text_and_named_once(score_file, tmp_path, capsys):
    out, crlf = tmp_path / "out", tmp_path / "crlf"
    args = ["run", "--score", str(score_file), "--output"]
    assert main(args + [str(out)]) == 0
    shutil.copytree(out, crlf)
    chords = (out / "chords.txt").read_bytes()

    (out / "chords.txt").write_bytes(chords[:5] + b"\xff" + chords[5:])
    capsys.readouterr()
    assert main(args + [str(out), "--from", "condition"]) == 1
    err = capsys.readouterr().err
    assert ("error in stage 'condition': cannot read chords.txt: 'utf-8' codec can't decode "
            "byte 0xff in position 5: ") in err
    assert err.count("chords.txt") == 1 and str(out) not in err

    # CRLF line endings read as the same text, so every other file keeps its bytes.
    (out / "chords.txt").write_bytes(chords)
    (crlf / "chords.txt").write_bytes(chords.replace(b"\n", b"\r\n"))
    for directory in (out, crlf):
        assert main(args + [str(directory), "--from", "condition"]) == 0
    lf_files, crlf_files = _read_bytes_map(out), _read_bytes_map(crlf)
    assert crlf_files.pop("chords.txt") != lf_files.pop("chords.txt")
    assert crlf_files == lf_files


def test_audio_stages_peak_memory_is_flat_in_song_length(tmp_path):
    """render, mix and report stream audio: a 4x longer song raises their
    traced peak by less than one float64 copy of its audio."""
    peaks = {}
    for bars in (24, 96):
        score = random_score(random.Random(1), min_bars=bars, max_bars=bars,
                             min_bpm=60.0, max_bpm=60.0, with_intro=True)
        path = tmp_path / f"{bars}.mid"
        path.write_bytes(score_io.write_smf(score))
        config = PipelineConfig(str(path), str(tmp_path / f"out{bars}"))
        os.makedirs(config.output_dir)
        for stage in STAGES[: STAGES.index("render")]:
            _STAGE_FUNCS[stage](config, config.output_dir)
        tracemalloc.start()
        try:
            run_pipeline(config, "render")
            peaks[bars] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    frames = render.WavReader(tmp_path / "out96" / ART["accompaniment"]).n_samples
    assert frames == 96 * 4 * 44100
    assert peaks[96] - peaks[24] < frames * 8


def test_a_plan_without_windows_is_a_render_error(score_file, tmp_path):
    config = PipelineConfig(str(score_file), str(tmp_path / "out"))
    _run(config)
    (tmp_path / "out" / "plan.json").write_text(planner.plan_to_json([]))
    with pytest.raises(StageError, match="the plan has no windows") as err:
        run_pipeline(config, from_stage="render")
    assert err.value.stage == "render"


# ---------------------------------------------------------------------------
# Incremental resume: render and report redo only what changed

_CACHES = ("render.json", "chroma_memo.json")


def _strip_caches(directory) -> None:
    for name in os.listdir(directory):
        if name.startswith("window_") or name in _CACHES:
            os.remove(os.path.join(directory, name))


def _edit_bar(out, bar: int, root: int, quality: str) -> None:
    path = out / "chords.txt"
    lines = path.read_text().splitlines()
    start, end, _ = lines[bar].split()
    names = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
    lines[bar] = f"{start} {end} {names[root]}:{quality}"
    path.write_text("\n".join(lines) + "\n")


def _seam_bars(out) -> list[int]:
    """Bars that start or end on a window edge of the plan in ``out``."""
    starts = [float(line.split()[0]) for line in (out / "chords.txt").read_text().splitlines()]
    edges = {w.start_sec for w in planner.plan_from_json((out / "plan.json").read_text())}
    seams = set()
    for bar, start in enumerate(starts):
        if bar and any(abs(start - e) < 1e-6 for e in edges):
            seams.update((bar - 1, bar))
    return sorted(seams) or [0]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    max_window=st.sampled_from((4.0, 9.0, 47.0)),
    where=st.sampled_from(("any", "first", "last", "seam")),
    pick=st.integers(0, 2**16),
    root=st.integers(0, 11),
    quality=st.sampled_from(("maj", "min")),
    replan=st.sampled_from((None, 3.0, 47.0)),
)
# Seed 11 plans 5 windows at 47 s and 9 at 3 s.
@example(seed=11, max_window=3.0, where="seam", pick=1, root=3, quality="min", replan=None)
@example(seed=11, max_window=47.0, where="last", pick=0, root=9, quality="maj", replan=3.0)
def test_a_cached_resume_equals_an_uncached_one(seed, max_window, where, pick, root,
                                                quality, replan):
    score = random_score(random.Random(seed), max_bars=6, min_bpm=100.0, max_bpm=160.0)
    assume(score.notes)  # 13 seeds give no notes, which register rightly refuses
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "song.mid").write_bytes(score_io.write_smf(score))
        cached, uncached = tmp / "cached", tmp / "uncached"
        run_pipeline(PipelineConfig(str(tmp / "song.mid"), str(cached),
                                    max_window_sec=max_window))
        bars = len((cached / "chords.txt").read_text().splitlines())
        seams = _seam_bars(cached)
        bar = {"any": pick % bars, "first": 0, "last": bars - 1,
               "seam": seams[pick % len(seams)]}[where]
        _edit_bar(cached, bar, root, quality)
        shutil.copytree(cached, uncached)
        _strip_caches(uncached)
        # A new max_window_sec re-plans the song, which can change the window count.
        for out in (cached, uncached):
            run_pipeline(PipelineConfig(str(tmp / "song.mid"), str(out),
                                        max_window_sec=replan or max_window), "condition")
        assert _read_bytes_map(cached) == _read_bytes_map(uncached)


def _counting(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _flip_in_window(out, order: int) -> None:
    """Flip one bit in the middle sample of plan window ``order`` in accompaniment.wav."""
    window = next(w for w in planner.plan_from_json((out / "plan.json").read_text())
                  if w.order == order)
    path = out / "accompaniment.wav"
    reader = render.WavReader(path)
    first, last = render.window_samples(window, reader.sample_rate)
    data = bytearray(path.read_bytes())
    data[reader.header.data_offset + 4 * ((first + last) // 2)] ^= 1
    path.write_bytes(bytes(data))


def test_a_resume_without_edits_renders_and_measures_nothing(score_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    renders = _counting(monkeypatch, render, "render_stub")
    measured = _counting(monkeypatch, metrics, "_note_bin_basis")
    chroma = _counting(monkeypatch, metrics, "chroma_from_audio")
    run_pipeline(config, "condition")
    assert (len(renders), len(measured), len(chroma)) == (0, 0, 1)
    assert _read_bytes_map(out) == fresh


@pytest.mark.parametrize("tamper, rendered", [
    ("window", 1),
    ("accompaniment", "all"),
    ("record", "all"),
    ("record entry", 1),
    ("record entry without fingerprint", 1),
    ("record entry with a short event", 1),
    ("record entry with events 5", 1),
    ("record entry with an unknown event kind", 1),
    ("record entry with a NaN event time", 1),
    ("record version", "all"),
    ("record format", "all"),
    ("memo", 0),
])
def test_tampered_outputs_and_corrupt_records_are_redone(score_file, tmp_path, monkeypatch,
                                                         tamper, rendered):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    record = json.loads(fresh["render.json"])
    windows = record["windows"]
    assert len(windows) >= 3
    if tamper == "window":  # same size, one sample changed
        _flip_in_window(out, 1)
    elif tamper == "accompaniment":  # no longer parses, so no window is copied
        (out / "accompaniment.wav").write_bytes(fresh["accompaniment.wav"][:-4])
    elif tamper == "record":
        (out / "render.json").write_text('{"format": "render", "version": 1, "windows": [')
    elif tamper == "record entry":
        record["windows"][2]["events"] = [["0.5", "beat"]]
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record entry without fingerprint":
        del record["windows"][2]["fingerprint"]
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record entry with a short event":
        record["windows"][2]["events"] = [[0.5]]
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record entry with events 5":
        record["windows"][2]["events"] = 5
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record entry with an unknown event kind":
        record["windows"][2]["events"][0][1] = "baet"
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record entry with a NaN event time":
        record["windows"][2]["events"][0][0] = math.nan
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record version":
        record["version"] = 0
        (out / "render.json").write_text(json.dumps(record))
    elif tamper == "record format":
        record["format"] = "plan"
        (out / "render.json").write_text(json.dumps(record))
    else:
        (out / "chroma_memo.json").write_text("not json")
    renders = _counting(monkeypatch, render, "render_stub")
    run_pipeline(config, "render")
    assert len(renders) == (len(windows) if rendered == "all" else rendered)
    assert _read_bytes_map(out) == fresh


@pytest.mark.parametrize("artifact, name, version, stage", [
    ("render.json", "render", "0", "render"),
    # true is not version 1: a version is a number, as an integer field is.
    ("chroma_memo.json", "chroma-memo", "true", "report"),
])
def test_a_render_record_of_another_version_is_named_and_rebuilt(score_file, tmp_path, caplog,
                                                                 artifact, name, version, stage):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    (out / artifact).write_text(
        f'{{"format": "{name}", "version": {version}, "windows": [], "chunks": []}}')
    with caplog.at_level("INFO", logger="songpipe.cli"):
        run_pipeline(config, stage)
    assert (f"cannot read {artifact}: unsupported {name} version {json.loads(version)!r}; "
            "rebuilding it" in caplog.text)
    assert _read_bytes_map(out) == fresh


@pytest.mark.parametrize("forgery, rendered", [
    ("pcm16", "all"), ("stereo", "all"), ("rate", "all"), ("short", 1),
])
def test_a_recorded_window_of_another_layout_is_rendered_again(score_file, tmp_path,
                                                               monkeypatch, forgery, rendered):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    record = json.loads(fresh["render.json"])
    path = out / "accompaniment.wav"
    audio = render.read_wav(path)
    # The song's samples in a file whose record vouches for each window's
    # frames, as the file holds them, by SHA-256.
    if forgery == "pcm16":
        path.write_bytes(pcm16_wav_bytes(audio))
    elif forgery == "stereo":
        render.write_wav(render.AudioBuffer(audio.sample_rate, np.vstack([audio.samples] * 2)),
                         path)
    elif forgery == "rate":
        render.write_wav(render.AudioBuffer(audio.sample_rate // 2, audio.samples), path)
    else:
        render.write_wav(render.AudioBuffer(audio.sample_rate, audio.samples[:, :-1]), path)
    forged = render.WavReader(path)
    windows = {w.order: w for w in planner.plan_from_json(fresh["plan.json"].decode())}
    for entry in record["windows"]:
        first, last = render.window_samples(windows[entry["order"]], audio.sample_rate)
        entry["sha256"] = hashlib.sha256(forged.read_bytes(first, last)).hexdigest()
    (out / "render.json").write_text(json.dumps(record))
    renders = _counting(monkeypatch, render, "render_stub")
    run_pipeline(config, "render")
    assert len(renders) == (len(windows) if rendered == "all" else rendered)
    assert _read_bytes_map(out) == fresh


def test_a_flipped_byte_in_any_window_of_the_accompaniment_renders_that_window_alone(
    score_file, tmp_path, monkeypatch
):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    count = len(json.loads(fresh["render.json"])["windows"])
    assert count >= 3
    renders = _counting(monkeypatch, render, "render_stub")
    for order in range(count):
        _flip_in_window(out, order)
        renders.clear()
        run_pipeline(config, "render")
        assert len(renders) == 1, f"window {order}"
        assert _read_bytes_map(out) == fresh


def test_a_version_1_render_record_of_an_older_version_is_replaced(
    score_file, tmp_path, monkeypatch, caplog
):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    # The record as a version that wrote a WAV per window left it.
    bundle = conditioning.bundle_from_json(fresh["conditions.json"].decode())
    windows = planner.plan_from_json(fresh["plan.json"].decode())
    entries = []
    for window in windows:
        audio, events = render.render_stub(bundle, window, config.sample_rate)
        name, data = f"window_{window.order:03d}.wav", render.wav_bytes(audio)
        entries.append({"file": name, "sha256": hashlib.sha256(data).hexdigest(),
                        "fingerprint": render.window_fingerprint(bundle, window,
                                                                 config.sample_rate),
                        "events": [[e.time_sec, e.kind] for e in events]})
    (out / "render.json").write_text(
        json.dumps({"format": "render", "version": 1, "windows": entries}))
    renders = _counting(monkeypatch, render, "render_stub")
    with caplog.at_level("INFO", logger="songpipe.cli"):
        run_pipeline(config, "render")
    assert ("cannot read render.json: unsupported render version 1; rebuilding it"
            in caplog.text)
    assert len(renders) == len(windows)
    assert _read_bytes_map(out) == fresh


def test_a_run_decodes_each_artifact_that_stages_share_once(score_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    original_from_json = conditioning.bundle_from_json
    decodes = _counting(monkeypatch, conditioning, "bundle_from_json")
    run_pipeline(config)
    assert len(decodes) == 1  # render's decode is report's too
    run_pipeline(config, "condition")
    assert len(decodes) == 2

    def edited(text: str, shift: int) -> str:
        bundle = original_from_json(text)
        return conditioning.bundle_to_json(
            replace(bundle, chroma=np.roll(bundle.chroma, shift, axis=1)))

    conditions = out / "conditions.json"
    first = edited(conditions.read_text(), 2)
    second = edited(first, 5)
    conditions.write_text(first)
    seen = {}

    def spy(name, after=None):
        original = getattr(cli, name)

        def wrapper(bundle, *rest):
            seen[name] = conditioning.bundle_to_json(bundle)
            result = original(bundle, *rest)
            if after:
                after()
            return result
        monkeypatch.setattr(cli, name, wrapper)

    spy("render_windows")
    spy("self_report")
    run_pipeline(config, "render")
    assert len(decodes) == 3
    assert seen == {"render_windows": first, "self_report": first}
    # A file that changes between its readers is decoded again.
    spy("render_windows", after=lambda: conditions.write_text(second))
    run_pipeline(config, "render")
    assert len(decodes) == 5
    assert seen == {"render_windows": first, "self_report": second}
    # A stage called on its own keeps nothing from an earlier call.
    _STAGE_FUNCS["report"](config, str(out))
    assert len(decodes) == 6


def test_a_mix_over_samples_that_are_not_finite_fails_and_keeps_the_old_mix(
    score_file, tmp_path, capsys
):
    out = tmp_path / "out"
    args = ["run", "--score", str(score_file), "--output", str(out)]
    assert main(args) == 0
    old_mix = (out / "mix.wav").read_bytes()
    accompaniment = out / "accompaniment.wav"
    data = bytearray(accompaniment.read_bytes())
    start = render.WavReader(accompaniment).header.data_offset
    middle = start + (len(data) - start) // 8 * 4  # a sample boundary of the mono float32 data
    data[middle : middle + 4000] = np.full(1000, np.nan, dtype="<f4").tobytes()
    accompaniment.write_bytes(bytes(data))
    message = "cannot mix: a summed sample is not finite (peak nan)"

    assert main(args + ["--from", "mix"]) == 1
    assert f"error in stage 'mix': {message}" in capsys.readouterr().err
    assert (out / "mix.wav").read_bytes() == old_mix
    vocal, mixed = tmp_path / "vocal.wav", tmp_path / "mixed.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 1000))), vocal)
    assert main(["mix", str(vocal), str(accompaniment), "-o", str(mixed)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["out", "song.mid", "vocal.wav"]
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_memo_entries_that_do_not_fit_are_measured_again(score_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    run_pipeline(config)
    fresh = _read_bytes_map(out)
    memo = json.loads(fresh["chroma_memo.json"])
    key, rows = memo["chunks"][0]
    memo["chunks"][0] = [key, rows[:-3]]  # one row short
    (out / "chroma_memo.json").write_text(json.dumps(memo))
    measured = _counting(monkeypatch, metrics, "_note_bin_basis")
    run_pipeline(config, "report")
    assert len(measured) == 1
    assert _read_bytes_map(out) == fresh


def test_report_over_a_silent_accompaniment_has_no_key_segments(score_file, tmp_path, capsys):
    # Silent audio has no chroma in any section, so no section is keyed.
    out = tmp_path / "out"
    argv = ["run", "--score", str(score_file), "--output", str(out)]
    assert main(argv) == 0
    reader = render.open_wav(out / "accompaniment.wav")
    render.write_wav(render.AudioBuffer(reader.sample_rate, np.zeros((1, reader.n_samples))),
                     out / "accompaniment.wav")
    assert main(argv + ["--from", "report"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["key_accuracy_audio_vs_conditions"] is None
    assert report["num_key_segments"] == 0
    assert report["chord_f1_audio_vs_conditions"] == 0.0
    assert "key_accuracy_audio_vs_conditions: None" in capsys.readouterr().out


#: Each artifact a resume reads, and the first stage that reads it.
_FIRST_READER = {
    "input.score.json": "validate",
    "registered.score.json": "harmonize",
    "song.score.json": "condition",
    "chords.txt": "condition",
    "conditions.json": "render",
    "plan.json": "render",
    "render.json": "render",
    "accompaniment.wav": "mix",
    "events.txt": "report",
    "chroma_memo.json": "report",
    "load.json": "report",
    "mix.json": "report",
}

_TOKENS = (b"1e400", b"NaN", b"-1", b"null", b'"x"')

#: ``(kind, *arguments)`` of one edit of a file's bytes; see ``_mutated``.
#: No edit adds a digit to a number, so no song grows to hours, which
#: condition would allocate frames for.
_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**24), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**24)),
    st.tuples(st.just("insert"), st.integers(0, 2**24),
              st.binary(min_size=1, max_size=8).filter(lambda b: not re.search(rb"\d", b))
              | st.sampled_from(_TOKENS)),
    st.tuples(st.just("replace"), st.sampled_from((b"", b"{}", b"[]", b"null"))),
    st.tuples(st.just("token"), st.integers(0, 2**24), st.sampled_from(_TOKENS)),
)


def _mutated(data: bytes, kind: str, *args) -> bytes:
    if kind == "replace":
        return args[0]
    if kind == "truncate":
        return data[: args[0] % len(data)]
    if kind == "insert":
        at = args[0] % (len(data) + 1)
        return data[:at] + args[1] + data[at:]
    if kind == "flip":
        at = args[0] % len(data)
        byte = data[at] ^ args[1]
        assume(not bytes([byte]).isdigit() or data[at:at + 1].isdigit())
        return data[:at] + bytes([byte]) + data[at + 1:]
    digits = [m.start() for m in re.finditer(rb"\d", data)]  # "token": one digit swapped
    assume(digits)
    at = digits[args[0] % len(digits)]
    return data[:at] + args[1] + data[at + 1:]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("finished")
    score = tmp / "song.mid"
    score.write_bytes(score_io.write_smf(simple_score(MELODY, labels=["verse", "chorus"])))
    config = PipelineConfig(str(score), str(tmp / "out"))
    run_pipeline(config)
    return config


@settings(max_examples=100, deadline=None)
@given(artifact=st.sampled_from(sorted(_FIRST_READER)), mutation=_MUTATIONS)
@example(artifact="song.score.json", mutation=("token", 0, b"1e400"))
def test_a_resume_over_any_corrupt_artifact_returns_or_names_the_stage(
    finished_run, artifact, mutation
):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        shutil.copytree(finished_run.output_dir, out)
        path = out / artifact
        path.write_bytes(_mutated(path.read_bytes(), *mutation))
        try:
            run_pipeline(replace(finished_run, output_dir=str(out)), _FIRST_READER[artifact])
        except StageError:
            pass


# ---------------------------------------------------------------------------
# Satellites: the key near-tie, a portable manifest, files named on parse errors


def test_steady_frames_drop_the_radius_around_each_chord_change():
    chroma = np.zeros((20, 12))
    chroma[8:, 0] = 1.0  # one change, at frame 8
    steady = metrics.steady_frames(chroma, 3)
    assert np.flatnonzero(~steady).tolist() == [5, 6, 7, 8, 9, 10]
    assert metrics.steady_frames(chroma[:8], 3).all()  # song edges are not changes


def test_key_accuracy_skips_frames_whose_window_straddles_a_chord_change(tmp_path):
    # On this score the unmasked per-section keys of the audio and of the
    # conditions differ on a near-tie: the analysis windows around each chord
    # change hear both chords.
    path = tmp_path / "tie.mid"
    path.write_bytes(score_io.write_smf(random_score(random.Random(86))))
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(str(path), str(out)))["report"]
    bundle = conditioning.bundle_from_json((out / "conditions.json").read_text())
    audio = render.read_wav(out / "accompaniment.wav")
    chroma = metrics.chroma_from_audio(audio.samples, audio.sample_rate, bundle.frame_rate,
                                       bundle.num_frames)
    hits = []
    for section in sorted(set(bundle.structure.tolist())):
        mask = (bundle.structure == section) & bundle.chroma.any(axis=1)
        if mask.any() and chroma[mask].any():
            hits.append(metrics.estimate_key(bundle.chroma[mask])
                        == metrics.estimate_key(chroma[mask]))
    assert not all(hits)
    assert report["key_accuracy_audio_vs_conditions"] == 1.0
    assert report["num_key_segments"] == len(hits)
    # 6 chord changes, 10 frames each: a window of 8192 samples at 882 per frame
    assert report["num_key_masked_frames"] == 60
    assert json.loads((out / "report.json").read_text()) == report


def test_the_manifest_does_not_depend_on_the_checkout_directory(score_file, tmp_path):
    vocal = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 4410))), vocal)
    manifests = []
    for checkout in ("a", "somewhere/else"):
        inputs = tmp_path / checkout / "inputs"
        inputs.mkdir(parents=True)
        shutil.copy(score_file, inputs / "song.mid")
        shutil.copy(vocal, inputs / "vocal.wav")
        out = tmp_path / checkout / "out"
        run_pipeline(PipelineConfig(str(inputs / "song.mid"), str(out),
                                    vocal_path=str(inputs / "vocal.wav")))
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    config = json.loads(manifests[0])["config"]
    assert (config["score_path"], config["vocal_path"], config["lyrics_path"]) == \
        ("song.mid", "vocal.wav", None)
    assert config["score_sha256"] == hashlib.sha256(score_file.read_bytes()).hexdigest()
    assert config["vocal_sha256"] == hashlib.sha256(vocal.read_bytes()).hexdigest()
    assert config["lyrics_sha256"] is None


def test_the_manifest_hashes_the_inputs_the_run_read(score_file, tmp_path):
    vocal = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 4410))), vocal)
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), vocal_path=str(vocal))
    read_score = hashlib.sha256(score_file.read_bytes()).hexdigest()
    run_pipeline(config)
    assert json.loads((out / "load.json").read_text()) == \
        {"score_sha256": read_score, "lyrics_sha256": None}
    # Another song overwrites the score; a resume from render does not read it.
    score_file.write_bytes(score_io.write_smf(random_score(random.Random(3))))
    manifest = run_pipeline(config, "render")
    assert manifest["config"]["score_sha256"] == read_score
    # A new vocal is read by mix, so the resume records its hash.
    render.write_wav(render.AudioBuffer(44100, np.ones((1, 4410)) / 4), vocal)
    manifest = run_pipeline(config, "mix")
    assert manifest["config"]["vocal_sha256"] == hashlib.sha256(vocal.read_bytes()).hexdigest()
    assert manifest["config"]["score_sha256"] == read_score
    assert {"load_inputs", "mix_inputs"} <= set(manifest["artifacts"])


def test_a_run_with_lyrics_and_a_reference_bank_records_the_selection(score_file, tmp_path):
    bank_texts = {
        "a.txt": "[verse]\nla la la la\n",
        "b.txt": "[verse]\nla la la\nla la\n[chorus]\noh oh oh\n",
        "c.txt": "[chorus]\nna na\nna\nna na na\nna\n",
    }
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, text in bank_texts.items():
        (bank / name).write_text(text)
    lyrics = tmp_path / "words.txt"
    lyrics.write_text("# sheet\n[verse]\nla la la\nla la la\n[chorus]\noh oh\n")
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), lyrics_path=str(lyrics),
                            reference_bank=str(bank))
    manifest = run_pipeline(config)
    sheet = prep.parse_lyrics(lyrics.read_text())
    index, breakdown = prep.select_reference(
        sheet, [prep.parse_lyrics(text) for text in bank_texts.values()])
    assert index == 1
    assert json.loads((out / "reference.json").read_text()) == {
        "bank_index": index, "bank_file": "b.txt", "penalty": asdict(breakdown)}
    digest = hashlib.sha256(lyrics.read_bytes()).hexdigest()
    assert json.loads((out / "load.json").read_text())["lyrics_sha256"] == digest
    assert manifest["config"]["lyrics_sha256"] == digest
    assert manifest["config"]["reference_bank"] == "bank"
    first = _read_bytes_map(out)
    run_pipeline(config)
    assert _read_bytes_map(out) == first


def test_the_files_of_a_full_run_are_the_manifest_artifacts_and_the_readme_table(
    score_file, tmp_path
):
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "a.txt").write_text("[verse]\nla la la\n")
    lyrics = tmp_path / "words.txt"
    lyrics.write_text("[verse]\nla la la\n[chorus]\noh oh\n")
    vocal = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 44100))), vocal)
    out = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig(str(score_file), str(out), vocal_path=str(vocal),
                                           lyrics_path=str(lyrics), reference_bank=str(bank)))
    # The manifest lists every file but itself, so fresh runs and reruns list the same.
    listed = sorted([*manifest["artifacts"].values(), ART["manifest"]])
    assert sorted(os.listdir(out)) == listed == sorted(ART.values())
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| file | stage | contents |\n| --- | --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    assert sorted(row.split("`")[1] for row in rows) == sorted(ART.values())


@pytest.mark.parametrize("keep", [None, "lyrics"])
def test_a_rerun_without_lyrics_or_a_bank_drops_the_files_they_gave(score_file, tmp_path, keep):
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "a.txt").write_text("[verse]\nla la la\n")
    lyrics = tmp_path / "words.txt"
    lyrics.write_text("[verse]\nla la la\n[chorus]\noh oh\n")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    run_pipeline(PipelineConfig(str(score_file), str(out), lyrics_path=str(lyrics),
                                reference_bank=str(bank)))
    assert "reference.json" in os.listdir(out)
    lyrics_path = str(lyrics) if keep else None
    run_pipeline(PipelineConfig(str(score_file), str(out), lyrics_path=lyrics_path))
    manifest = run_pipeline(PipelineConfig(str(score_file), str(fresh), lyrics_path=lyrics_path))
    assert "reference" not in manifest["artifacts"]
    assert _read_bytes_map(out) == _read_bytes_map(fresh)


_BANK_TEXTS = {
    "a.txt": "[verse]\nla la la la\n",
    "b.txt": "[verse]\nla la la\nla la\n[chorus]\noh oh oh\n",
    "c.txt": "[chorus]\nna na\nna\nna na na\nna\n",
}
_WORDS = "[verse]\nla la la\nla la la\n[chorus]\noh oh\n"


def _same_size_and_mtime(path, text: str) -> None:
    """Rewrite ``path`` with ``text`` padded by a comment to its old size, keeping its mtime."""
    old = os.stat(path)
    pad = old.st_size - len(text) - 2
    assert pad >= 0
    path.write_text(text + "#" + "x" * pad + "\n")
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert os.stat(path).st_size == old.st_size


@pytest.mark.parametrize("change, winner", [
    ("edit", "c.txt"), ("add", "0.txt"), ("remove", "c.txt")])
def test_a_bank_edited_between_runs_in_one_process_selects_as_a_fresh_process(
        score_file, tmp_path, change, winner):
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, text in _BANK_TEXTS.items():
        (bank / name).write_text(text + "#" + "x" * 40 + "\n")
    lyrics = tmp_path / "words.txt"
    lyrics.write_text(_WORDS)

    def reference(out: str) -> dict:
        run_pipeline(PipelineConfig(str(score_file), str(tmp_path / out),
                                    lyrics_path=str(lyrics), reference_bank=str(bank)))
        return json.loads((tmp_path / out / "reference.json").read_text())

    assert reference("before")["bank_file"] == "b.txt"
    if change == "edit":  # bytes that another entry wins with, at the old size and mtime
        _same_size_and_mtime(bank / "c.txt", _WORDS)
    elif change == "add":
        (bank / "0.txt").write_text(_WORDS)
    else:
        (bank / "b.txt").unlink()
    after = reference("after")
    prep._BANK_SHAPES.clear()
    assert after == reference("fresh")
    assert after["bank_file"] == winner
    assert after["bank_index"] == sorted(os.listdir(bank)).index(winner)


def test_a_bank_file_that_is_not_utf8_fails_every_run_alike(score_file, tmp_path):
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, text in _BANK_TEXTS.items():
        (bank / name).write_text(text)
    lyrics = tmp_path / "words.txt"
    lyrics.write_text(_WORDS)
    config = PipelineConfig(str(score_file), str(tmp_path / "out"),
                            lyrics_path=str(lyrics), reference_bank=str(bank))
    run_pipeline(config)
    (bank / "b.txt").write_bytes(b"[verse]\nla \xff la\n")
    with pytest.raises(ValueError) as read_error:
        prep.load_lyrics(bank / "b.txt")
    messages = []
    for _ in range(2):
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        messages.append((err.value.stage, str(err.value)))
    assert messages == [("load", str(read_error.value))] * 2


@pytest.mark.parametrize("empty", ["bank", "lyrics"])
def test_a_sheet_without_lyric_lines_is_named(score_file, tmp_path, capsys, empty):
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "a.txt").write_text(_BANK_TEXTS["a.txt"])
    lyrics = tmp_path / "words.txt"
    lyrics.write_text(_WORDS)
    if empty == "bank":
        (bank / "b.txt").write_text("# empty sheet\n")
        named = f"bank file {bank / 'b.txt'}"
    else:
        lyrics.write_text("[verse]\n")
        named = f"lyrics file {lyrics}"
    assert main(["run", "--score", str(score_file), "--lyrics", str(lyrics),
                 "--bank", str(bank), "--output", str(tmp_path / "out")]) == 1
    assert f"error in stage 'load': {named} has no lyric lines" in capsys.readouterr().err


def test_a_missing_or_malformed_input_hash_record_fails_report(score_file, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    run_pipeline(config)
    record = (out / "load.json").read_bytes()
    (out / "load.json").unlink()
    with pytest.raises(StageError, match=r"missing artifact load\.json; run earlier stages first"
                       ) as err:
        run_pipeline(config, "report")
    assert err.value.stage == "report"
    (out / "load.json").write_bytes(record)
    (out / "mix.json").write_text('{"vocal_sha256": 7}\n')
    with pytest.raises(StageError, match="mix.json does not record vocal_sha256") as err:
        run_pipeline(config, "report")
    assert err.value.stage == "report"


@pytest.mark.parametrize("failing", ["lyrics", "bank", "empty"])
def test_a_load_that_fails_changes_no_file(score_file, tmp_path, failing):
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, text in _BANK_TEXTS.items():
        (bank / name).write_text(text)
    lyrics = tmp_path / "words.txt"
    lyrics.write_text(_WORDS)
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), lyrics_path=str(lyrics),
                            reference_bank=str(bank))
    run_pipeline(config)
    before = _read_bytes_map(out)
    # Another score, read before the input that fails.
    other = tmp_path / "other.mid"
    other.write_bytes(score_io.write_smf(simple_score(MELODY[::-1])))
    if failing == "lyrics":
        lyrics.write_bytes(b"[verse]\nla \xff la\n")
    elif failing == "bank":
        (bank / "b.txt").write_bytes(b"[verse]\nla \xff la\n")
    else:
        lyrics.write_text("[verse]\n")
    with pytest.raises(StageError) as err:
        run_pipeline(replace(config, score_path=str(other)))
    assert err.value.stage == "load"
    assert _read_bytes_map(out) == before


#: The atomic writes of a run without lyrics or a vocal, in order.
_WRITES = (
    "input.score.json", "load.json", "register.json", "registered.score.json",
    "song.score.json", "chords.txt", "conditions.json", "plan.json", "accompaniment.wav",
    "events.txt", "render.json", "mix.wav", "mix.json", "report.json", "chroma_memo.json",
    "manifest.json",
)


def _crash_at_write(monkeypatch, k: int) -> list[str]:
    """Make the ``k``-th atomic write (none for 0) write some bytes, then raise ``OSError``.

    Returns the names of the files that writes were begun on, in order.
    """
    begun = []
    original = formats.replacing

    @contextmanager
    def replacing(path):
        begun.append(os.path.basename(path))
        with original(path) as fh:
            if len(begun) == k:
                fh.write(b"RIFF")
                raise OSError(f"no space left on device writing {begun[-1]}")
            yield fh
    monkeypatch.setattr(formats, "replacing", replacing)
    monkeypatch.setattr(render, "replacing", replacing)
    return begun


@pytest.fixture(scope="module")
def seed_3_song(tmp_path_factory):
    """``random_score`` seed 3 as a MIDI file, and the files of a clean run of it."""
    base = tmp_path_factory.mktemp("seed_3")
    score = base / "song.mid"
    score.write_bytes(score_io.write_smf(random_score(random.Random(3))))
    with pytest.MonkeyPatch.context() as patch:
        begun = _crash_at_write(patch, 0)
        run_pipeline(PipelineConfig(str(score), str(base / "clean")))
    assert tuple(begun) == _WRITES
    return score, _read_bytes_map(base / "clean")


@pytest.mark.parametrize("k, name", enumerate(_WRITES, start=1))
def test_a_crash_at_any_write_leaves_no_temporary_file_and_a_rerun_heals(
    seed_3_song, tmp_path, monkeypatch, k, name
):
    score, clean = seed_3_song
    config = PipelineConfig(str(score), str(tmp_path / "out"))
    with monkeypatch.context() as patch:
        begun = _crash_at_write(patch, k)
        with pytest.raises(StageError, match=f"writing {re.escape(name)}"):
            run_pipeline(config)
    assert begun[-1] == name
    assert not [n for n in os.listdir(tmp_path / "out") if n.endswith(".tmp")]
    run_pipeline(config)
    assert _read_bytes_map(tmp_path / "out") == clean


def test_every_artifact_a_stage_reads_is_named_in_its_row(score_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    vocal = tmp_path / "vocal.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 44100))), vocal)
    config = PipelineConfig(str(score_file), str(out), vocal_path=str(vocal))
    run_pipeline(config)  # so that each stage finds the caches it reuses
    opened = []
    real_open = builtins.open

    def spying_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", spying_open)
    for stage, _, *keys in cli._STAGE_TABLE:
        opened.clear()
        _STAGE_FUNCS[stage](config, str(out))
        read = {os.path.basename(path) for path, mode in opened
                if os.path.dirname(path) == str(out) and not set(mode) & set("wax+")}
        named = {ART[key] for row in keys for key in row}
        assert (stage, read) == (stage, named)


def _stage_files(score_file, tmp_path):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(str(score_file), str(out)))
    beats = tmp_path / "ref.beats"
    beats.write_text("0.0 1\n0.5 2\n")
    keys = tmp_path / "ref.keys"
    keys.write_text("C:maj\n")
    text = tmp_path / "ref.txt"
    text.write_text("la la\n")
    return out, beats, keys, text


@pytest.mark.parametrize("flag, garbage, message", [
    ("render --conditions", "{", "not valid JSON"),
    ("render --plan", "[1, 2", "not valid JSON"),
    ("condition --chords", "0 2 X:maj\n", "unknown pitch class name: 'X'"),
    ("eval --ref-beats", "0.0 1 2\n", "beat line 1: expected 2 columns, got 3"),
    ("eval --est-beats", "0.0 1 2\n", "beat line 1: expected 2 columns, got 3"),
    ("eval --ref-chroma", "[]", "expected a JSON object with a 'chroma' key"),
    ("eval --est-chroma", "{", "Expecting property name"),
    ("eval --ref-keys", "H:maj\n", "unknown pitch class name: 'H'"),
    ("eval --est-keys", "C:major-ish\n", "unknown key mode 'major-ish'"),
    ("eval --ref-text", b"\xff\xfe", "codec can't decode"),
    ("eval --hyp-text", b"la \xff\n", "codec can't decode"),
    ("run --config", '{"score_path": "s.mid",', "config is not valid JSON"),
    ("run --config", '["s.mid"]', "config must be a JSON object"),
    ("render --plan", '{"format": "plan", "version": 1, "windows": [{"order": 1e400, '
     '"start_sec": 0, "end_sec": 1, "anchor_section": 0, '
     '"reference": {"kind": "none", "section": null}}]}', "malformed plan document"),
    ("render --conditions", '{"format": "conditions", "version": 1, "frame_rate": 50, '
     '"rhythm": [], "chroma": [], "structure": [], "pitch_contour": [], "keys": [], '
     '"num_frames": 1e400}', "malformed conditions document"),
    ("eval --ref-beats", "0.0 1e400\n", "beat line 1: bad time or position column"),
    ("eval --est-beats", "0.0 1\nnan 2\n1.0 3\n", "beat line 2: time nan is not finite"),
])
def test_a_file_argument_that_does_not_parse_is_named(score_file, tmp_path, capsys,
                                                     flag, garbage, message):
    out, beats, keys, text = _stage_files(score_file, tmp_path)
    good = {
        "render": {"--conditions": out / "conditions.json", "--plan": out / "plan.json",
                   "-o": tmp_path / "render_out"},
        "condition": {"--chords": out / "chords.txt", "-o": tmp_path / "c.json"},
    }
    pairs = {"beats": beats, "chroma": out / "conditions.json", "keys": keys, "text": text}
    command, option = flag.split()
    if command == "eval":
        kind = option.split("-")[-1]
        files = ("--ref-text", "--hyp-text") if kind == "text" else (f"--ref-{kind}",
                                                                        f"--est-{kind}")
        options = dict.fromkeys(files, pairs[kind])
    elif command == "run":
        options = {"--output": tmp_path / "o"}
    else:
        options = dict(good[command])
    bad = tmp_path / "bad.input"
    bad.write_bytes(garbage if isinstance(garbage, bytes) else garbage.encode())
    options[option] = bad
    argv = [command] + ([str(score_file)] if command == "condition" else [])
    for name, value in options.items():
        argv += [name, str(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read {bad}: " in err
    assert message in err


# ---------------------------------------------------------------------------
# Satellites: chords timed on the song's own bars, windows that tile the song


def test_a_tempo_change_inside_the_intro_bars_runs_through(tmp_path):
    # Seed 28 slows down inside bar 0, so the song's intro bars, at the tempo
    # of tick 0, are shorter than the score's first bars.
    score = random_score(random.Random(28), min_bars=24, max_bars=40, multi_tempo=True)
    assert 0 < score.tempo_map[1][0] < score.ticks_per_bar
    path = tmp_path / "tempo.mid"
    path.write_bytes(score_io.write_smf(score))
    out = tmp_path / "out"
    assert main(["run", "--score", str(path), "--output", str(out)]) == 0
    song = score_io.load_score(out / "song.score.json")
    chords = conditioning.parse_chords((out / "chords.txt").read_text())
    assert chords.end_sec == pytest.approx(song.duration_seconds(), abs=1e-6)


@pytest.mark.parametrize("intro_bars", [4, 0])
def test_the_harmonize_stage_calls_harmonize_once(score_file, tmp_path, monkeypatch, intro_bars):
    # The benchmark times harmony.harmonize by wrapping the module attribute;
    # a stage that reached the chords another way would read 0 there.
    config = PipelineConfig(str(score_file), str(tmp_path / "out"), intro_bars=intro_bars)
    _run(config)
    calls = _counting(monkeypatch, harmony, "harmonize")
    _STAGE_FUNCS["harmonize"](config, config.output_dir)
    assert len(calls) == 1
    song = score_io.load_score(tmp_path / "out" / ART["song_score"])
    assert (song.sections[0].label == "intro") is (intro_bars > 0)


@pytest.mark.parametrize("edit", ["overlap", "gap", "late first", "truncated last"])
def test_a_plan_whose_windows_do_not_tile_the_song_is_a_render_error(
    score_file, tmp_path, capsys, edit
):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out), max_window_sec=4.0)
    _run(config)
    plan = out / ART["plan"]
    windows = planner.plan_from_json(plan.read_text())
    assert len(windows) >= 3
    by_start = sorted(range(len(windows)), key=lambda j: windows[j].start_sec)
    pos, field, delta = {"overlap": (1, "start_sec", -0.5), "gap": (1, "start_sec", 0.5),
                         "late first": (0, "start_sec", 0.5),
                         "truncated last": (-1, "end_sec", -0.5)}[edit]
    i = by_start[pos]
    window = windows[i] = replace(windows[i], **{field: getattr(windows[i], field) + delta})
    if field == "end_sec":
        message = f"window {window.order} ends at {window.end_sec} s, not in the last frame"
    else:
        expected = windows[by_start[pos - 1]].end_sec if pos else 0.0
        message = f"window {window.order} starts at {window.start_sec} s, not at {expected} s"
    plan.write_text(planner.plan_to_json(windows))
    before = _read_bytes_map(out)
    with pytest.raises(StageError, match=re.escape(message)) as err:
        run_pipeline(config, from_stage="render")
    assert err.value.stage == "render"
    assert _read_bytes_map(out) == before
    assert main(["render", "--conditions", str(out / ART["conditions"]), "--plan", str(plan),
                 "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert _read_bytes_map(out) == before


# ---------------------------------------------------------------------------
# Chromagrams and rhythm read as rows of a fixed width


@pytest.mark.parametrize("ref, est, shape", [
    ([[1.0] * 13] * 12, [[1.0] * 12] * 13, "(12, 13)"),  # 156 cells once read as 13 rows
    ([1.0] * 24, [[1.0] * 12] * 2, "(24,)"),  # a flat list once read as two rows
])
def test_eval_refuses_a_chromagram_that_is_not_rows_of_twelve(tmp_path, capsys, ref, est, shape):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"chroma": ref}))
    b.write_text(json.dumps({"chroma": est}))
    assert main(["eval", "--ref-chroma", str(a), "--est-chroma", str(b)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: cannot read {a}: chroma must be a list of rows of 12 numbers, "
            f"got shape {shape}") in captured.err


@pytest.mark.parametrize("key, width", [("chroma", 12), ("rhythm", 2)])
def test_a_flattened_condition_matrix_is_named_on_resume(score_file, tmp_path, capsys,
                                                         key, width):
    out = tmp_path / "out"
    assert main(["run", "--score", str(score_file), "--output", str(out)]) == 0
    doc = json.loads((out / "conditions.json").read_text())
    cells = sum(len(row) for row in doc[key])
    doc[key] = [value for row in doc[key] for value in row]
    (out / "conditions.json").write_text(json.dumps(doc))
    report = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["run", "--score", str(score_file), "--output", str(out), "--from", "report"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'report': cannot read conditions.json: " in err
    assert f"{key} must be a list of rows of {width} numbers, got shape ({cells},)" in err
    assert (out / "report.json").read_bytes() == report


# ---------------------------------------------------------------------------
# Satellites: inputs that vanish, refusals on resume, the benchmark's traced names


@pytest.mark.parametrize("stage, module, name, input_field", [
    ("mix", render, "mix", "vocal_path"),
    ("load", score_io, "load_score", "score_path"),
    ("load", prep, "load_lyrics", "lyrics_path"),
])
def test_an_input_that_vanishes_after_its_stage_read_it_fails_that_stage(
    score_file, tmp_path, monkeypatch, stage, module, name, input_field
):
    vocal = tmp_path / "v.wav"
    render.write_wav(render.AudioBuffer(44100, np.zeros((1, 4410))), vocal)
    lyrics = tmp_path / "words.txt"
    lyrics.write_text(_WORDS)
    config = PipelineConfig(str(score_file), str(tmp_path / "out"),
                            vocal_path=str(vocal), lyrics_path=str(lyrics))
    path = getattr(config, input_field)
    read = getattr(module, name)

    def read_then_delete(*args, **kwargs):
        result = read(*args, **kwargs)
        os.remove(path)
        return result
    monkeypatch.setattr(module, name, read_then_delete)
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert (err.value.stage, str(err.value)) == \
        (stage, f"[Errno 2] No such file or directory: {path!r}")


@pytest.mark.parametrize("artifact, stage, edit, message", [
    ("chords.txt", "condition", lambda t: t.replace("0.000000", "x", 1),
     "chord line 1: bad time columns"),
    ("chords.txt", "condition", lambda t: t.replace("C:maj", "Cmaj", 1),
     "chord line 1: chord must look like 'C:maj'"),
    ("chords.txt", "condition", lambda t: t.replace("0.000000 2.000000", "2.000000 0.000000", 1),
     "cannot read chords.txt: chord span [2.0, 0.0) is empty or inverted"),
    ("conditions.json", "render", lambda d: d["keys"][0].update(mode="dorian"),
     "malformed conditions document: mode must be 'major' or 'minor', got 'dorian'"),
    ("plan.json", "render", lambda d: d["windows"][0].update(end_sec=d["windows"][0]["start_sec"]),
     "malformed plan document: window [8.0, 8.0) is empty or inverted"),
    ("conditions.json", "render", lambda d: d.update(num_frames=d["num_frames"] + 1),
     "num_frames does not match matrix length"),
    ("conditions.json", "render", lambda d: d.update(structure=d["structure"][:-1]),
     "structure must have shape (T,)"),
    ("conditions.json", "render", lambda d: d.update(pitch_contour=d["pitch_contour"][:-1]),
     "pitch_contour must have shape (T,)"),
    ("conditions.json", "render", lambda d: d.update(frame_rate=0),
     "frame_rate must be positive"),
    ("conditions.json", "render", lambda d: d["keys"][0].update(tonic=12),
     "tonic must be in [0, 11]"),
    ("plan.json", "render",
     lambda d: d["windows"][0].update(end_sec=d["windows"][0]["start_sec"] + 50),
     "exceeds the 47.0 s limit"),
    ("input.score.json", "validate", lambda d: d["notes"][0].update(syllable=5),
     "expected string or null, got int"),
    ("input.score.json", "validate", lambda d: d.update(ticks_per_quarter=0),
     "ticks_per_quarter must be >= 1, got 0"),
    ("input.score.json", "validate", lambda d: d.update(tempo_map=[]),
     "tempo map is empty"),
    ("input.score.json", "validate", lambda d: d.update(tempo_map=[[0, 0]]),
     "tempo map entry 0 has non-positive tempo 0"),
    ("input.score.json", "validate", lambda d: d.update(tempo_map=[[0, 500000], [0, 400000]]),
     "tempo map entry 1 not strictly after entry 0"),
    ("input.score.json", "validate", lambda d: d["notes"][0].update(syllable=""),
     "note 0 has empty syllable text"),
    ("input.score.json", "validate", lambda d: d["sections"][0].update(end_tick=0),
     "section 0 is empty or inverted"),
    ("input.score.json", "validate", lambda d: d["sections"][-1].update(end_tick=14880),
     "sections end at tick 14880 but notes run to tick 15360"),
    ("conditions.json", "render", lambda d: d["chroma"].__setitem__(0, [math.nan] * 12),
     "malformed conditions document: chroma cells must be 0 or 1"),
    ("conditions.json", "render", lambda d: d["chroma"].__setitem__(0, [2.0] * 12),
     "malformed conditions document: chroma cells must be 0 or 1"),
    ("conditions.json", "render", lambda d: d["rhythm"].__setitem__(0, [math.inf, 0]),
     "malformed conditions document: rhythm values must be in [0, 1]"),
    ("events.txt", "report", lambda t: "NaN\tbeat\n" + t.split("\n", 1)[1],
     "event line 1: time NaN is not finite"),
    ("conditions.json", "render", lambda d: d.update(frame_rate=math.inf),
     "frame_rate must be positive and finite, got inf"),
    ("input.score.json", "validate", lambda d: d.update(ticks_per_quarter=70000),
     "ticks_per_quarter must be <= 32767 (the MIDI limit), got 70000"),
    ("song.score.json", "condition", lambda d: d["tempo_map"][0].__setitem__(1, 10**12),
     "tempo map entry 0 has tempo 1000000000000 above the MIDI limit of 16777215 us per quarter"),
    # A hand-edited value is refused, not coerced: an integer field takes a
    # whole number and no bool or string, a string field only a string.
    ("song.score.json", "condition", lambda d: d.update(ticks_per_quarter=True),
     "malformed score document: ticks_per_quarter must be a whole number, got True"),
    ("song.score.json", "condition", lambda d: d["notes"][0].update(pitch=67.9),
     "malformed score document: pitch must be a whole number, got 67.9"),
    ("song.score.json", "condition", lambda d: d["notes"][1].update(onset_tick="8160"),
     "malformed score document: onset_tick must be a whole number, got '8160'"),
    ("song.score.json", "condition", lambda d: d.update(title=5),
     "malformed score document: title must be a string, got 5"),
    ("conditions.json", "render", lambda d: d.update(structure=[99] * len(d["structure"])),
     "malformed conditions document: structure ids must be whole numbers in [0, 8)"),
    ("conditions.json", "render", lambda d: d["structure"].__setitem__(0, 1.7),
     "malformed conditions document: structure ids must be whole numbers in [0, 8)"),
    ("conditions.json", "render", lambda d: d["structure"].__setitem__(0, True),
     "malformed conditions document: structure and pitch_contour must be lists of numbers"),
    ("conditions.json", "render", lambda d: d["keys"][0].update(tonic=1.9),
     "malformed conditions document: tonic must be a whole number, got 1.9"),
    ("conditions.json", "render", lambda d: d["pitch_contour"].__setitem__(0, -5.5),
     "malformed conditions document: pitch_contour values must be finite and in [0, 127]"),
    ("conditions.json", "render", lambda d: d.update(frame_rate="50"),
     "malformed conditions document: frame_rate must be a number, got '50'"),
    ("plan.json", "render", lambda d: d["windows"][0].update(anchor_section="0"),
     "malformed plan document: anchor_section must be a whole number, got '0'"),
    ("plan.json", "render",
     lambda d: next(w for w in d["windows"] if w["start_sec"] == 0).update(start_sec=False),
     "malformed plan document: start_sec must be a number, got False"),
    # A version is a number, as an integer field is: true is not version 1.
    ("song.score.json", "condition", lambda d: d.update(version=True),
     "cannot read song.score.json: unsupported score version True"),
    ("plan.json", "render", lambda d: d.update(version=True),
     "cannot read plan.json: unsupported plan version True"),
    ("conditions.json", "render", lambda d: d.update(version=True),
     "cannot read conditions.json: unsupported conditions version True"),
    ("conditions.json", "render", lambda d: d["structure"].__setitem__(0, math.inf),
     "malformed conditions document: structure ids must be whole numbers in [0, 8)"),
    # The key sections are 0 to len(keys) - 1, each once.
    ("conditions.json", "render", lambda d: d["keys"][0].update(section=-7),
     "malformed conditions document: keys must give one key per section from 0, "
     "got sections [-7, 1, 2]"),
    pytest.param("conditions.json", "render", lambda d: d["keys"][0].update(section=1e308),
                 "malformed conditions document: keys must give one key per section from 0, "
                 f"got sections [1, 2, {int(1e308)}]", id="key-section-1e308"),
    ("conditions.json", "render", lambda d: d["keys"][2].update(section=0),
     "malformed conditions document: keys must give one key per section from 0, "
     "got sections [0, 0, 1]"),
])
def test_an_edited_artifact_that_breaks_a_rule_is_refused_on_resume(
    finished_run, tmp_path, artifact, stage, edit, message
):
    out = tmp_path / "out"
    shutil.copytree(finished_run.output_dir, out)
    path = out / artifact
    if artifact.endswith(".json"):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    else:
        path.write_text(edit(path.read_text()))
    # Refused with no warning first: a structure id of inf used to warn.
    with warnings.catch_warnings(), pytest.raises(StageError) as err:
        warnings.simplefilter("error")
        run_pipeline(replace(finished_run, output_dir=str(out)), stage)
    assert err.value.stage == stage
    assert message in str(err.value)


def test_every_name_the_benchmark_traces_exists():
    # bench/spans.py wraps these module attributes by name; it imports no
    # songpipe code, so it is loaded from its file.
    spec = importlib.util.spec_from_file_location(
        "bench_spans", pathlib.Path(__file__).parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, *_ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(f"songpipe.{module}"), attr, None))]
    assert missing == []


# ---------------------------------------------------------------------------
# A stage writes nothing until all it made is encoded; WAVs RIFF cannot hold


@pytest.mark.parametrize("stage, change, module, name", [
    ("harmonize", {"intro_bars": 2}, conditioning, "format_chords"),
    ("register", {"profiles": (prep.SingerProfile("bass", 40, 60),)}, score_io, "score_to_json"),
])
def test_a_stage_that_fails_before_it_writes_changes_no_file(
    score_file, tmp_path, monkeypatch, stage, change, module, name
):
    out = tmp_path / "out"
    config = PipelineConfig(str(score_file), str(out))
    run_pipeline(config)
    before = _read_bytes_map(out)

    def fail(*args, **kwargs):
        raise ValueError("cannot encode")
    # The stage's first artifact encodes, and the one this encoder makes does not.
    monkeypatch.setattr(module, name, fail)
    with pytest.raises(StageError) as err:
        run_pipeline(replace(config, **change), stage)
    assert (err.value.stage, str(err.value)) == (stage, "cannot encode")
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]
    assert _read_bytes_map(out) == before


def test_a_wav_too_large_for_one_riff_file_is_refused_by_name(score_file, tmp_path, capsys):
    # struct.pack used to raise struct.error here, which escaped as a traceback.
    # The header is built before any window renders, so nothing is allocated.
    out, rendered = tmp_path / "job", tmp_path / "rendered"
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps({"score_path": str(score_file), "output_dir": str(out),
                                       "sample_rate": 200_000_000}))
    message = ("a WAV of 4800000000 frames of 1 channel(s) at 200000000 Hz is too large for one "
               "RIFF file: its 32-bit sizes allow at most 4294967247 bytes of frames, "
               "in all and per second\n")
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.endswith(f"error in stage 'render': {message}")
    assert main(["render", "--conditions", str(out / "conditions.json"),
                 "--plan", str(out / "plan.json"), "-o", str(rendered),
                 "--sample-rate", "200000000"]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    for directory in (out, rendered):
        assert not [n for n in os.listdir(directory)
                    if n == ART["accompaniment"] or n.endswith(".tmp")]
