"""SMF and canonical-JSON codecs: hand-built frames, round trips, fuzz."""
from __future__ import annotations

import json
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from songpipe import score_io
from songpipe.score import Note, Section, VocalScore
from songpipe.score_io import (
    ScoreFormatError,
    read_smf,
    save_score,
    score_from_json,
    score_to_json,
    write_smf,
)

from helpers import random_score, simple_score


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _track(events: bytes) -> bytes:
    return struct.pack(">4sIHHH", b"MThd", 6, 0, 1, 480) + struct.pack(
        ">4sI", b"MTrk", len(events)
    ) + events


def test_minimal_hand_built_file_parses():
    # one C4 quarter note inside a verse, 120 BPM
    events = (
        b"\x00\xff\x58\x04\x04\x02\x18\x08"
        b"\x00\xff\x51\x03\x07\xa1\x20"
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        + _vlq(480) + b"\x80\x3c\x40"
        + _vlq(1440) + b"\xff\x2f\x00"
    )
    score = read_smf(_track(events))
    assert score.notes == (Note(0, 480, 60),)
    assert score.tempo_map == ((0, 500000),)
    assert score.sections == (Section("verse", 0, 1920),)
    assert score.ticks_per_quarter == 480


def test_missing_tempo_defaults_to_120_bpm():
    events = (
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        + _vlq(480) + b"\x80\x3c\x40"
        + _vlq(1440) + b"\xff\x2f\x00"
    )
    score = read_smf(_track(events))
    assert score.tempo_map == ((0, 500000),)


def test_running_status_is_honoured():
    events = (
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"          # note on with explicit status
        + _vlq(480) + b"\x3c\x00"    # running status: velocity-0 note off
        + _vlq(480) + b"\x3e\x40"    # running status: next note on
        + _vlq(480) + b"\x3e\x00"
        + _vlq(480) + b"\xff\x2f\x00"
    )
    score = read_smf(_track(events))
    assert [n.pitch for n in score.notes] == [60, 62]


def test_velocity_zero_note_on_acts_as_off():
    events = (
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        + _vlq(480) + b"\x90\x3c\x00"
        + _vlq(1440) + b"\xff\x2f\x00"
    )
    score = read_smf(_track(events))
    assert score.notes == (Note(0, 480, 60),)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d[:8], "MThd"),
        (lambda d: b"XXXX" + d[4:], "MThd"),
        (lambda d: d.replace(b"\x04\x02\x18\x08", b"\x03\x02\x18\x08"), "4/4"),
        (lambda d: d.replace(b"verse", b"vexyz"), "label"),
    ],
)
def test_malformed_inputs_raise_typed_errors(mutate, message):
    events = (
        b"\x00\xff\x58\x04\x04\x02\x18\x08"
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        + _vlq(480) + b"\x80\x3c\x40"
        + _vlq(1440) + b"\xff\x2f\x00"
    )
    data = mutate(_track(events))
    with pytest.raises(ScoreFormatError) as err:
        read_smf(data)
    assert message in str(err.value)


def test_unmatched_note_on_is_rejected():
    events = (
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        + _vlq(1920) + b"\xff\x2f\x00"
    )
    with pytest.raises(ScoreFormatError) as err:
        read_smf(_track(events))
    assert "unmatched note-on" in str(err.value)


def test_zero_duration_note_is_rejected():
    events = (
        b"\x00\xff\x06\x05verse"
        b"\x00\x90\x3c\x40"
        b"\x00\x80\x3c\x40"
        + _vlq(1920) + b"\xff\x2f\x00"
    )
    with pytest.raises(ScoreFormatError) as err:
        read_smf(_track(events))
    assert "zero-duration" in str(err.value)


def test_smpte_division_is_rejected():
    data = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, 0xE250) + struct.pack(
        ">4sI", b"MTrk", 4
    ) + b"\x00\xff\x2f\x00"
    with pytest.raises(ScoreFormatError) as err:
        read_smf(data)
    assert "SMPTE" in str(err.value)


_VERSE_NOTE = (
    b"\x00\xff\x06\x05verse"
    b"\x00\x90\x3c\x40"
    + _vlq(480) + b"\x80\x3c\x40"
    + _vlq(1440) + b"\xff\x2f\x00"
)


@pytest.mark.parametrize("data, message", [
    (struct.pack(">4sIHHH", b"MThd", 6, 0, 1, 0) + _track(_VERSE_NOTE)[14:],
     "time division must be positive"),
    (struct.pack(">4sIHHH", b"MThd", 6, 0, 0, 480), "file declares zero tracks"),
    (_track(b"\x00\xff"), "truncated meta event"),
    (_track(b"\x00\xff\x06\x06chorus" + _VERSE_NOTE),
     "section marker at tick 0 opens an empty section"),
    (_track(b"\x80\x80\x80\x80\x00" + _VERSE_NOTE),
     "variable-length quantity longer than 4 bytes"),
])
def test_smf_header_and_event_refusals(data, message):
    with pytest.raises(ScoreFormatError) as err:
        read_smf(data)
    assert message in str(err.value)


def test_the_later_of_two_tempo_events_at_one_tick_wins():
    events = b"\x00\xff\x51\x03\x07\xa1\x20" b"\x00\xff\x51\x03\x0f\x42\x40" + _VERSE_NOTE
    assert read_smf(_track(events)).tempo_map == ((0, 1000000),)


def test_empty_score_with_one_section_round_trips():
    score = VocalScore(sections=(Section("verse", 0, 1920),))
    assert read_smf(write_smf(score)) == score


def test_round_trip_preserves_syllables_and_prompts():
    score = VocalScore(
        notes=(Note(0, 480, 60, "hel"), Note(480, 480, 62, "lo"), Note(960, 240, 64)),
        tempo_map=((0, 500000), (960, 600000)),
        sections=(
            Section("verse", 0, 960, "warm and close"),
            Section("chorus", 960, 1920),
        ),
    )
    assert read_smf(write_smf(score)) == score


def test_a_score_at_the_midi_limits_writes_and_reads_back_equal():
    tpq = 0x7FFF
    score = VocalScore(
        notes=(Note(0, tpq, 60, "la"),),
        tempo_map=((0, 0xFFFFFF), (tpq, 1)),
        ticks_per_quarter=tpq,
        sections=(Section("verse", 0, 4 * tpq),),
    )
    assert read_smf(write_smf(score)) == score
    assert score_from_json(score_to_json(score)) == score


@pytest.mark.parametrize("edit, message", [
    ({"tempo_map": ((0, 0x1000000),)}, "tempo 16777216 above the MIDI limit"),
    ({"ticks_per_quarter": 0x8000}, "ticks_per_quarter must be <= 32767"),
])
def test_a_score_beyond_the_midi_limits_is_refused_by_the_writer_and_the_reader(edit, message):
    score = VocalScore(sections=(Section("verse", 0, 1920),), **edit)
    with pytest.raises(ValueError, match=message):
        write_smf(score)
    with pytest.raises(ScoreFormatError, match=message):
        score_from_json(score_to_json(score))


def test_write_rejects_invalid_scores():
    score = VocalScore(notes=(Note(0, 480, 60),))  # notes but no sections
    with pytest.raises(ValueError):
        write_smf(score)


def test_format_1_tracks_are_merged():
    meta = b"\x00\xff\x06\x05verse" + _vlq(1920) + b"\xff\x2f\x00"
    notes = b"\x00\x90\x3c\x40" + _vlq(480) + b"\x80\x3c\x40" + _vlq(1440) + b"\xff\x2f\x00"
    data = (
        struct.pack(">4sIHHH", b"MThd", 6, 1, 2, 480)
        + struct.pack(">4sI", b"MTrk", len(meta)) + meta
        + struct.pack(">4sI", b"MTrk", len(notes)) + notes
    )
    score = read_smf(data)
    assert score.notes == (Note(0, 480, 60),)
    assert score.sections == (Section("verse", 0, 1920),)


def test_random_scores_round_trip_through_smf():
    rng = random.Random(1234)
    for _ in range(100):
        score = random_score(rng, multi_tempo=rng.random() < 0.3)
        assert read_smf(write_smf(score)) == score


def test_random_scores_round_trip_through_json():
    rng = random.Random(99)
    for _ in range(50):
        score = random_score(rng)
        assert score_from_json(score_to_json(score)) == score


def test_a_json_score_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path):
    score = random_score(random.Random(7))
    path = tmp_path / "bom.score.json"
    path.write_bytes(b"\xef\xbb\xbf" + score_to_json(score).encode("utf-8"))
    assert score_io.load_score(path) == score


def test_json_round_trip_keeps_title_and_prompt():
    score = VocalScore(
        notes=(Note(0, 480, 60, "la"),),
        sections=(Section("verse", 0, 1920, "gentle piano"),),
        title="Test Song",
    )
    assert score_from_json(score_to_json(score)) == score


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[]",
        '{"format": "other", "version": 1}',
        '{"format": "score", "version": 99}',
        pytest.param(score_to_json(simple_score([60])).replace(
            '"ticks_per_quarter": 480', '"ticks_per_quarter": 1e400'),
            id="int-of-1e400"),  # json reads 1e400 as inf, which int() cannot take
    ],
)
def test_bad_json_documents_raise_typed_errors(text):
    with pytest.raises(ScoreFormatError):
        score_from_json(text)


def _negative_onset(notes):
    notes[0]["onset_tick"] = -5


def _swapped(notes):
    notes[0], notes[1] = notes[1], notes[0]


@pytest.mark.parametrize("edit, message", [
    (_negative_onset, "note 0 has negative onset -5"),
    (_swapped, "note 1 onset 0 before note 0"),
])
def test_json_scores_with_notes_out_of_place_are_refused(edit, message):
    doc = json.loads(score_to_json(simple_score([60, 62])))
    edit(doc["notes"])
    with pytest.raises(ScoreFormatError, match=message):
        score_from_json(json.dumps(doc))


def test_a_json_score_in_another_meter_is_refused_by_name():
    doc = json.loads(score_to_json(simple_score([60])))
    doc["time_signature"] = [3, 4]
    with pytest.raises(ScoreFormatError, match=r"malformed score document: "
                       r"time signature must be 4/4, got \[3, 4\]"):
        score_from_json(json.dumps(doc))


def test_smf_fuzz_random_bytes_never_crash():
    rng = random.Random(271828)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(2000):
        n = rng.randint(0, 200)
        data = bytes(rng.randrange(256) for _ in range(n))
        if rng.random() < 0.5:  # bias toward plausible headers
            data = b"MThd" + data
        try:
            read_smf(data)
            outcomes["ok"] += 1
        except ScoreFormatError:
            outcomes["rejected"] += 1
    assert outcomes["rejected"] > 0


def test_smf_fuzz_mutated_valid_files_never_crash():
    rng = random.Random(314159)
    base = write_smf(random_score(rng))
    for _ in range(2000):
        data = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            read_smf(bytes(data))
        except ScoreFormatError:
            pass


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64))
def test_smf_reader_total_on_arbitrary_bytes(data):
    try:
        read_smf(data)
    except ScoreFormatError:
        pass


def test_save_score_keeps_the_old_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "shifted.mid"
    save_score(simple_score([60, 62]), path)
    old = path.read_bytes()
    # A payload the binary file cannot take fails the write part-way.
    monkeypatch.setattr(score_io, "write_smf", lambda score: None)
    with pytest.raises(TypeError):
        save_score(simple_score([64, 65]), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["shifted.mid"]
