"""Frame-level conditioning features: rhythm, chroma, structure, snapping."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from songpipe.conditioning import (
    ChordSequence,
    ChordSpan,
    KeyLabel,
    beat_downbeat_events,
    build_condition_bundle,
    bundle_from_json,
    bundle_to_json,
    chord_chromagram,
    format_chords,
    parse_chords,
    parse_pitch_class,
    pitch_contour_from_score,
    rhythm_activation,
    snap_boundaries,
    structure_labels,
    triad_pitch_classes,
)
from songpipe.score import SECTION_LABELS, Note, Section, VocalScore

from helpers import bpm_to_us, random_score, simple_score


def test_parse_pitch_class_accepts_sharps_and_flats():
    assert parse_pitch_class("C") == 0
    assert parse_pitch_class("C#") == 1
    assert parse_pitch_class("Db") == 1
    assert parse_pitch_class("Bb") == 10
    with pytest.raises(ValueError):
        parse_pitch_class("H")


def test_key_label_round_trips_through_text():
    for tonic in range(12):
        for mode in ("major", "minor"):
            label = KeyLabel(tonic, mode)
            assert KeyLabel.parse(str(label)) == label


def test_triads_are_root_third_fifth():
    assert triad_pitch_classes(0, "maj") == (0, 4, 7)
    assert triad_pitch_classes(9, "min") == (9, 0, 4)


def test_beat_events_at_120_bpm():
    score = simple_score([60] * 8, bpm=120)  # two bars
    beats, downbeats = beat_downbeat_events(score)
    assert beats == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    assert downbeats == pytest.approx([0.0, 2.0])


def test_beat_events_follow_tempo_changes():
    score = VocalScore(
        notes=(Note(0, 1920, 60), Note(1920, 1920, 62)),
        tempo_map=((0, bpm_to_us(120)), (1920, bpm_to_us(60))),
        sections=(Section("verse", 0, 3840),),
    )
    beats, _ = beat_downbeat_events(score)
    # first bar at 0.5 s/beat, second at 1.0 s/beat
    assert beats == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])


def test_rhythm_activation_gaussian_closed_form():
    act = rhythm_activation([1.0], [], 2.0, frame_rate=50, sigma=0.05)
    assert act.shape == (100, 2)
    assert act[50, 0] == pytest.approx(1.0)  # frame 50 sits exactly on the event
    delta = 52 / 50 - 1.0
    assert act[52, 0] == pytest.approx(math.exp(-0.5 * (delta / 0.05) ** 2))
    assert np.all(act[:, 1] == 0.0)


def test_rhythm_activation_takes_max_of_overlapping_events():
    act = rhythm_activation([1.0, 1.02], [], 2.0, frame_rate=50, sigma=0.05)
    t = 51 / 50
    expected = max(
        math.exp(-0.5 * ((t - 1.0) / 0.05) ** 2),
        math.exp(-0.5 * ((t - 1.02) / 0.05) ** 2),
    )
    assert act[51, 0] == pytest.approx(expected)


def test_rhythm_activation_rejects_out_of_range_events():
    with pytest.raises(ValueError):
        rhythm_activation([2.5], [], 2.0)


def _rhythm_activation_loop_oracle(beats, downbeats, duration_sec, frame_rate, sigma):
    """Reference activation: one Gaussian bump per event, combined by max."""
    t = math.ceil(duration_sec * frame_rate)
    times = np.arange(t) / frame_rate
    out = np.zeros((t, 2))
    for column, events in enumerate((beats, downbeats)):
        for event in events:
            if not 0.0 <= event <= duration_sec:
                raise ValueError(
                    f"event at {event} s lies outside [0, {duration_sec}] s"
                )
            bump = np.exp(-((times - event) ** 2) / (2.0 * sigma * sigma))
            np.maximum(out[:, column], bump, out=out[:, column])
    return np.clip(out, 0.0, 1.0)


@st.composite
def _activation_cases(draw):
    frame_rate = draw(st.one_of(
        st.sampled_from((37.5, 43.0, 50.0, 86.1328125, 100.0)),
        st.floats(37.5, 100.0),
    ))
    duration = draw(st.floats(0.01, 30.0))
    sigma = draw(st.floats(0.001, 1.0))
    last = math.ceil(duration * frame_rate) - 1

    def events():
        on_frame = st.integers(0, last).map(lambda f: f / frame_rate)
        midpoint = st.integers(0, last).map(lambda f: (f + 0.5) / frame_rate)
        anywhere = st.floats(0.0, duration)
        times = draw(st.lists(
            st.one_of(on_frame, midpoint, anywhere).map(lambda x: min(x, duration)),
            max_size=40,
        ))
        times += draw(st.lists(st.sampled_from(times), max_size=5)) if times else []
        return draw(st.permutations(times))

    beats, downbeats = events(), events()
    if draw(st.booleans()):
        beats = np.array(beats)
    return beats, downbeats, duration, frame_rate, sigma


@settings(max_examples=300, deadline=None)
@given(_activation_cases())
def test_rhythm_activation_equals_the_loop_oracle(case):
    fast = rhythm_activation(*case)
    slow = _rhythm_activation_loop_oracle(*case)
    assert fast.shape == slow.shape
    assert np.array_equal(
        np.frombuffer(fast.tobytes(), dtype=np.uint8),
        np.frombuffer(slow.tobytes(), dtype=np.uint8),
    )


@pytest.mark.parametrize("beats, downbeats", [
    ([1.0, 2.5, -1.0], [3.0]),
    ([1.0], [0.5, -0.25, 9.0]),
    (np.array([0.5, float("nan")]), [1.0]),
    ([3, 1], [2]),
])
def test_rhythm_activation_names_the_first_out_of_range_event(beats, downbeats):
    with pytest.raises(ValueError) as expected:
        _rhythm_activation_loop_oracle(beats, downbeats, 2.0, 50.0, 0.05)
    with pytest.raises(ValueError) as got:
        rhythm_activation(beats, downbeats, 2.0)
    assert str(got.value) == str(expected.value)


def test_chromagram_marks_triad_tones():
    chords = ChordSequence(
        (ChordSpan(0.0, 1.0, 0, "maj"), ChordSpan(1.0, 2.0, 9, "min"))
    )
    chroma = chord_chromagram(chords, 2.0, 50)
    assert chroma.shape == (100, 12)
    assert set(np.flatnonzero(chroma[0])) == {0, 4, 7}
    assert set(np.flatnonzero(chroma[50])) == {0, 4, 9}
    # the frame just before the boundary still belongs to the earlier chord
    assert set(np.flatnonzero(chroma[49])) == {0, 4, 7}


def test_chromagram_rejects_sequence_longer_than_duration():
    chords = ChordSequence((ChordSpan(0.0, 3.0, 0, "maj"),))
    with pytest.raises(ValueError):
        chord_chromagram(chords, 2.0, 50)


def test_pitch_contour_uses_last_note_at_boundaries():
    score = simple_score([60, 64], bpm=120, note_ticks=480)
    contour = pitch_contour_from_score(score, frame_rate=50)
    assert contour[0] == 60
    assert contour[25] == 64  # 0.5 s: second note wins the shared boundary


def test_pitch_contour_zero_during_rests():
    score = VocalScore(
        notes=(Note(0, 480, 60), Note(1440, 480, 62)),
        tempo_map=((0, bpm_to_us(120)),),
        sections=(Section("verse", 0, 1920),),
    )
    contour = pitch_contour_from_score(score, frame_rate=50)
    assert contour[30] == 0  # 0.6 s falls in the rest
    assert contour[0] == 60
    assert contour[80] == 62


def test_structure_labels_use_global_label_ids():
    score = simple_score([60] * 8, bpm=120, labels=["verse", "chorus"])
    labels = structure_labels(score, frame_rate=50)
    assert labels.shape == (200,)
    verse_id = SECTION_LABELS.index("verse")
    chorus_id = SECTION_LABELS.index("chorus")
    assert labels[0] == verse_id and labels[99] == verse_id
    assert labels[100] == chorus_id and labels[-1] == chorus_id


def test_snap_boundaries_prefers_earlier_on_ties():
    assert snap_boundaries([1.0], [0.5, 1.5], []) == [0.5]
    assert snap_boundaries([1.4], [0.5, 1.5], []) == [1.5]


def test_snap_boundaries_merges_duplicates():
    assert snap_boundaries([0.9, 1.1], [1.0], [4.0]) == [1.0]


def test_snap_boundaries_requires_targets():
    with pytest.raises(ValueError):
        snap_boundaries([0.3], [], [])


def test_chord_text_round_trip():
    chords = ChordSequence(
        (ChordSpan(0.0, 2.0, 0, "maj"), ChordSpan(2.0, 4.0, 7, "maj"))
    )
    text = format_chords(chords)
    assert parse_chords(text) == chords
    assert parse_chords("# comment\n" + text) == chords


def test_parse_chords_rejects_overlap():
    with pytest.raises(ValueError):
        parse_chords("0.0 2.0 C:maj\n1.0 3.0 G:maj\n")


def test_bundle_shapes_are_coherent():
    score = simple_score([60, 62, 64, 65, 67, 69, 71, 72], bpm=120)
    chords = ChordSequence((ChordSpan(0.0, 4.0, 0, "maj"),))
    keys = [(0, KeyLabel(0, "major"))]
    bundle = build_condition_bundle(score, chords, keys)
    T = bundle.rhythm.shape[0]
    assert T == math.ceil(score.duration_seconds() * bundle.frame_rate)
    assert bundle.rhythm.shape == (T, 2)
    assert bundle.chroma.shape == (T, 12)
    assert bundle.structure.shape == (T,)
    assert bundle.pitch_contour.shape == (T,)
    # downbeat channel only fires near downbeats
    assert bundle.rhythm[0, 1] == pytest.approx(1.0)
    assert bundle.rhythm[25, 1] < 0.2


def test_bundle_snaps_chords_to_downbeats():
    score = simple_score([60] * 16, bpm=120)  # four bars, downbeats 0/2/4/6
    chords = ChordSequence(
        (ChordSpan(0.0, 2.1, 0, "maj"), ChordSpan(2.1, 8.0, 7, "maj"))
    )
    keys = [(0, KeyLabel(0, "major"))]
    bundle = build_condition_bundle(score, chords, keys)
    # boundary 2.1 snaps back to the downbeat at 2.0
    frame = int(2.0 * bundle.frame_rate)
    assert set(np.flatnonzero(bundle.chroma[frame])) == {7, 11, 2}
    assert set(np.flatnonzero(bundle.chroma[frame - 1])) == {0, 4, 7}


def test_bundle_requires_keys_for_all_sections():
    score = simple_score([60] * 8, bpm=120, labels=["verse", "chorus"])
    chords = ChordSequence((ChordSpan(0.0, 4.0, 0, "maj"),))
    with pytest.raises(ValueError):
        build_condition_bundle(score, chords, [(0, KeyLabel(0, "major"))])


def test_bundle_json_round_trip():
    rng = random.Random(7)
    score = random_score(rng)
    chords = ChordSequence(
        (ChordSpan(0.0, score.duration_seconds(), 0, "maj"),)
    )
    keys = [(i, KeyLabel(0, "major")) for i in range(len(score.sections))]
    bundle = build_condition_bundle(score, chords, keys)
    restored = bundle_from_json(bundle_to_json(bundle))
    assert restored.frame_rate == bundle.frame_rate
    np.testing.assert_allclose(restored.rhythm, bundle.rhythm, atol=1e-9)
    np.testing.assert_allclose(restored.chroma, bundle.chroma)
    np.testing.assert_array_equal(restored.structure, bundle.structure)
    np.testing.assert_allclose(restored.pitch_contour, bundle.pitch_contour)
    assert restored.keys == bundle.keys
