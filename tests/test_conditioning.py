"""Frame-level conditioning features: rhythm, chroma, structure, snapping."""
from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from songpipe.conditioning import (
    ChordSequence,
    ChordSpan,
    ConditionBundle,
    KeyLabel,
    beat_downbeat_events,
    build_condition_bundle,
    bundle_from_json,
    bundle_to_json,
    chord_chromagram,
    format_chords,
    nearest_targets,
    parse_chords,
    parse_pitch_class,
    pitch_contour_from_score,
    rhythm_activation,
    structure_labels,
    triad_pitch_classes,
)
from songpipe.score import SECTION_LABELS, Note, Section, VocalScore, tick_to_seconds

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


def test_a_tiny_sigma_gives_exact_spikes_without_a_warning():
    # The quotient overflows to inf, so exp(-inf) is 0 off the events; numpy
    # used to warn of the overflow.
    act = rhythm_activation([0.5], [1.0], 2.0, frame_rate=50, sigma=1e-155)
    expected = np.zeros((100, 2))
    expected[25, 0] = expected[50, 1] = 1.0
    assert np.array_equal(act, expected)


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


def _chord_chromagram_mask_oracle(chords, duration_sec, frame_rate):
    """Reference chromagram: one full-length boolean mask per chord."""
    if duration_sec < chords.end_sec - 1e-9:
        raise ValueError("duration is shorter than the chord sequence")
    t = math.ceil(duration_sec * frame_rate)
    times = np.arange(t) / frame_rate
    out = np.zeros((t, 12))
    for chord in chords:
        mask = (times >= chord.start_sec) & (times < chord.end_sec)
        for pc in chord.pitch_classes():
            out[mask, pc] = 1.0
    return out


def _pitch_contour_mask_oracle(score, duration_sec, frame_rate):
    """Reference contour: one full-length boolean mask per note, in note order."""
    t = math.ceil(duration_sec * frame_rate)
    out = np.zeros(t)
    times = np.arange(t) / frame_rate
    for note in score.notes:
        start = tick_to_seconds(score, note.onset_tick)
        end = tick_to_seconds(score, note.end_tick)
        out[(times >= start) & (times < end)] = float(note.pitch)
    return out


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_FRAME_RATES = st.one_of(
    st.sampled_from((37.5, 43.0, 50.0, 86.1328125, 100.0)), st.floats(37.5, 100.0)
)


@st.composite
def _chromagram_cases(draw):
    frame_rate = draw(_FRAME_RATES)
    duration = draw(st.floats(0.01, 20.0))
    last = math.ceil(duration * frame_rate) - 1
    on_frame = st.integers(0, last).map(lambda f: f / frame_rate)
    between = st.tuples(st.integers(0, last), st.floats(0.01, 0.99)).map(
        lambda fx: (fx[0] + fx[1]) / frame_rate
    )
    past_last = st.floats(last / frame_rate, duration)
    before_zero = st.floats(-5.0, 0.0)
    edges = draw(st.lists(
        st.one_of(on_frame, between, past_last, before_zero, st.floats(0.0, duration)),
        min_size=2, max_size=30,
    ))
    edges = sorted({min(e, duration) for e in edges})
    chords = []
    for start, end in zip(edges, edges[1:]):
        if draw(st.integers(0, 4)):  # mostly touching, sometimes a gap
            chords.append(ChordSpan(start, end, draw(st.integers(0, 11)),
                                    draw(st.sampled_from(("maj", "min")))))
    return ChordSequence(tuple(chords)), duration, frame_rate


@settings(max_examples=300, deadline=None)
@given(_chromagram_cases())
def test_chord_chromagram_equals_the_mask_oracle(case):
    assert _same_bytes(chord_chromagram(*case), _chord_chromagram_mask_oracle(*case))


@st.composite
def _contour_cases(draw):
    frame_rate = draw(_FRAME_RATES)
    tpq = draw(st.sampled_from((96, 480, 960)))
    tempo_map = [(0, draw(st.integers(250_000, 1_500_000)))]
    for tick in sorted(set(draw(st.lists(st.integers(1, 40 * tpq), max_size=3)))):
        tempo_map.append((tick, draw(st.integers(250_000, 1_500_000))))
    notes, tick = [], 0
    for _ in range(draw(st.integers(0, 40))):
        # Mostly touching notes (a shared boundary frame), some rests, some
        # overlaps where the later note must win.
        tick = max(0, tick + draw(st.sampled_from((0, 0, 0, 1, tpq // 4, -tpq // 4))))
        length = draw(st.integers(0, 2 * tpq))
        notes.append(Note(tick, length, draw(st.integers(30, 90))))
        tick += length
    score = VocalScore(notes=tuple(notes), tempo_map=tuple(tempo_map),
                       ticks_per_quarter=tpq, sections=(Section("verse", 0, max(tick, 1)),))
    # A duration past the score or one that ends inside it.
    duration = score.duration_seconds() * draw(st.sampled_from((1.0, 1.0, 0.5, 1.3)))
    return score, max(duration, 0.01), frame_rate


@settings(max_examples=300, deadline=None)
@given(_contour_cases())
def test_pitch_contour_equals_the_mask_oracle(case):
    assert _same_bytes(pitch_contour_from_score(*case), _pitch_contour_mask_oracle(*case))


def test_pitch_contour_boundaries_exactly_on_frames():
    # 120 BPM at 480 tpq: 24 ticks are 0.025 s, one frame at 40 fps.
    notes = tuple(Note(24 * k, 24 * (k % 3), 60 + k) for k in range(20))
    score = VocalScore(notes=notes, tempo_map=((0, 500_000),),
                       sections=(Section("verse", 0, 480),))
    for frame_rate in (40.0, 80.0, 37.5, 100.0):
        fast = pitch_contour_from_score(score, 0.6, frame_rate)
        assert _same_bytes(fast, _pitch_contour_mask_oracle(score, 0.6, frame_rate))


def test_chromagram_rejects_sequence_longer_than_duration():
    chords = ChordSequence((ChordSpan(0.0, 3.0, 0, "maj"),))
    with pytest.raises(ValueError):
        chord_chromagram(chords, 2.0, 50)


def test_pitch_contour_uses_last_note_at_boundaries():
    score = simple_score([60, 64], bpm=120, note_ticks=480)
    contour = pitch_contour_from_score(score, score.duration_seconds(), frame_rate=50)
    assert contour[0] == 60
    assert contour[25] == 64  # 0.5 s: second note wins the shared boundary


def test_pitch_contour_zero_during_rests():
    score = VocalScore(
        notes=(Note(0, 480, 60), Note(1440, 480, 62)),
        tempo_map=((0, bpm_to_us(120)),),
        sections=(Section("verse", 0, 1920),),
    )
    contour = pitch_contour_from_score(score, score.duration_seconds(), frame_rate=50)
    assert contour[30] == 0  # 0.6 s falls in the rest
    assert contour[0] == 60
    assert contour[80] == 62


def test_structure_labels_use_global_label_ids():
    score = simple_score([60] * 8, bpm=120, labels=["verse", "chorus"])
    labels = structure_labels(score, score.duration_seconds(), frame_rate=50)
    assert labels.shape == (200,)
    verse_id = SECTION_LABELS.index("verse")
    chorus_id = SECTION_LABELS.index("chorus")
    assert labels[0] == verse_id and labels[99] == verse_id
    assert labels[100] == chorus_id and labels[-1] == chorus_id


def _old_structure_labels(score, duration_sec, frame_rate):
    """The earlier body of :func:`structure_labels`, kept as an oracle."""
    t = math.ceil(duration_sec * frame_rate)
    edges = [tick_to_seconds(score, s.start_tick) for s in score.sections]
    times = np.arange(t) / frame_rate
    idx = np.searchsorted(np.asarray(edges), times, side="right") - 1
    idx = np.clip(idx, 0, len(score.sections) - 1)
    labels = np.array([SECTION_LABELS.index(s.label) for s in score.sections])
    out = np.zeros(t, dtype=np.int64)
    out[:] = labels[idx]
    return out


def test_structure_labels_equal_the_searchsorted_version_on_random_scores():
    rng = random.Random(31)
    for _ in range(300):
        score = random_score(rng, max_bars=12, multi_tempo=rng.random() < 0.6)
        if len(score.sections) > 1 and rng.random() < 0.3:  # frames before the first section
            score = replace(score, sections=score.sections[1:])
        frame_rate = rng.choice((7.5, 43.0, 50.0, 100.0))
        duration = score.duration_seconds() * rng.choice((0.5, 1.0, 1.0, 1.7))
        got = structure_labels(score, duration, frame_rate)
        want = _old_structure_labels(score, duration, frame_rate)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _nearest_min_oracle(values, grid):
    """Reference snap: scan the whole grid for every value."""
    return [min(grid, key=lambda t: (abs(t - x), t)) for x in values]


@st.composite
def _snap_cases(draw):
    finite = st.floats(-1e3, 1e3)
    grid = sorted(set(draw(st.lists(
        st.one_of(finite, st.integers(-50, 50).map(float), st.floats(-1e20, 1e20)),
        min_size=1, max_size=40,
    ))))
    exact_midpoint = st.tuples(st.sampled_from(grid), st.sampled_from(grid)).map(
        lambda ab: (ab[0] + ab[1]) / 2
    )
    far_away = st.floats(1e15, 1e300).flatmap(lambda m: st.sampled_from((m, -m)))
    values = draw(st.lists(
        st.one_of(finite, st.sampled_from(grid), exact_midpoint, far_away,
                  st.sampled_from((math.inf, -math.inf, math.nan, 0.0, -0.0))),
        max_size=40,
    ))
    values += draw(st.lists(st.sampled_from(values), max_size=5)) if values else []
    return draw(st.permutations(values)), grid


@settings(max_examples=500, deadline=None)
@given(_snap_cases())
def test_nearest_targets_equals_the_min_oracle(case):
    values, grid = case
    got = nearest_targets(values, grid)
    expected = _nearest_min_oracle(values, grid)
    assert [(v, math.copysign(1.0, v)) for v in got] == [
        (v, math.copysign(1.0, v)) for v in expected
    ]


@pytest.mark.parametrize("values, grid, expected", [
    ([1.0], [0.5, 1.5], [0.5]),                          # exact tie: the earlier
    ([1e17], [0.0, 1.0, 2.0], [0.0]),                    # 1e17 - t rounds alike
    ([1e17], [-1e3, 0.0, 1.0, 2.0], [0.0]),              # tie run stops at 0.0
    ([math.inf, -math.inf], [0.0, 1.0, 2.0], [0.0, 0.0]),
    ([math.nan], [3.0, 4.0], [3.0]),                     # min keeps the first
    ([-1e17], [0.0, 1.0], [0.0]),
])
def test_nearest_targets_rounding_ties(values, grid, expected):
    assert _nearest_min_oracle(values, grid) == expected
    assert nearest_targets(values, grid) == expected


def test_nearest_targets_holds_one_block_of_distances():
    # One float64 table of all 4,000 x 4,000 distances would take 128 MB.
    values = np.linspace(-1.0, 4001.0, 4000).tolist()
    grid = np.arange(4000.0).tolist()
    tracemalloc.start()
    try:
        snapped = nearest_targets(values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert snapped[::100] == _nearest_min_oracle(values[::100], grid)
    assert len(snapped) == 4000 and snapped[-1] == 3999.0


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
    # The right count, but section 0 twice: the bundle's key rule names the sections.
    with pytest.raises(ValueError, match=r"^keys must give one key per section from 0, "
                                         r"got sections \[0, 0\]$"):
        build_condition_bundle(score, chords,
                               [(0, KeyLabel(0, "major")), (0, KeyLabel(9, "minor"))])


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


def _bundle_to_json_loop_oracle(bundle):
    """Reference serializer: one Python conversion per element."""
    doc = {
        "format": "conditions",
        "version": 1,
        "frame_rate": bundle.frame_rate,
        "num_frames": bundle.num_frames,
        "rhythm": [[float(b), float(d)] for b, d in bundle.rhythm],
        "chroma": [[int(x) for x in row] for row in bundle.chroma],
        "structure": [int(x) for x in bundle.structure],
        "pitch_contour": [float(x) for x in bundle.pitch_contour],
        "keys": [
            {"section": i, "tonic": k.tonic, "mode": k.mode} for i, k in bundle.keys
        ],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _first_difference(got: str, expected: str):
    """None if equal, else where the strings part and the text around it.

    Asserting on this keeps pytest from diffing two long documents on every
    failing example that hypothesis tries while shrinking.
    """
    if got == expected:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    return i, got[max(i - 40, 0):i + 40], expected[max(i - 40, 0):i + 40]


_ODD_FLOATS = (-0.0, 5e-324, 2.2250738585072009e-308, 1e-310, -1e-320, 1e300, 0.1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.0005, 0.2), st.sampled_from((37.5, 50.0, 100.0)),
       st.booleans())
def test_bundle_to_json_equals_the_loop_oracle(seed, sigma, frame_rate, odd):
    rng = random.Random(seed)
    score = random_score(rng, max_bars=6, multi_tempo=rng.random() < 0.5)
    duration = score.duration_seconds()
    cut = rng.uniform(0.1, duration - 0.1)
    chords = ChordSequence((ChordSpan(0.0, cut, rng.randrange(12), "maj"),
                            ChordSpan(cut, duration, rng.randrange(12), "min")))
    keys = [(i, KeyLabel(rng.randrange(12), "minor")) for i in range(len(score.sections))]
    bundle = build_condition_bundle(score, chords, keys, frame_rate, sigma)
    if odd:
        contour = np.array([rng.choice(_ODD_FLOATS) for _ in bundle.pitch_contour], dtype=float)
        rhythm = bundle.rhythm.copy()
        rhythm[:: 7] = rng.choice(_ODD_FLOATS)
        bundle = replace(bundle, rhythm=rhythm, pitch_contour=contour)
    assert _first_difference(bundle_to_json(bundle), _bundle_to_json_loop_oracle(bundle)) is None


_CHROMA_VALUES = (0.0, 1.0, 2.0, -1.0, 1.9, -0.0)
_CONTOUR_VALUES = (0.0, -0.0, 60.0, 61.5, math.nan, math.inf, -math.inf, 5e-324)


@st.composite
def _bundles(draw):
    """Bundles whose rows are all repeated, all distinct by bytes, or drawn from a small pool."""
    t = draw(st.integers(0, 40))
    layout = draw(st.sampled_from(("pool", "repeated", "distinct")))
    values = lambda elements, size: draw(st.lists(elements, min_size=size, max_size=size))
    chroma = np.array(values(st.sampled_from(_CHROMA_VALUES), 12 * t)).reshape(t, 12)
    structure = np.array(values(st.integers(0, len(SECTION_LABELS) - 1), t), dtype=np.int64)
    contour = np.array(values(st.sampled_from(_CONTOUR_VALUES), t), dtype=float)
    if layout == "repeated":
        chroma[:], structure[:], contour[:] = chroma[:1], structure[:1], contour[:1]
    elif layout == "distinct":
        frames = np.arange(t)
        chroma = ((frames[:, None] >> np.arange(12)) & 1).astype(float)
        chroma[:, 11] = np.where(frames % 2, 2.0, -1.0)
        structure = frames.astype(np.int64)
        contour = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, *(60 + frames / 8)][:t])
    rhythm = np.array(values(st.floats(width=64), 2 * t), dtype=float).reshape(t, 2)
    keys = [(i, KeyLabel(draw(st.integers(0, 11)), draw(st.sampled_from(("major", "minor")))))
            for i in range(draw(st.integers(0, 3)))]
    frame_rate = draw(st.sampled_from((50.0, 37.5, 100.0, 1e-3)))
    return ConditionBundle(frame_rate, rhythm, chroma, structure, contour, keys)


@settings(max_examples=200, deadline=None)
@given(_bundles())
@example(ConditionBundle(50.0, np.zeros((0, 2)), np.zeros((0, 12)), np.zeros(0, np.int64),
                         np.zeros(0), ()))
@example(ConditionBundle(50.0, np.array([[-0.0, 1.0]]), np.array([[2.0, -1.0, 1.9] + [0.0] * 9]),
                         np.array([3]), np.array([math.nan]), ((0, KeyLabel(9, "minor")),)))
@example(ConditionBundle(50.0, np.zeros((4, 2)), np.ones((4, 12)), np.zeros(4, np.int64),
                         np.array([0.0, -0.0, -0.0, 0.0]), ()))
def test_bundle_to_json_equals_the_loop_oracle_on_drawn_bundles(bundle):
    # Rows are formatted once per distinct byte pattern: -0.0 and 0.0 in one
    # column, NaN and infinities, truncated non-binary chroma and T of 0 or 1
    # must all come out as one json.dumps of the whole document writes them.
    text = bundle_to_json(bundle)
    assert _first_difference(text, _bundle_to_json_loop_oracle(bundle)) is None


def test_bundle_to_json_writes_negative_zero_and_subnormals():
    score = simple_score([60] * 8, bpm=120)
    chords = ChordSequence((ChordSpan(0.0, 4.0, 0, "maj"),))
    bundle = build_condition_bundle(score, chords, [(0, KeyLabel(0, "major"))])
    rhythm = bundle.rhythm.copy()
    rhythm[1] = (-0.0, 5e-324)
    bundle = replace(bundle, rhythm=rhythm)
    text = bundle_to_json(bundle)
    assert _first_difference(text, _bundle_to_json_loop_oracle(bundle)) is None
    assert json.loads(text)["rhythm"][1] == [-0.0, 5e-324]
    assert "[-0.0, 5e-324]" in text
