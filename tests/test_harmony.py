"""Bar-level harmonizer: emissions, transitions, DP vs exhaustive search."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from songpipe.conditioning import ChordSequence, ChordSpan, triad_pitch_classes
from songpipe.harmony import (
    CHORDS,
    HarmonizerWeights,
    bar_pitch_class_weights,
    chord_index,
    emission_matrix,
    harmonize,
    path_score,
    prepend_intro_chords,
    transition_matrix,
    viterbi_path,
)
from songpipe.score import Note, Section, VocalScore

from helpers import bpm_to_us, random_score, simple_score


def _bars_score(bar_pitches: list[list[int | None]], bpm: int = 120) -> VocalScore:
    """One quarter note per slot; ``None`` slots are rests."""
    notes = []
    for bar, slots in enumerate(bar_pitches):
        assert len(slots) == 4
        for i, pitch in enumerate(slots):
            if pitch is not None:
                notes.append(Note((bar * 4 + i) * 480, 480, pitch))
    end = len(bar_pitches) * 1920
    return VocalScore(
        notes=tuple(notes),
        tempo_map=((0, bpm_to_us(bpm)),),
        sections=(Section("verse", 0, end),),
    )


def _best_path_by_enumeration(emis: np.ndarray, trans: np.ndarray) -> tuple[float, list[int]]:
    """Exhaustive maximum with the reversed-tuple tie rule the DP documents."""
    best_score = -math.inf
    best_key = None
    best_path = None
    for path in itertools.product(range(emis.shape[1]), repeat=len(emis)):
        s = path_score(list(path), emis, trans)
        key = tuple(reversed(path))
        if s > best_score + 1e-9 or (s > best_score - 1e-9 and key < best_key):
            best_score, best_key, best_path = max(best_score, s), key, list(path)
    return best_score, best_path


def test_chord_index_ordering():
    assert chord_index(0, "maj") == 0
    assert chord_index(0, "min") == 1
    assert chord_index(7, "maj") == 14
    assert chord_index(11, "min") == 23
    assert CHORDS[4] == (2, "maj")


def test_bar_weights_split_straddling_notes():
    score = VocalScore(
        notes=(Note(1440, 960, 60),),  # covers last quarter of bar 0, first of bar 1
        tempo_map=((0, 500000),),
        sections=(Section("verse", 0, 3840),),
    )
    w = bar_pitch_class_weights(score)
    assert w.shape == (2, 12)
    assert w[0, 0] == 480 and w[1, 0] == 480


def test_emission_is_in_triad_fraction():
    score = _bars_score([[60, 64, 67, 62]])  # C E G D: 3 of 4 quarters in C:maj
    emis = emission_matrix(bar_pitch_class_weights(score))
    assert emis[0, chord_index(0, "maj")] == pytest.approx(0.75)
    assert emis[0, chord_index(2, "min")] == pytest.approx(0.25)  # only the D
    assert emis[0, chord_index(9, "min")] == pytest.approx(0.5)  # A:min = {9,0,4}


def test_emission_zero_for_rest_bar():
    score = _bars_score([[60, 60, 60, 60], [None, None, None, None]])
    emis = emission_matrix(bar_pitch_class_weights(score))
    assert np.all(emis[1] == 0.0)


def _old_emission_matrix(bar_weights):
    """The earlier per-chord loop of :func:`emission_matrix`, kept as an oracle."""
    out = np.zeros((len(bar_weights), len(CHORDS)))
    totals = bar_weights.sum(axis=1)
    for c, (root, quality) in enumerate(CHORDS):
        in_triad = bar_weights[:, list(triad_pitch_classes(root, quality))].sum(axis=1)
        nonzero = totals > 0
        out[nonzero, c] = in_triad[nonzero] / totals[nonzero]
    return out


def _old_transition_matrix(weights):
    """The earlier pairwise loop of :func:`transition_matrix`, kept as an oracle."""
    out = np.zeros((len(CHORDS), len(CHORDS)))
    tone_sets = [set(triad_pitch_classes(r, q)) for r, q in CHORDS]
    for a in range(len(CHORDS)):
        for b in range(len(CHORDS)):
            out[a, b] = weights.transition_weight * len(tone_sets[a] & tone_sets[b])
            if a != b:
                out[a, b] -= weights.chord_change_penalty
    return out


def test_matrices_equal_the_loops_bit_for_bit_on_random_input():
    rng = random.Random(37)
    for _ in range(200):
        score = random_score(rng, max_bars=16, multi_tempo=rng.random() < 0.5)
        for bar_weights in (
            bar_pitch_class_weights(score),
            # whole tick counts, with silent bars and bars up to 2**40 ticks
            np.array([[rng.choice((0, 0, rng.randint(1, 2**rng.randint(1, 40))))
                       for _ in range(12)] for _ in range(rng.randint(1, 6))], dtype=float),
        ):
            assert emission_matrix(bar_weights).tobytes() == \
                _old_emission_matrix(bar_weights).tobytes()
        weights = HarmonizerWeights(*(rng.choice((0.0, rng.uniform(0.0, 3.0))) for _ in range(3)))
        assert transition_matrix(weights).tobytes() == _old_transition_matrix(weights).tobytes()


def test_transition_matrix_values():
    trans = transition_matrix(HarmonizerWeights())
    c_maj, g_maj, a_min, fs_min = (
        chord_index(0, "maj"),
        chord_index(7, "maj"),
        chord_index(9, "min"),
        chord_index(6, "min"),
    )
    assert trans[c_maj, c_maj] == pytest.approx(0.3)  # stay: 3 common tones
    assert trans[c_maj, g_maj] == pytest.approx(0.1 * 1 - 0.05)
    assert trans[c_maj, a_min] == pytest.approx(0.1 * 2 - 0.05)
    assert trans[c_maj, fs_min] == pytest.approx(-0.05)  # disjoint triads


def test_pure_triad_bar_maps_to_its_chord():
    chords = harmonize(_bars_score([[60, 64, 67, 60]]))
    assert [(c.root, c.quality) for c in chords] == [(0, "maj")]


def test_repeated_single_pitch_takes_lowest_eligible_index():
    # A bar of only A3 ties every chord containing pitch class 9 at emission
    # 1.0; the lowest chord index among them is D:maj.
    chords = harmonize(_bars_score([[57, 57, 57, 57]]))
    assert [(c.root, c.quality) for c in chords] == [(2, "maj")]


def test_repeated_c_takes_c_major():
    chords = harmonize(_bars_score([[60, 60, 60, 60]]))
    assert [(c.root, c.quality) for c in chords] == [(0, "maj")]


def test_trailing_rest_bars_hold_the_last_chord():
    score = _bars_score(
        [[60, 64, 67, 60], [None] * 4, [None] * 4]
    )
    chords = harmonize(score)
    assert [(c.root, c.quality) for c in chords] == [(0, "maj")] * 3


def test_interior_rest_bar_between_identical_chords_holds():
    score = _bars_score([[60, 64, 67, 60], [None] * 4, [64, 60, 67, 64]])
    chords = harmonize(score)
    assert [(c.root, c.quality) for c in chords] == [(0, "maj")] * 3


def test_progression_follows_clear_triads():
    score = _bars_score(
        [
            [60, 64, 67, 60],  # C maj
            [65, 69, 72, 65],  # F maj
            [67, 71, 74, 67],  # G maj
            [60, 64, 67, 60],  # C maj
        ]
    )
    chords = harmonize(score)
    assert [(c.root, c.quality) for c in chords] == [
        (0, "maj"),
        (5, "maj"),
        (7, "maj"),
        (0, "maj"),
    ]


def test_transposed_melody_yields_transposed_chords():
    score = _bars_score(
        [
            [62, 66, 69, 62],  # the C-F-G-C melody up two semitones
            [67, 71, 74, 67],
            [69, 73, 76, 69],
            [62, 66, 69, 62],
        ]
    )
    chords = harmonize(score)
    assert [(c.root, c.quality) for c in chords] == [
        (2, "maj"),
        (7, "maj"),
        (9, "maj"),
        (2, "maj"),
    ]


def test_chord_spans_follow_the_tempo_map():
    score = _bars_score([[60, 64, 67, 60], [60, 64, 67, 60]], bpm=120)
    chords = harmonize(score)
    assert chords.entries[0].start_sec == pytest.approx(0.0)
    assert chords.entries[0].end_sec == pytest.approx(2.0)
    assert chords.entries[1].end_sec == pytest.approx(4.0)


def test_viterbi_matches_exhaustive_search_on_random_cases():
    rng = random.Random(2024)
    trans = transition_matrix(HarmonizerWeights())
    for _ in range(25):
        n_bars = rng.randint(1, 3)
        bars = []
        for _ in range(n_bars):
            bars.append(
                [rng.choice([None] + list(range(55, 79))) for _ in range(4)]
            )
        if all(p is None for bar in bars for p in bar):
            bars[0][0] = 60
        emis = emission_matrix(bar_pitch_class_weights(_bars_score(bars)))
        best_score, best_path = _best_path_by_enumeration(emis, trans)
        dp_path = viterbi_path(emis, trans)
        assert path_score(dp_path, emis, trans) == pytest.approx(best_score, abs=1e-9)
        assert dp_path == best_path


def test_viterbi_empty_input_gives_empty_path():
    trans = transition_matrix(HarmonizerWeights())
    assert viterbi_path(np.zeros((0, 24)), trans) == []


def test_weights_must_be_non_negative():
    with pytest.raises(ValueError):
        HarmonizerWeights(emission_weight=-1.0)
    with pytest.raises(ValueError):
        HarmonizerWeights(chord_change_penalty=-0.1)
    for value in (float("nan"), float("inf")):
        for name in ("emission_weight", "transition_weight", "chord_change_penalty"):
            with pytest.raises(ValueError, match=name):
                HarmonizerWeights(**{name: value})


def test_harmonize_rejects_empty_score():
    score = VocalScore(sections=())
    with pytest.raises(ValueError):
        harmonize(score)


def test_prepend_intro_duplicates_leading_bars():
    chords = ChordSequence(
        (
            ChordSpan(0.0, 2.0, 0, "maj"),
            ChordSpan(2.0, 4.0, 7, "maj"),
            ChordSpan(4.0, 8.0, 5, "maj"),
        )
    )
    out = prepend_intro_chords(chords, bar_duration_sec=1.0, bars=4)
    assert out.entries == (
        ChordSpan(0.0, 2.0, 0, "maj"),
        ChordSpan(2.0, 4.0, 7, "maj"),
        ChordSpan(4.0, 6.0, 0, "maj"),
        ChordSpan(6.0, 8.0, 7, "maj"),
        ChordSpan(8.0, 12.0, 5, "maj"),
    )


def test_prepend_intro_clips_straddling_chords():
    chords = ChordSequence(
        (ChordSpan(0.0, 3.0, 0, "maj"), ChordSpan(3.0, 6.0, 7, "maj"))
    )
    out = prepend_intro_chords(chords, bar_duration_sec=1.0, bars=2)
    assert out.entries == (
        ChordSpan(0.0, 2.0, 0, "maj"),
        ChordSpan(2.0, 5.0, 0, "maj"),
        ChordSpan(5.0, 8.0, 7, "maj"),
    )


def test_prepend_intro_zero_bars_is_identity():
    chords = ChordSequence((ChordSpan(0.0, 2.0, 0, "maj"),))
    assert prepend_intro_chords(chords, 1.0, bars=0) is chords


def test_prepend_intro_rejects_short_progressions():
    chords = ChordSequence((ChordSpan(0.0, 1.5, 0, "maj"),))
    with pytest.raises(ValueError):
        prepend_intro_chords(chords, bar_duration_sec=1.0, bars=2)
    with pytest.raises(ValueError):
        prepend_intro_chords(chords, bar_duration_sec=1.0, bars=-1)
