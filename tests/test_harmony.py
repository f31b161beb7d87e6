"""Bar-level harmonizer: emissions, transitions, DP vs exhaustive search."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from songpipe.conditioning import (
    ChordSequence,
    ChordSpan,
    beat_downbeat_events,
    format_chords,
    triad_pitch_classes,
)
from songpipe.harmony import (
    CHORDS,
    HarmonizerWeights,
    bar_pitch_class_weights,
    emission_matrix,
    harmonize,
    harmonize_song,
    path_score,
    transition_matrix,
    viterbi_path,
)
from songpipe.score import Note, Section, VocalScore, tick_to_seconds

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
    assert CHORDS.index((0, "maj")) == 0
    assert CHORDS.index((0, "min")) == 1
    assert CHORDS.index((7, "maj")) == 14
    assert CHORDS.index((11, "min")) == 23
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
    assert emis[0, CHORDS.index((0, "maj"))] == pytest.approx(0.75)
    assert emis[0, CHORDS.index((2, "min"))] == pytest.approx(0.25)  # only the D
    assert emis[0, CHORDS.index((9, "min"))] == pytest.approx(0.5)  # A:min = {9,0,4}


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
        CHORDS.index((0, "maj")),
        CHORDS.index((7, "maj")),
        CHORDS.index((9, "min")),
        CHORDS.index((6, "min")),
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


def _prepend_intro_chords_oracle(
    chords: ChordSequence, bar_duration_sec: float, bars: int
) -> ChordSequence:
    """The earlier intro rule, kept as an oracle: the chords of the first
    ``bars`` bars (of ``bar_duration_sec`` each), clipped, then every chord
    shifted later by the intro's length."""
    intro_len = bars * bar_duration_sec
    if chords.end_sec + 1e-9 < intro_len:
        raise ValueError("progression is shorter than the intro")
    intro = []
    for c in chords:
        if c.start_sec >= intro_len - 1e-9:
            break
        intro.append(ChordSpan(c.start_sec, min(c.end_sec, intro_len), c.root, c.quality))
    shifted = tuple(ChordSpan(c.start_sec + intro_len, c.end_sec + intro_len, c.root, c.quality)
                    for c in chords)
    return ChordSequence(tuple(intro) + shifted)


def test_intro_chords_equal_the_earlier_rule_at_one_tempo():
    rng = random.Random(18)
    for _ in range(200):
        score = random_score(rng, max_bars=12, with_intro=False)
        bars = rng.randint(1, 5)
        if bars > score.num_bars:
            continue
        song, chords = harmonize_song(score, bars)
        assert song.num_bars == score.num_bars + bars
        bar_duration = tick_to_seconds(score, score.ticks_per_bar)
        oracle = _prepend_intro_chords_oracle(harmonize(score), bar_duration, bars)
        assert format_chords(chords) == format_chords(oracle)


def test_song_chords_sit_on_the_song_bars_and_copy_the_score_bars():
    rng = random.Random(1818)
    for case in range(300):
        score = random_score(rng, max_bars=14, multi_tempo=case % 2 == 1)
        bars = rng.randint(1, 5)
        song, chords = harmonize_song(score, bars)
        k = 0 if song is score else bars
        _, downbeats = beat_downbeat_events(song)
        assert len(chords) == song.num_bars
        for b, chord in enumerate(chords):
            assert chord.start_sec == downbeats[b]  # bit for bit
            ends = downbeats[b + 1] if b + 1 < len(downbeats) else song.duration_seconds()
            assert chord.end_sec == ends
        by_bar = [(c.root, c.quality) for c in harmonize(score)]
        assert [(c.root, c.quality) for c in chords] == \
            by_bar[:k] + by_bar  # song bar b has score bar b, then b - k


def test_a_tempo_change_in_the_first_bars_keeps_the_chords_to_the_song_end():
    # At seed 29 the tempo rises inside bar 0, so the song's intro bars are
    # slower than the score's first bars; the chords must still fill the song.
    score = random_score(random.Random(29), min_bars=24, max_bars=40, multi_tempo=True)
    assert 0 < score.tempo_map[1][0] < score.ticks_per_bar
    song, chords = harmonize_song(score, 4)
    assert song is not score
    assert chords.end_sec == song.duration_seconds()


def test_no_intro_leaves_the_score_and_its_chords():
    score = random_score(random.Random(4), min_bars=6, max_bars=6, with_intro=False)
    with_intro = random_score(random.Random(4), min_bars=6, max_bars=6, with_intro=True)
    for source, bars in ((score, 0), (score, 7), (with_intro, 4)):
        song, chords = harmonize_song(source, bars)
        assert song is source
        assert chords == harmonize(source)


def test_a_collapsed_final_bar_shifts_no_intro_chord():
    # Bar 1 is one tick at 1 us per quarter, 40e6 s into the score: it adds
    # less than half an ulp, so harmonize gives bar 1 no chord.
    score = VocalScore(notes=(Note(0, 1921, 60),), tempo_map=((0, 10**13), (1920, 1)),
                       sections=(Section("verse", 0, 1921),))
    assert score.num_bars == 2 and len(harmonize(score)) == 1
    song, chords = harmonize_song(score, 1)
    assert [(c.start_sec, c.end_sec, c.root, c.quality) for c in chords] == \
        [(0.0, 4e7, 0, "maj"), (4e7, 8e7, 0, "maj")]
    # Two intro bars would copy bar 1, which has no chord: no intro.
    assert harmonize_song(score, 2) == (score, harmonize(score))
