"""Score-model invariants and tempo-map arithmetic."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from songpipe.score import (
    Note,
    Section,
    VocalScore,
    prepend_instrumental,
    tick_to_seconds,
    validate_score,
)

from helpers import simple_score


def test_well_formed_score_has_no_violations():
    score = VocalScore(
        notes=(Note(0, 480, 60, "la"), Note(480, 480, 62)),
        tempo_map=((0, 500000),),
        sections=(Section("verse", 0, 1920),),
    )
    assert validate_score(score) == []


def test_overlapping_notes_are_reported_with_indices():
    score = VocalScore(
        notes=(Note(0, 960, 60), Note(480, 480, 62)),
        sections=(Section("verse", 0, 1920),),
    )
    problems = validate_score(score)
    assert len(problems) == 1
    assert "0 and 1" in problems[0] and "monophonic" in problems[0]


def test_section_gap_is_reported():
    score = VocalScore(
        sections=(Section("verse", 0, 480), Section("chorus", 960, 1920)),
    )
    problems = validate_score(score)
    assert any("not contiguous" in p for p in problems)


def test_tempo_map_must_start_at_zero():
    score = VocalScore(tempo_map=((10, 500000),))
    assert any("tick 0" in p for p in validate_score(score))


def test_notes_without_sections_are_flagged():
    score = VocalScore(notes=(Note(0, 480, 60),))
    assert any("no sections" in p for p in validate_score(score))


def test_pitch_and_duration_bounds():
    score = VocalScore(
        notes=(Note(0, 0, 200),),
        sections=(Section("verse", 0, 1920),),
    )
    problems = validate_score(score)
    assert any("pitch" in p for p in problems)
    assert any("duration" in p for p in problems)


def test_unknown_section_label_rejected():
    score = VocalScore(sections=(Section("drop", 0, 1920),))
    assert any("unknown label" in p for p in validate_score(score))


def test_every_violation_is_collected_not_just_first():
    score = VocalScore(
        notes=(Note(0, 0, 200), Note(0, 480, 300)),
        tempo_map=((5, 500000),),
    )
    problems = validate_score(score)
    assert len(problems) >= 5


# ---------------------------------------------------------------------------
# tick_to_seconds


def test_tick_to_seconds_constant_tempo():
    score = simple_score([60], bpm=120)
    # 120 BPM, 480 tpq: one quarter = 0.5 s
    assert tick_to_seconds(score, 0) == 0.0
    assert tick_to_seconds(score, 480) == pytest.approx(0.5)
    assert tick_to_seconds(score, 960) == pytest.approx(1.0)
    assert tick_to_seconds(score, 240) == pytest.approx(0.25)


def test_tick_to_seconds_with_tempo_change():
    # 120 BPM for 2 quarters, then 60 BPM
    score = VocalScore(tempo_map=((0, 500000), (960, 1000000)), ticks_per_quarter=480)
    assert tick_to_seconds(score, 960) == pytest.approx(1.0)
    assert tick_to_seconds(score, 1440) == pytest.approx(2.0)
    assert tick_to_seconds(score, 1200) == pytest.approx(1.5)


def test_tick_to_seconds_rejects_negative():
    score = simple_score([60])
    with pytest.raises(ValueError):
        tick_to_seconds(score, -1)


@given(
    tempos=st.lists(st.integers(min_value=100000, max_value=2000000), min_size=1, max_size=4),
    ticks=st.lists(st.integers(min_value=0, max_value=20000), min_size=2, max_size=6),
)
def test_tick_to_seconds_is_monotone(tempos, ticks):
    changes = [(0, tempos[0])]
    for i, t in enumerate(tempos[1:], start=1):
        changes.append((changes[-1][0] + 960 * i, t))
    score = VocalScore(tempo_map=tuple(changes))
    ordered = sorted(ticks)
    seconds = [tick_to_seconds(score, t) for t in ordered]
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))
    # strictly increasing when ticks differ
    for (t1, s1), (t2, s2) in zip(zip(ordered, seconds), zip(ordered[1:], seconds[1:])):
        if t2 > t1:
            assert s2 > s1


def test_prepend_instrumental_shifts_everything():
    score = simple_score([60, 62, 64, 65], bpm=120)
    extended = prepend_instrumental(score, 4)
    assert extended.sections[0].label == "intro"
    assert extended.sections[0].end_tick == 4 * 4 * 480
    assert extended.notes[0].onset_tick == score.notes[0].onset_tick + 4 * 4 * 480
    assert validate_score(extended) == []
    assert extended.duration_seconds() == pytest.approx(score.duration_seconds() + 8.0)
