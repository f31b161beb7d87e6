"""Window planning: ordering, references, splitting, training slices."""
from __future__ import annotations

import pytest

from songpipe.planner import (
    MAX_WINDOW_SEC,
    REFERENCE_BACKWARD,
    REFERENCE_NONE,
    REFERENCE_PREVIOUS,
    GenerationWindow,
    WindowReference,
    format_plan_table,
    plan_from_json,
    plan_inference,
    plan_to_json,
    plan_training_slices,
)

from helpers import simple_score


def test_first_verse_is_generated_first_without_reference():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    windows = plan_inference(score)
    assert [w.order for w in windows] == [0, 1, 2, 3]
    first = windows[0]
    assert first.anchor_section == 1  # the verse
    assert first.reference.kind == REFERENCE_NONE


def test_pre_verse_sections_reference_the_verse_backward():
    score = simple_score([60] * 16, labels=["intro", "inst", "verse", "chorus"])
    windows = plan_inference(score)
    by_section = {w.anchor_section: w for w in windows}
    assert by_section[2].order == 0
    assert by_section[0].reference == WindowReference(REFERENCE_BACKWARD, 2)
    assert by_section[1].reference == WindowReference(REFERENCE_BACKWARD, 2)
    assert by_section[0].order < by_section[1].order  # pre-verse kept in song order
    assert by_section[3].reference.kind == REFERENCE_PREVIOUS


def test_windows_tile_the_song_exactly():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    windows = sorted(plan_inference(score), key=lambda w: w.start_sec)
    assert windows[0].start_sec == 0.0
    assert windows[-1].end_sec == pytest.approx(score.duration_seconds())
    for a, b in zip(windows, windows[1:]):
        assert a.end_sec == pytest.approx(b.start_sec)


def test_every_reference_points_at_an_earlier_window():
    score = simple_score(
        [60] * 32, labels=["intro", "verse", "chorus", "verse", "bridge", "chorus",
                           "solo", "outro"]
    )
    windows = plan_inference(score)
    emitted_sections: list[int] = []
    by_order = sorted(windows, key=lambda w: w.order)
    for w in by_order:
        if w.reference.kind == REFERENCE_BACKWARD:
            assert w.reference.section in emitted_sections
        emitted_sections.append(w.anchor_section)


def test_long_section_splits_at_latest_feasible_downbeat():
    score = simple_score([60] * 120)  # 30 bars, 60 s at 120 BPM
    windows = plan_inference(score)
    assert len(windows) == 2
    assert (windows[0].start_sec, windows[0].end_sec) == (0.0, 46.0)
    assert (windows[1].start_sec, windows[1].end_sec) == (46.0, 60.0)
    assert windows[0].reference.kind == REFERENCE_NONE
    assert windows[1].reference.kind == REFERENCE_PREVIOUS
    assert all(w.duration_sec <= MAX_WINDOW_SEC + 1e-9 for w in windows)


def test_custom_window_limit_produces_regular_tiling():
    score = simple_score([60] * 48)  # 12 bars, 24 s
    windows = plan_inference(score, max_window_sec=8.0)
    spans = [(w.start_sec, w.end_sec) for w in sorted(windows, key=lambda w: w.start_sec)]
    assert spans == [(0.0, 8.0), (8.0, 16.0), (16.0, 24.0)]


def test_plan_requires_a_verse():
    score = simple_score([60] * 8, labels=["intro", "chorus"])
    with pytest.raises(ValueError):
        plan_inference(score)


def test_unsplittable_section_is_an_error():
    score = simple_score([60] * 16)  # downbeats every 2 s
    with pytest.raises(ValueError):
        plan_inference(score, max_window_sec=1.5)


def test_window_longer_than_global_limit_is_rejected():
    with pytest.raises(ValueError):
        GenerationWindow(0.0, MAX_WINDOW_SEC + 1.0, 0, 0, WindowReference(REFERENCE_NONE))


def test_backward_reference_requires_section_and_vice_versa():
    with pytest.raises(ValueError):
        WindowReference(REFERENCE_BACKWARD)
    with pytest.raises(ValueError):
        WindowReference(REFERENCE_PREVIOUS, section=1)
    with pytest.raises(ValueError):
        WindowReference("sideways")


def test_training_slices_follow_sections_and_cap_length():
    score = simple_score([60] * 120, labels=["verse", "chorus"])  # 30 s each
    slices = plan_training_slices(score, max_window_sec=20.0)
    assert len(slices) == 2
    first, second = slices
    assert (first.window.start_sec, first.window.end_sec) == (0.0, 20.0)
    assert (second.window.start_sec, second.window.end_sec) == (30.0, 50.0)
    assert first.window.reference.kind == REFERENCE_NONE
    assert second.window.reference.kind == REFERENCE_PREVIOUS


def test_training_swap_only_touches_intro_slices():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    for seed in range(20):
        slices = plan_training_slices(score, seed=seed)
        for s in slices:
            if score.sections[s.window.anchor_section].label != "intro":
                assert not s.reference_swapped


def test_training_slices_are_seed_deterministic():
    score = simple_score([60] * 16, labels=["intro", "verse", "intro", "outro"])
    a = plan_training_slices(score, seed=7)
    b = plan_training_slices(score, seed=7)
    assert a == b
    flags = {
        seed: tuple(s.reference_swapped for s in plan_training_slices(score, seed=seed))
        for seed in range(50)
    }
    assert len(set(flags.values())) > 1  # different seeds do differ


def test_training_swap_probability_extremes():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    always = plan_training_slices(score, p_backward=1.0, seed=3)
    never = plan_training_slices(score, p_backward=0.0, seed=3)
    assert always[0].reference_swapped is True
    assert never[0].reference_swapped is False
    with pytest.raises(ValueError):
        plan_training_slices(score, p_backward=1.5)


def test_plan_json_round_trip():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    windows = plan_inference(score)
    assert plan_from_json(plan_to_json(windows)) == windows
    # A whole-number float version reads, as a whole-number float integer field does.
    text = plan_to_json(windows).replace('"version": 1', '"version": 1.0')
    assert '"version": 1.0' in text and plan_from_json(text) == windows


def test_plan_json_rejects_bad_orders():
    score = simple_score([60] * 8, labels=["verse", "chorus"])
    text = plan_to_json(plan_inference(score)).replace('"order": 1', '"order": 5')
    with pytest.raises(ValueError):
        plan_from_json(text)


def test_plan_table_mentions_references():
    score = simple_score([60] * 16, labels=["intro", "verse", "chorus", "outro"])
    table = format_plan_table(plan_inference(score))
    assert "backward(section 1)" in table
    assert "previous_window" in table
    assert table.splitlines()[1].lstrip().startswith("0")
