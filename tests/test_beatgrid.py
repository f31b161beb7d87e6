"""Voiced-segment detection and beat interpolation through silent gaps."""
from __future__ import annotations

import random
from statistics import median

import numpy as np
import pytest

from songpipe.beatgrid import (
    BeatGrid,
    VoicedSegment,
    detect_voiced_segments,
    format_beat_grid,
    grid_to_events,
    interpolate_beats,
    parse_beat_grid,
)


def _tone(sr: int, start: float, end: float, total: float, amp: float = 0.5):
    t = np.arange(int(total * sr)) / sr
    out = np.zeros_like(t)
    mask = (t >= start) & (t < end)
    out[mask] = amp * np.sin(2 * np.pi * 220 * t[mask])
    return out


def test_detect_voiced_segments_finds_tone_bursts():
    sr = 8000
    audio = _tone(sr, 0.5, 1.2, 3.0) + _tone(sr, 2.0, 2.6, 3.0)
    segments = detect_voiced_segments(audio, sr)
    assert len(segments) == 2
    assert segments[0].start_sec == pytest.approx(0.5, abs=0.06)
    assert segments[0].end_sec == pytest.approx(1.2, abs=0.06)
    assert segments[1].start_sec == pytest.approx(2.0, abs=0.06)
    assert segments[1].end_sec == pytest.approx(2.6, abs=0.06)


def test_detect_voiced_segments_merges_short_gaps():
    sr = 8000
    audio = _tone(sr, 0.5, 1.0, 2.0) + _tone(sr, 1.1, 1.5, 2.0)  # 0.1 s gap
    segments = detect_voiced_segments(audio, sr)
    assert len(segments) == 1
    assert segments[0].start_sec == pytest.approx(0.5, abs=0.06)
    assert segments[0].end_sec == pytest.approx(1.5, abs=0.06)


def test_detect_voiced_segments_silence_yields_nothing():
    assert detect_voiced_segments(np.zeros(8000), 8000) == []


def test_detect_voiced_segments_accepts_stereo():
    sr = 8000
    mono = _tone(sr, 0.2, 0.8, 1.0)
    stereo = np.stack([mono, mono])
    assert detect_voiced_segments(stereo, sr) == detect_voiced_segments(mono, sr)


def test_leading_gap_is_backfilled_to_zero():
    segments = [VoicedSegment(1.9, 3.2)]
    grid = interpolate_beats([[2.0, 2.5, 3.0]], segments, 3.0)
    assert grid.beats == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    assert grid.downbeats == pytest.approx((0.0, 2.0))


def test_interior_gap_filled_at_shared_tempo():
    segments = [VoicedSegment(0.0, 1.2), VoicedSegment(2.9, 4.1)]
    grid = interpolate_beats([[0.0, 0.5, 1.0], [3.0, 3.5, 4.0]], segments, 4.0)
    assert grid.beats == pytest.approx(
        (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    )


def test_interior_gap_uses_harmonic_mean_of_neighbour_tempi():
    segments = [VoicedSegment(0.0, 1.2), VoicedSegment(3.9, 6.1)]
    grid = interpolate_beats([[0.0, 0.5, 1.0], [4.0, 5.0, 6.0]], segments, 6.0)
    # harmonic mean of 0.5 and 1.0 is 2/3; fill continues the phase from 1.0
    step = 2.0 / 3.0
    fill = [b for b in grid.beats if 1.0 < b < 4.0]
    assert fill == pytest.approx([1.0 + step, 1.0 + 2 * step, 3.0, 1.0 + 4 * step])


def test_trailing_gap_extends_to_song_end():
    segments = [VoicedSegment(0.0, 1.2)]
    grid = interpolate_beats([[0.0, 0.5, 1.0]], segments, 2.3)
    assert grid.beats == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0))


def test_detected_beats_survive_verbatim():
    detected = [0.13, 0.61, 1.07]
    grid = interpolate_beats([detected], [VoicedSegment(0.1, 1.2)], 2.0)
    assert all(b in grid.beats for b in detected)


def test_downbeats_are_every_fourth_beat():
    grid = interpolate_beats([[0.0, 0.5, 1.0]], [VoicedSegment(0.0, 1.2)], 4.0)
    assert grid.downbeats == grid.beats[::4]


def test_single_beat_segment_borrows_neighbour_tempo():
    segments = [VoicedSegment(0.0, 1.2), VoicedSegment(2.4, 2.6)]
    grid = interpolate_beats([[0.0, 0.5, 1.0], [2.5]], segments, 3.0)
    assert 2.5 in grid.beats
    assert grid.beats == tuple(sorted(grid.beats))


def test_interpolate_rejects_tempo_free_input():
    with pytest.raises(ValueError):
        interpolate_beats([[1.0]], [VoicedSegment(0.9, 1.1)], 2.0)


def test_interpolate_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        interpolate_beats([[0.0, 0.5]], [], 2.0)


def test_interpolate_random_inputs_stay_monotone():
    rng = random.Random(42)
    for _ in range(200):
        n_runs = rng.randint(1, 4)
        segments, beat_lists, cursor = [], [], 0.0
        for _ in range(n_runs):
            cursor += rng.uniform(0.3, 2.0)
            start = cursor
            interval = rng.uniform(0.3, 1.0)
            count = rng.randint(1, 6)
            beats = [start + k * interval for k in range(count)]
            cursor = beats[-1] + 0.1
            segments.append(VoicedSegment(start - 0.05, cursor))
            beat_lists.append(beats)
        if not any(len(b) >= 2 for b in beat_lists):
            beat_lists[0] = [beat_lists[0][0], beat_lists[0][0] + 0.5]
        total = cursor + rng.uniform(0.0, 3.0)
        grid = interpolate_beats(beat_lists, segments, total)
        assert all(
            b2 > b1 for b1, b2 in zip(grid.beats, grid.beats[1:])
        ), "beats must be strictly increasing"
        assert grid.beats[0] >= 0.0
        assert grid.beats[-1] <= total + 1e-9
        assert grid.downbeats == grid.beats[::4]


def test_grid_requires_strictly_increasing_beats():
    with pytest.raises(ValueError):
        BeatGrid((0.0, 0.0), ())
    with pytest.raises(ValueError):
        BeatGrid((0.0, 1.0), (0.5,))  # downbeat not among beats


def test_grid_to_events_round_trip():
    grid = BeatGrid((0.0, 0.5, 1.0, 1.5, 2.0), (0.0, 2.0))
    beats, downbeats = grid_to_events(grid)
    assert beats == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert downbeats == [0.0, 2.0]


def test_beat_text_round_trip():
    beats = tuple(0.25 * k for k in range(12))
    grid = BeatGrid(beats, beats[::4])
    assert parse_beat_grid(format_beat_grid(grid)) == grid


def test_beat_text_positions_count_within_bar():
    beats = (0.0, 0.5, 1.0, 1.5, 2.0)
    text = format_beat_grid(BeatGrid(beats, (0.0, 2.0)))
    positions = [line.split("\t")[1] for line in text.strip().splitlines()]
    assert positions == ["1", "2", "3", "4", "1"]


def test_parse_beat_grid_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_beat_grid("0.5\n")
    with pytest.raises(ValueError):
        parse_beat_grid("abc\t1\n")


# ---------------------------------------------------------------------------
# The earlier bodies of the rewritten functions, kept as oracles.


def _old_detect_voiced_segments(samples, sample_rate, window_sec=0.05, threshold_db=-40.0):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2:
        samples = samples.mean(axis=0)
    hop = max(1, int(round(window_sec * sample_rate)))
    n_windows = (samples.size + hop - 1) // hop
    padded = np.zeros(n_windows * hop)
    padded[: samples.size] = samples
    rms = np.sqrt((padded.reshape(n_windows, hop) ** 2).mean(axis=1))
    peak = rms.max()
    if peak <= 0.0:
        return []
    voiced = rms > peak * 10.0 ** (threshold_db / 20.0)

    def span(first, last):
        return VoicedSegment(first * hop / sample_rate,
                             min(last * hop, samples.size) / sample_rate)

    segments = []
    start = None
    for i, flag in enumerate(voiced):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segments.append(span(start, i))
            start = None
    if start is not None:
        segments.append(span(start, n_windows))
    merged = []
    for seg in segments:
        if merged and seg.start_sec - merged[-1].end_sec < 0.2:
            merged[-1] = VoicedSegment(merged[-1].start_sec, seg.end_sec)
        else:
            merged.append(seg)
    return merged


def _old_interpolate_beats(voiced_beats, total_duration):
    runs, intervals = [], []
    for beats in voiced_beats:
        ordered = sorted(float(b) for b in beats)
        if ordered:
            runs.append(ordered)
            intervals.append(median(np.diff(ordered)) if len(ordered) >= 2 else None)

    def interval_before(idx):
        for j in range(idx, -1, -1):
            if intervals[j] is not None:
                return intervals[j]
        return None

    def interval_after(idx):
        for j in range(idx, len(intervals)):
            if intervals[j] is not None:
                return intervals[j]
        return None

    def blend(before, after):
        if before is None:
            return after
        if after is None:
            return before
        return 2.0 / (1.0 / before + 1.0 / after)

    grid = []
    lead_iv = interval_after(0)
    back = []
    t = runs[0][0] - lead_iv
    while t >= -1e-9:
        back.append(max(t, 0.0))
        t -= lead_iv
    grid.extend(reversed(back))
    for i, run in enumerate(runs):
        grid.extend(run)
        if i + 1 < len(runs):
            left = blend(interval_before(i), interval_after(i + 1))
            t = run[-1] + left
            while t < runs[i + 1][0] - 1e-9:
                grid.append(t)
                t += left
    tail_iv = interval_before(len(runs) - 1)
    t = grid[-1] + tail_iv
    while t <= total_duration + 1e-9:
        grid.append(min(t, total_duration))
        t += tail_iv
    return BeatGrid(tuple(grid), tuple(grid[::4]))


def _old_format_beat_grid(grid):
    down = set(grid.downbeats)
    positions = []
    count_since_down = None
    for b in grid.beats:
        if b in down:
            count_since_down = 0
        elif count_since_down is not None:
            count_since_down += 1
        positions.append(count_since_down)
    first_known = next((i for i, p in enumerate(positions) if p is not None), None)
    lines = []
    for i, b in enumerate(grid.beats):
        if positions[i] is not None:
            pos = positions[i] % 4 + 1
        elif first_known is not None:
            pos = (-(first_known - i)) % 4 + 1
        else:
            pos = 2
        lines.append(f"{b:.6f}\t{pos}")
    return "\n".join(lines) + ("\n" if lines else "")


def test_voiced_segments_equal_the_state_machine_on_random_bursts():
    rng = random.Random(17)
    for _ in range(300):
        sr = rng.choice((800, 8000, 11025))
        n = rng.randint(1, 3 * sr)
        audio = np.zeros(n)
        for _ in range(rng.randint(0, 5)):
            # Bursts may touch either edge and span loudness around the -40 dB gate.
            lo = rng.choice((0, rng.randrange(n)))
            hi = rng.choice((n, rng.randint(lo, n)))
            audio[lo:hi] += 10.0 ** rng.uniform(-3.0, 0.0) * np.sin(np.arange(hi - lo) * 0.3)
        if rng.random() < 0.2:
            audio = np.stack([audio, rng.uniform(0.0, 1.0) * audio[::-1]])
        got = detect_voiced_segments(audio, sr)
        assert got == _old_detect_voiced_segments(audio, sr)
        assert all(type(v) is float for seg in got for v in (seg.start_sec, seg.end_sec))


def test_interpolated_beats_equal_the_rescanning_version_on_random_runs():
    rng = random.Random(23)
    for _ in range(500):
        beat_lists, cursor = [], rng.uniform(0.0, 2.0)
        for _ in range(rng.randint(1, 6)):
            interval = rng.uniform(0.2, 1.2)
            count = rng.choice((0, 1, 1, 2, 3, 6))  # runs of one beat carry no tempo
            beats = [cursor + k * interval + rng.uniform(0.0, 0.05) for k in range(count)]
            rng.shuffle(beats)
            beat_lists.append(beats)
            cursor += count * interval + rng.uniform(0.1, 4.0)
        if not any(len(b) >= 2 for b in beat_lists):
            continue
        segments = [VoicedSegment(0.0, 1.0)] * len(beat_lists)
        total = cursor + rng.uniform(0.0, 3.0)
        assert interpolate_beats(beat_lists, segments, total) == \
            _old_interpolate_beats(beat_lists, total)


def test_beat_text_positions_equal_the_two_pass_version_on_random_grids():
    rng = random.Random(29)
    for _ in range(500):
        beats = tuple(sorted({round(rng.uniform(0.0, 30.0), 3) for _ in range(rng.randint(0, 20))}))
        if rng.random() < 0.3:
            downbeats = ()
        else:
            start = rng.randrange(len(beats) or 1)
            downbeats = tuple(b for b in beats[start:] if rng.random() < 0.4)
        grid = BeatGrid(beats, downbeats)
        assert format_beat_grid(grid) == _old_format_beat_grid(grid)
