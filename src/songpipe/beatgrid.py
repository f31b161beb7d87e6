"""Beat-grid reconstruction through vocal-silent gaps.

A vocal-only beat tracker leaves holes wherever the voice rests.  This module
takes per-segment beat estimates and stitches them into one gap-free grid:
detected beats are kept verbatim inside voiced segments, and every silent
stretch (leading, interior, trailing) is filled with equally spaced beats at
a tempo blended from the neighbouring segments, phase-continued from the
preceding beats.

The blended inter-beat interval of an interior gap is the harmonic mean of
the two neighbours' median intervals; a leading gap uses the following
segment's interval and a trailing gap the preceding one.  Downbeats are
assigned to every fourth beat of the assembled grid, counting from the first
beat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from statistics import median

import numpy as np

from .formats import data_lines

_EPS = 1e-9

#: Voiced segments closer than this (seconds) are merged into one.
MERGE_GAP_SEC = 0.2

#: Length (seconds) of the non-overlapping RMS windows of voicing detection.
WINDOW_SEC = 0.05

#: A window is voiced when its RMS is within this many dB of the loudest one.
THRESHOLD_DB = -40.0


@dataclass(frozen=True)
class VoicedSegment:
    """A span ``[start_sec, end_sec)`` where vocal energy is present."""

    start_sec: float
    end_sec: float

    def __post_init__(self) -> None:
        if not self.end_sec > self.start_sec:
            raise ValueError(
                f"segment [{self.start_sec}, {self.end_sec}) is empty or inverted"
            )


@dataclass(frozen=True)
class BeatGrid:
    """A strictly increasing list of beat times; downbeats are a subset."""

    beats: tuple[float, ...]
    downbeats: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beats", tuple(float(b) for b in self.beats))
        object.__setattr__(self, "downbeats", tuple(float(d) for d in self.downbeats))
        for i in range(1, len(self.beats)):
            if self.beats[i] <= self.beats[i - 1]:
                raise ValueError(f"beats not strictly increasing at index {i}")
        beat_set = set(self.beats)
        for d in self.downbeats:
            if d not in beat_set:
                raise ValueError(f"downbeat {d} is not one of the beats")


def detect_voiced_segments(samples: np.ndarray, sample_rate: int) -> list[VoicedSegment]:
    """Find spans with audible energy using windowed RMS against the peak.

    The signal is cut into non-overlapping :data:`WINDOW_SEC` windows; a
    window is voiced when its RMS is within :data:`THRESHOLD_DB` of the
    loudest window.  Adjacent voiced spans closer than
    :data:`MERGE_GAP_SEC` are merged.  All-silent input yields an empty list;
    a NaN or infinite sample, or one whose square overflows, raises.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2:  # (channels, n) -> mono mean; a non-finite one is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            samples = samples.mean(axis=0)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D or (channels, n) array")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    hop = max(1, int(round(WINDOW_SEC * sample_rate)))
    n_windows = (samples.size + hop - 1) // hop
    padded = np.zeros(n_windows * hop)
    padded[: samples.size] = samples
    frames = padded.reshape(n_windows, hop)
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        rms = np.sqrt((frames**2).mean(axis=1))
    peak = rms.max()
    if not math.isfinite(peak):  # a NaN or inf in any window carries into the max
        raise ValueError(f"samples have a window of non-finite RMS ({peak})")
    if peak <= 0.0:
        return []
    gate = peak * 10.0 ** (THRESHOLD_DB / 20.0)
    # Voicing changes at these windows, so they alternate run starts and stops.
    edges = np.flatnonzero(np.diff(rms > gate, prepend=False, append=False)).tolist()
    segments = [_window_span(first, last, hop, sample_rate, samples.size)
                for first, last in zip(edges[::2], edges[1::2])]

    merged: list[VoicedSegment] = []
    for seg in segments:
        if merged and seg.start_sec - merged[-1].end_sec < MERGE_GAP_SEC:
            merged[-1] = VoicedSegment(merged[-1].start_sec, seg.end_sec)
        else:
            merged.append(seg)
    return merged


def _window_span(
    first: int, last: int, hop: int, sample_rate: int, n_samples: int
) -> VoicedSegment:
    start = first * hop / sample_rate
    end = min(last * hop, n_samples) / sample_rate
    return VoicedSegment(start, end)


def interpolate_beats(
    voiced_beats: list[list[float]],
    segments: list[VoicedSegment],
    total_duration: float,
) -> BeatGrid:
    """Assemble a gap-free beat grid from per-segment beat estimates.

    ``voiced_beats[i]`` holds the beats detected inside ``segments[i]``
    (possibly empty; segments with fewer than two beats contribute no tempo
    evidence).  At least one segment must carry two or more beats, otherwise
    no tempo can be inferred and a :class:`ValueError` is raised.
    """
    if len(voiced_beats) != len(segments):
        raise ValueError(
            f"got {len(voiced_beats)} beat lists for {len(segments)} segments"
        )
    if total_duration <= 0:
        raise ValueError(f"total_duration must be positive, got {total_duration}")
    runs: list[list[float]] = []
    intervals: list[float | None] = []
    for i, beats in enumerate(voiced_beats):
        ordered = sorted(float(b) for b in beats)
        for j in range(1, len(ordered)):
            if ordered[j] <= ordered[j - 1]:
                raise ValueError(f"segment {i} has duplicate beat at {ordered[j]}")
        if ordered:
            runs.append(ordered)
            if len(ordered) >= 2:
                intervals.append(median(np.diff(ordered)))
            else:
                intervals.append(None)
    if not any(iv is not None for iv in intervals):
        raise ValueError("no segment carries two or more beats; tempo is undefined")

    def carry(prev: float | None, iv: float | None) -> float | None:
        return prev if iv is None else iv

    # The nearest interval at or before, and at or after, each run.
    before = list(accumulate(intervals, carry))
    after = list(accumulate(reversed(intervals), carry))[::-1]

    grid: list[float] = []

    # Leading gap: walk backward from the first detected beat at the first
    # available interval, down to time zero.
    lead_iv = after[0]
    first_beat = runs[0][0]
    back: list[float] = []
    t = first_beat - lead_iv
    while t >= -_EPS:
        back.append(max(t, 0.0))
        t -= lead_iv
    grid.extend(reversed(back))

    for i, run in enumerate(runs):
        grid.extend(run)
        if i + 1 < len(runs):
            left = _blend(before[i], after[i + 1])
            t = run[-1] + left
            while t < runs[i + 1][0] - _EPS:
                grid.append(t)
                t += left

    # Trailing gap: continue at the last available interval to the song end.
    tail_iv = before[-1]
    t = grid[-1] + tail_iv
    while t <= total_duration + _EPS:
        grid.append(min(t, total_duration))
        t += tail_iv

    beats = tuple(grid)
    downbeats = beats[::4]
    return BeatGrid(beats, downbeats)


def _blend(before: float | None, after: float | None) -> float:
    """Harmonic mean of the neighbouring intervals (one side may be missing)."""
    if before is None:
        return after  # type: ignore[return-value]
    if after is None:
        return before
    return 2.0 / (1.0 / before + 1.0 / after)


# ---------------------------------------------------------------------------
# Two-column text format: time <TAB> position-in-bar (1 = downbeat)


def format_beat_grid(grid: BeatGrid) -> str:
    """Render a grid in two-column annotation style: time and beat position.

    Position counts 1..4 within the bar; beats before the first downbeat
    count backward from it.
    """
    down = set(grid.downbeats)
    # Each beat counts from the last downbeat at or before it; beats before
    # the first downbeat count back from that one.
    anchor = next((i for i, b in enumerate(grid.beats) if b in down), None)
    lines = []
    for i, b in enumerate(grid.beats):
        if b in down:
            anchor = i
        pos = 2 if anchor is None else (i - anchor) % 4 + 1  # no downbeat: all off-beat
        lines.append(f"{b:.6f}\t{pos}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_beat_grid(text: str) -> BeatGrid:
    """Parse the two-column beat text; lines starting with '#' are comments."""
    beats: list[float] = []
    downbeats: list[float] = []
    for lineno, (time, pos) in data_lines(text, "beat", 2):
        try:
            time, pos = float(time), int(float(pos))
        except (ValueError, OverflowError):  # int(float("1e400")) overflows
            raise ValueError(f"beat line {lineno}: bad time or position column") from None
        if not math.isfinite(time):
            raise ValueError(f"beat line {lineno}: time {time} is not finite")
        beats.append(time)
        if pos == 1:
            downbeats.append(time)
    return BeatGrid(tuple(beats), tuple(downbeats))
