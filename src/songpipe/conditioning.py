"""Time-varying conditioning signals derived from a vocal score.

Every signal lives on a shared frame grid: frame ``f`` sits at ``f /
frame_rate`` seconds and the grid has ``T = ceil(duration * frame_rate)``
frames.  A :class:`ConditionBundle` packs the four framewise matrices
(rhythm activation, chord chromagram, structure labels, pitch contour)
together with per-section key labels.

Rhythm activation follows the "soft target" convention: a unit impulse at
every beat/downbeat, smoothed with a Gaussian of width ``sigma`` seconds and
combined by maximum so each event peaks at 1.0.  Chords are binary 12-bin
chromagrams of root-position triads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .formats import data_lines, read_document
from .score import SECTION_LABELS, VocalScore, tick_to_seconds

DEFAULT_FRAME_RATE = 50.0
DEFAULT_SIGMA = 0.05

#: Pitch-class spellings used by the chord text format (sharps only on write).
PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

#: Upper-cased spellings :func:`parse_pitch_class` accepts: sharps, ``♯`` sharps and flats.
_PITCH_CLASSES = {"DB": 1, "EB": 3, "GB": 6, "AB": 8, "BB": 10} | {
    spelling: pc for pc, name in enumerate(PITCH_CLASS_NAMES)
    for spelling in (name, name.replace("#", "♯"))
}

CONDITIONS_JSON_FORMAT = "conditions"
CONDITIONS_JSON_VERSION = 1


def pitch_class_name(pc: int) -> str:
    return PITCH_CLASS_NAMES[pc % 12]


def parse_pitch_class(name: str) -> int:
    """Parse a pitch-class name (sharp or flat spelling) to an integer 0-11."""
    pc = _PITCH_CLASSES.get(name.strip().upper())
    if pc is None:
        raise ValueError(f"unknown pitch class name: {name!r}")
    return pc


@dataclass(frozen=True)
class KeyLabel:
    """A key as tonic pitch class (0-11) plus mode ('major' or 'minor')."""

    tonic: int
    mode: str

    def __post_init__(self) -> None:
        if not 0 <= self.tonic <= 11:
            raise ValueError(f"tonic must be in [0, 11], got {self.tonic}")
        if self.mode not in ("major", "minor"):
            raise ValueError(f"mode must be 'major' or 'minor', got {self.mode!r}")

    def __str__(self) -> str:
        return f"{pitch_class_name(self.tonic)}:{'maj' if self.mode == 'major' else 'min'}"

    @classmethod
    def parse(cls, text: str) -> "KeyLabel":
        name, sep, mode = text.strip().partition(":")
        if not sep:
            raise ValueError(f"key label must look like 'C:maj', got {text!r}")
        mode = mode.strip().lower()
        if mode in ("maj", "major"):
            return cls(parse_pitch_class(name), "major")
        if mode in ("min", "minor"):
            return cls(parse_pitch_class(name), "minor")
        raise ValueError(f"unknown key mode {mode!r}")


@dataclass(frozen=True)
class ChordSpan:
    """One chord over ``[start_sec, end_sec)``: root pitch class and maj/min quality."""

    start_sec: float
    end_sec: float
    root: int
    quality: str

    def __post_init__(self) -> None:
        if not 0 <= self.root <= 11:
            raise ValueError(f"chord root must be in [0, 11], got {self.root}")
        if self.quality not in ("maj", "min"):
            raise ValueError(f"chord quality must be 'maj' or 'min', got {self.quality!r}")
        if not self.end_sec > self.start_sec:
            raise ValueError(
                f"chord span [{self.start_sec}, {self.end_sec}) is empty or inverted"
            )

    def pitch_classes(self) -> tuple[int, int, int]:
        return triad_pitch_classes(self.root, self.quality)

    def __str__(self) -> str:
        return f"{pitch_class_name(self.root)}:{self.quality}"


def triad_pitch_classes(root: int, quality: str) -> tuple[int, int, int]:
    """Pitch classes of a root-position triad: root, third, fifth (mod 12)."""
    third = 4 if quality == "maj" else 3
    return (root % 12, (root + third) % 12, (root + 7) % 12)


@dataclass(frozen=True)
class ChordSequence:
    """A sorted, non-overlapping sequence of :class:`ChordSpan` entries."""

    entries: tuple[ChordSpan, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for i in range(1, len(self.entries)):
            prev, cur = self.entries[i - 1], self.entries[i]
            if cur.start_sec < prev.end_sec - 1e-9:
                raise ValueError(f"chord entries {i - 1} and {i} overlap")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def end_sec(self) -> float:
        return self.entries[-1].end_sec if self.entries else 0.0

    def shifted(self, offset: float) -> "ChordSequence":
        return ChordSequence(
            tuple(
                ChordSpan(c.start_sec + offset, c.end_sec + offset, c.root, c.quality)
                for c in self.entries
            )
        )


def format_chords(chords: ChordSequence) -> str:
    """Render a chord sequence as text lines ``start_sec end_sec ROOT:quality``."""
    lines = [f"{c.start_sec:.6f} {c.end_sec:.6f} {c}" for c in chords]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_chords(text: str) -> ChordSequence:
    """Parse the three-column chord text format; '#' starts a comment line."""
    entries = []
    for lineno, (start, end, chord) in data_lines(text, "chord", 3):
        try:
            start, end = float(start), float(end)
        except ValueError:
            raise ValueError(f"chord line {lineno}: bad time columns") from None
        name, sep, quality = chord.partition(":")
        if not sep or quality not in ("maj", "min"):
            raise ValueError(f"chord line {lineno}: chord must look like 'C:maj'")
        entries.append(ChordSpan(start, end, parse_pitch_class(name), quality))
    return ChordSequence(tuple(entries))


@dataclass(frozen=True)
class ConditionBundle:
    """All framewise conditioning signals for one song on a shared grid.

    rhythm:        (T, 2) float array; column 0 beats, column 1 downbeats.
    chroma:        (T, 12) binary array of active triad pitch classes.
    structure:     (T,) int array of section-label ids (index into SECTION_LABELS).
    pitch_contour: (T,) float array; sounding MIDI pitch, 0 where silent.
    keys:          one ``(section_index, KeyLabel)`` pair per section.
    """

    frame_rate: float
    rhythm: np.ndarray
    chroma: np.ndarray
    structure: np.ndarray
    pitch_contour: np.ndarray
    keys: tuple[tuple[int, KeyLabel], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        t = len(self.rhythm)
        if self.rhythm.shape != (t, 2):
            raise ValueError(f"rhythm must have shape (T, 2), got {self.rhythm.shape}")
        if self.chroma.shape != (t, 12):
            raise ValueError(f"chroma must have shape (T, 12), got {self.chroma.shape}")
        if self.structure.shape != (t,):
            raise ValueError(f"structure must have shape (T,), got {self.structure.shape}")
        if self.pitch_contour.shape != (t,):
            raise ValueError(
                f"pitch_contour must have shape (T,), got {self.pitch_contour.shape}"
            )
        if self.frame_rate <= 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")

    @property
    def num_frames(self) -> int:
        return len(self.rhythm)

    @property
    def duration_sec(self) -> float:
        return self.num_frames / self.frame_rate


# ---------------------------------------------------------------------------
# Signal builders


def beat_downbeat_events(score: VocalScore) -> tuple[list[float], list[float]]:
    """Quarter-note beat and bar-start downbeat times over the whole score.

    Beats sit on the tick grid every quarter note from tick 0 up to (but not
    including) the score end; every fourth beat is a downbeat.
    """
    end = score.end_tick
    if end <= 0:
        raise ValueError("score is empty; no beat grid to derive")
    beat_ticks = range(0, end, score.ticks_per_quarter)
    beats = [tick_to_seconds(score, t) for t in beat_ticks]
    downbeats = beats[::4]
    return beats, downbeats


def rhythm_activation(
    beats: list[float] | np.ndarray,
    downbeats: list[float] | np.ndarray,
    duration_sec: float,
    frame_rate: float = DEFAULT_FRAME_RATE,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Gaussian-smoothed beat/downbeat activation curves, shape (T, 2).

    Each event contributes ``exp(-(t - t_event)^2 / (2 sigma^2))``; bumps are
    combined with max so the peak at an event frame is exactly 1.0.  Values
    are clipped to [0, 1].

    The bump is monotone in the float64 ``|t - t_event|``, so the maximum
    over all events is the larger bump of the events either side of ``t``,
    found by binary search: the same bits in O(T log E).
    """
    if duration_sec <= 0:
        raise ValueError(f"duration must be positive, got {duration_sec}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if frame_rate <= 0:
        raise ValueError(f"frame_rate must be positive, got {frame_rate}")
    t = math.ceil(duration_sec * frame_rate)
    times = np.arange(t) / frame_rate
    out = np.zeros((t, 2))
    for column, events in enumerate((beats, downbeats)):
        values = np.asarray(events, dtype=float)
        outside = ~((values >= 0.0) & (values <= duration_sec))
        if outside.any():
            event = events[int(np.argmax(outside))]
            raise ValueError(f"event at {event} s lies outside [0, {duration_sec}] s")
        if values.size == 0:
            continue
        values = np.sort(values)
        right = np.searchsorted(values, times)
        left = np.maximum(right - 1, 0)
        # In place: clamping into a new array raised the peak RSS of a
        # six-song conditioning batch by 5 MB on every run.
        np.minimum(right, values.size - 1, out=right)
        for nearest in (values[left], values[right]):
            bump = np.exp(-((times - nearest) ** 2) / (2.0 * sigma * sigma))
            np.maximum(out[:, column], bump, out=out[:, column])
    return np.clip(out, 0.0, 1.0)


def _frame_spans(
    num_frames: int, frame_rate: float, spans: list[tuple[float, float]]
) -> list[list[int]]:
    """Frame slices ``[lo, hi)`` holding the frame times ``start <= t < end``.

    Frame times ``f / frame_rate`` are sorted, so the frames of a span are
    one run, found by binary search: for edges that are not NaN,
    ``out[lo:hi]`` covers exactly the mask ``(times >= start) & (times < end)``.
    """
    times = np.arange(num_frames) / frame_rate
    edges = np.searchsorted(times, np.asarray(spans, dtype=float).reshape(-1, 2))
    return edges.tolist()


def chord_chromagram(
    chords: ChordSequence,
    duration_sec: float,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> np.ndarray:
    """Binary (T, 12) chromagram with triad pitch classes active per frame.

    A frame at time ``t`` belongs to the chord span with ``start <= t < end``;
    frames outside every span stay all-zero.
    """
    if duration_sec < chords.end_sec - 1e-9:
        raise ValueError(
            f"duration {duration_sec} s is shorter than the chord sequence "
            f"({chords.end_sec} s)"
        )
    t = math.ceil(duration_sec * frame_rate)
    out = np.zeros((t, 12))
    spans = _frame_spans(t, frame_rate, [(c.start_sec, c.end_sec) for c in chords])
    for chord, (lo, hi) in zip(chords, spans):
        out[lo:hi, list(chord.pitch_classes())] = 1.0
    return out


def pitch_contour_from_score(
    score: VocalScore,
    duration_sec: float | None = None,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> np.ndarray:
    """Framewise MIDI pitch of the sounding note; 0.0 in vocal silence.

    At a boundary frame where one note ends exactly as the next begins, the
    frame reports the later note.
    """
    if duration_sec is None:
        duration_sec = score.duration_seconds()
    t = math.ceil(duration_sec * frame_rate)
    out = np.zeros(t)
    spans = _frame_spans(t, frame_rate, [
        (tick_to_seconds(score, n.onset_tick), tick_to_seconds(score, n.end_tick))
        for n in score.notes
    ])
    for note, (lo, hi) in zip(score.notes, spans):
        out[lo:hi] = float(note.pitch)
    return out


def structure_labels(
    score: VocalScore,
    duration_sec: float | None = None,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> np.ndarray:
    """Framewise section-label ids; frames at/after the last section keep its id."""
    if not score.sections:
        raise ValueError("score has no sections")
    if duration_sec is None:
        duration_sec = score.duration_seconds()
    t = math.ceil(duration_sec * frame_rate)
    out = np.zeros(t, dtype=np.int64)
    # Section i holds the frames from its start to the next one's; the first
    # also holds any frames before it and the last all frames after it.
    starts = [tick_to_seconds(score, s.start_tick) for s in score.sections[1:]]
    spans = _frame_spans(t, frame_rate, list(zip([-np.inf] + starts, starts + [np.inf])))
    for section, (lo, hi) in zip(score.sections, spans):
        out[lo:hi] = SECTION_LABELS.index(section.label)
    return out


def nearest_targets(values: list[float], grid: list[float]) -> list[float]:
    """Snap each value to the nearest element of ``grid``; ties go to the earlier.

    ``grid`` must be non-empty, finite, sorted and free of duplicates.
    The result equals ``min(grid, key=lambda t: (abs(t - x), t))`` for
    every ``x``, found by binary search.  ``fl(x - t)`` never increases as
    ``t`` rises towards ``x``, and ``fl(t - x)`` never decreases as ``t``
    rises past it, so the winner is one of the two neighbours of ``x``.
    Only a rounding tie can say otherwise: when ``x - t`` rounds to the
    same distance for several targets below ``x`` (far from ``x`` in
    magnitude, or ``x`` infinite), ``min`` takes the earliest of them, and
    so does the scan here.  A NaN value compares less than nothing, so
    ``min`` keeps ``grid[0]``.
    """
    targets = np.asarray(grid, dtype=float)
    x = np.asarray(values, dtype=float)
    n = targets.size
    right = np.searchsorted(targets, x)
    left = right - 1
    has_left = left >= 0
    gap_left = np.where(has_left, x - targets[np.maximum(left, 0)], np.inf)
    gap_right = np.where(right < n, targets[np.minimum(right, n - 1)] - x, np.inf)
    take_left = has_left & (gap_left <= gap_right)
    chosen = np.where(take_left, left, right)
    below = np.maximum(left - 1, 0)
    tied = take_left & (left >= 1) & (x - targets[below] == gap_left)
    for i in np.flatnonzero(tied):
        gaps = np.abs(targets - x[i])
        chosen[i] = np.flatnonzero(gaps == gaps[chosen[i]])[0]
    chosen[np.isnan(x)] = 0
    return [grid[i] for i in chosen.tolist()]


def snap_boundaries(
    boundaries: list[float],
    downbeats: list[float],
    section_edges: list[float],
) -> list[float]:
    """Snap each boundary to the nearest downbeat or section edge.

    Targets are the union of the two lists; ties between equally distant
    targets resolve to the earlier one.  The result is sorted with duplicates
    removed.
    """
    targets = sorted(set(downbeats) | set(section_edges))
    if not targets:
        raise ValueError("no snap targets: downbeats and section edges both empty")
    return sorted(set(nearest_targets(boundaries, targets)))


def _snap_chords(chords: ChordSequence, targets_beats: list[float],
                 section_edges: list[float]) -> ChordSequence:
    """Snap every chord boundary onto the downbeat/section-edge grid.

    Spans that collapse to zero length after snapping are dropped.
    """
    grid = sorted(set(targets_beats) | set(section_edges))
    edges = nearest_targets([t for c in chords for t in (c.start_sec, c.end_sec)], grid)
    entries = []
    for c, a, b in zip(chords, edges[::2], edges[1::2]):
        if b > a:
            entries.append(ChordSpan(a, b, c.root, c.quality))
    return ChordSequence(tuple(entries))


def build_condition_bundle(
    score: VocalScore,
    chords: ChordSequence,
    keys: list[tuple[int, KeyLabel]],
    frame_rate: float = DEFAULT_FRAME_RATE,
    sigma: float = DEFAULT_SIGMA,
    pitch_contour: np.ndarray | None = None,
) -> ConditionBundle:
    """Assemble every conditioning signal for a score on one frame grid.

    Chord boundaries are snapped to the union of downbeats and section edges
    before rasterization, so all conditioning transitions line up with
    structural transitions or the beat grid; chords that run past the end of
    the score are rejected.  ``keys`` must carry exactly one entry per
    section.  An externally supplied ``pitch_contour`` (length T)
    replaces the score-derived one.
    """
    problems_keys = {i for i, _ in keys}
    if problems_keys != set(range(len(score.sections))):
        raise ValueError(
            f"keys must cover every section exactly once; got sections {sorted(problems_keys)} "
            f"for {len(score.sections)} sections"
        )
    duration = score.duration_seconds()
    if duration <= 0:
        raise ValueError("score has zero duration")
    beats, downbeats = beat_downbeat_events(score)
    section_edges = [tick_to_seconds(score, s.start_tick) for s in score.sections]
    section_edges.append(duration)
    # Snapping clamps every edge to the song end, so check before it; the
    # tolerance covers the 6 decimals that chords.txt keeps.
    if chords.end_sec > duration + 1e-6:
        raise ValueError(
            f"chords run to {chords.end_sec} s, past the end of the score ({duration} s)"
        )
    snapped = _snap_chords(chords, downbeats, section_edges)

    rhythm = rhythm_activation(beats, downbeats, duration, frame_rate, sigma)
    chroma = chord_chromagram(snapped, duration, frame_rate)
    structure = structure_labels(score, duration, frame_rate)
    t = len(rhythm)
    if pitch_contour is None:
        contour = pitch_contour_from_score(score, duration, frame_rate)
    else:
        contour = np.asarray(pitch_contour, dtype=float)
        if contour.shape != (t,):
            raise ValueError(
                f"external pitch contour has shape {contour.shape}, expected ({t},)"
            )
    return ConditionBundle(
        frame_rate=frame_rate,
        rhythm=rhythm,
        chroma=chroma,
        structure=structure,
        pitch_contour=contour,
        keys=tuple(sorted(keys)),
    )


# ---------------------------------------------------------------------------
# Serialization


def bundle_to_json(bundle: ConditionBundle) -> str:
    """Serialize a bundle as the canonical versioned JSON document.

    The text is ``json.dumps(doc, sort_keys=True)`` and a newline, over the
    arrays' ``tolist()`` values; chroma and structure values truncate to int.
    Chroma is binary and goes through int8, so its values must truncate into
    [-128, 127].  Rhythm rows are nearly all distinct, so they skip _rows_json.
    """
    keys = [{"section": i, "tonic": k.tonic, "mode": k.mode} for i, k in bundle.keys]
    return "".join([
        # int8: a freed (T, 12) int64 copy raised a six-song batch's peak RSS by 5 MB.
        '{"chroma": ', _rows_json(bundle.chroma.astype(np.int8)),
        ', "format": ', json.dumps(CONDITIONS_JSON_FORMAT),
        ', "frame_rate": ', json.dumps(bundle.frame_rate),
        ', "keys": ', json.dumps(keys, sort_keys=True),
        ', "num_frames": ', json.dumps(bundle.num_frames),
        ', "pitch_contour": ', _rows_json(bundle.pitch_contour.astype(float, copy=False)),
        ', "rhythm": ', json.dumps(bundle.rhythm.astype(float, copy=False).tolist()),
        ', "structure": ', _rows_json(bundle.structure.astype(np.int64, copy=False)),
        ', "version": ', json.dumps(CONDITIONS_JSON_VERSION), "}\n",
    ])


def _rows_json(rows: np.ndarray) -> str:
    """``json.dumps(rows.tolist())``; each row, by its bytes (-0.0 is not 0.0), formatted once."""
    rows = np.ascontiguousarray(rows)
    by_bytes = rows.view(f"V{rows.itemsize * math.prod(rows.shape[1:])}").ravel()
    _, first, inverse = np.unique(by_bytes, return_index=True, return_inverse=True)
    texts = [json.dumps(row) for row in rows[first].tolist()]
    return "[" + ", ".join([texts[i] for i in inverse.tolist()]) + "]"


def bundle_from_json(text: str | bytes) -> ConditionBundle:
    def build(doc: dict) -> tuple[ConditionBundle, int]:
        return ConditionBundle(
            frame_rate=float(doc["frame_rate"]),
            rhythm=np.asarray(doc["rhythm"], dtype=float).reshape(-1, 2),
            chroma=np.asarray(doc["chroma"], dtype=float).reshape(-1, 12),
            structure=np.asarray(doc["structure"], dtype=np.int64),
            pitch_contour=np.asarray(doc["pitch_contour"], dtype=float),
            keys=tuple(
                (int(k["section"]), KeyLabel(int(k["tonic"]), str(k["mode"])))
                for k in doc["keys"]
            ),
        ), int(doc["num_frames"])

    bundle, num_frames = read_document(text, CONDITIONS_JSON_FORMAT, CONDITIONS_JSON_VERSION,
                                       build)
    if bundle.num_frames != num_frames:
        raise ValueError("num_frames does not match matrix length")
    return bundle
