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

from .formats import data_lines, read_document, typed
from .score import SECTION_LABELS, VocalScore, tick_to_seconds

DEFAULT_FRAME_RATE = 50.0
DEFAULT_SIGMA = 0.05
_SNAP_BLOCK = 256  # values that nearest_targets snaps at a time

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
        if not 0 < self.frame_rate < math.inf:
            raise ValueError(f"frame_rate must be positive and finite, got {self.frame_rate}")

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
            with np.errstate(over="ignore"):  # a tiny sigma overflows: exp(-inf) is 0
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
    duration_sec: float,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> np.ndarray:
    """Framewise MIDI pitch of the sounding note; 0.0 in vocal silence.

    At a boundary frame where one note ends exactly as the next begins, the
    frame reports the later note.
    """
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
    duration_sec: float,
    frame_rate: float = DEFAULT_FRAME_RATE,
) -> np.ndarray:
    """Framewise section-label ids; frames at/after the last section keep its id."""
    if not score.sections:
        raise ValueError("score has no sections")
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

    ``grid`` must be non-empty, finite and sorted.  A value ``x`` snaps to
    ``min(grid, key=lambda t: (abs(t - x), t))``, the first ``t`` with the least
    ``abs(t - x)`` (``grid[0]`` if ``x`` is NaN).  Blocks of ``_SNAP_BLOCK`` values
    keep the distance table to ``_SNAP_BLOCK * len(grid)`` floats.
    """
    targets = np.asarray(grid, dtype=float)
    x = np.asarray(values, dtype=float)
    chosen: list[int] = []
    for i in range(0, x.size, _SNAP_BLOCK):
        gaps = targets - x[i : i + _SNAP_BLOCK, None]
        chosen += np.abs(gaps, out=gaps).argmin(axis=1).tolist()
    return [grid[i] for i in chosen]


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
) -> ConditionBundle:
    """Assemble every conditioning signal for a score on one frame grid.

    Chord boundaries are snapped to the union of downbeats and section edges
    before rasterization, so all conditioning transitions line up with
    structural transitions or the beat grid; chords that run past the end of
    the score are rejected.  ``keys`` must carry exactly one entry per
    section.
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
    return ConditionBundle(
        frame_rate=frame_rate,
        rhythm=rhythm,
        chroma=chroma,
        structure=structure_labels(score, duration, frame_rate),
        pitch_contour=pitch_contour_from_score(score, duration, frame_rate),
        keys=tuple(sorted(keys)),
    )


# ---------------------------------------------------------------------------
# Serialization


def bundle_to_json(bundle: ConditionBundle) -> str:
    """Serialize a bundle as the canonical versioned JSON document.

    The text is ``json.dumps(doc, sort_keys=True)`` and a newline, over the
    arrays' ``tolist()`` values; chroma and structure values truncate to int.
    Chroma is binary and goes through int8, so its values must truncate into
    [-128, 127].  Rhythm rows skip _rows_json: grouping them made a round of
    the prepare-batch benchmark slower (1.21 s against 0.86 s).
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


def rows_of(value, width: int, name: str) -> np.ndarray:
    """``value``, a list of rows of ``width`` numbers each, as a float array;
    anything else is a ``ValueError`` that names the shape found."""
    rows = np.asarray(value, dtype=float)
    if rows.shape == (0,):  # no rows
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be a list of rows of {width} numbers, "
                         f"got shape {rows.shape}")
    return rows


def bundle_from_json(text: str | bytes) -> ConditionBundle:
    def build(doc: dict) -> tuple[ConditionBundle, int]:
        rhythm, chroma = rows_of(doc["rhythm"], 2, "rhythm"), rows_of(doc["chroma"], 12, "chroma")
        if not ((chroma == 0) | (chroma == 1)).all():
            raise ValueError("chroma cells must be 0 or 1")
        if not ((rhythm >= 0) & (rhythm <= 1)).all():  # NaN fails both
            raise ValueError("rhythm values must be in [0, 1]")
        lists = doc["structure"], doc["pitch_contour"]
        if not all(type(v) is list and set(map(type, v)) <= {int, float} for v in lists):
            raise ValueError("structure and pitch_contour must be lists of numbers")
        structure, contour = (np.asarray(v, dtype=float) for v in lists)
        if not ((structure >= 0) & (structure < len(SECTION_LABELS)) & (structure % 1 == 0)).all():
            raise ValueError(f"structure ids must be whole numbers in [0, {len(SECTION_LABELS)})")
        if not ((contour >= 0) & (contour <= 127)).all():
            raise ValueError("pitch_contour values must be finite and in [0, 127]")
        return ConditionBundle(
            frame_rate=typed(doc["frame_rate"], float, "frame_rate"),
            rhythm=rhythm,
            chroma=chroma,
            structure=structure.astype(np.int64),
            pitch_contour=contour,
            keys=tuple((typed(k["section"], int, "key section"),
                        KeyLabel(typed(k["tonic"], int, "tonic"), k["mode"]))
                       for k in doc["keys"]),
        ), typed(doc["num_frames"], int, "num_frames")

    bundle, num_frames = read_document(text, CONDITIONS_JSON_FORMAT, CONDITIONS_JSON_VERSION,
                                       build)
    if bundle.num_frames != num_frames:
        raise ValueError("num_frames does not match matrix length")
    return bundle
