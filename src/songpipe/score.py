"""Symbolic vocal score model.

A :class:`VocalScore` is a monophonic vocal melody in 4/4 time with a tempo
map, structural sections, and optional per-note syllables.  Times inside the
score are integer MIDI ticks; conversion to wall-clock seconds goes through
the tempo map (microseconds per quarter note, piecewise constant).

All types are immutable after construction.  Structural problems are reported
as data by :func:`validate_score` rather than raised, so callers can show
every violation at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Closed set of section labels, in canonical order.  The index of a label in
#: this tuple is its integer id wherever labels are encoded as integers
#: (framewise structure signals, lyric line tags, penalty comparison).
SECTION_LABELS = ("intro", "verse", "chorus", "bridge", "solo", "break", "inst", "outro")

#: Ticks per quarter note used when nothing else is specified.
DEFAULT_TICKS_PER_QUARTER = 480

#: Microseconds per quarter note assumed before the first tempo event (120 BPM).
DEFAULT_TEMPO_US = 500_000

#: Beats per bar; the model is fixed to 4/4 meter.
BEATS_PER_BAR = 4


@dataclass(frozen=True)
class Note:
    """One sung note: onset/duration in ticks, MIDI pitch, optional syllable.

    ``syllable`` is ``None`` for melisma continuation notes (several notes
    sung on the syllable carried by an earlier note).
    """

    onset_tick: int
    duration_ticks: int
    pitch: int
    syllable: str | None = None

    @property
    def end_tick(self) -> int:
        return self.onset_tick + self.duration_ticks


@dataclass(frozen=True)
class Section:
    """A structural span ``[start_tick, end_tick)`` with a label and optional prompt."""

    label: str
    start_tick: int
    end_tick: int
    prompt: str | None = None

    @property
    def duration_ticks(self) -> int:
        return self.end_tick - self.start_tick


@dataclass(frozen=True)
class LyricLine:
    """One lyric line: a section tag and the tokens sung on that line."""

    tag: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.tag not in SECTION_LABELS:
            raise ValueError(f"unknown section label: {self.tag!r}")
        if not self.tokens:
            raise ValueError("lyric line must carry at least one token")
        if any(not t for t in self.tokens):
            raise ValueError("lyric tokens must be non-empty strings")


@dataclass(frozen=True)
class LyricsSheet:
    """An ordered list of tagged lyric lines."""

    lines: tuple[LyricLine, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))

    def __len__(self) -> int:
        return len(self.lines)

    def token_counts(self) -> list[int]:
        return [len(line.tokens) for line in self.lines]

    def tag_indices(self) -> list[int]:
        return [SECTION_LABELS.index(line.tag) for line in self.lines]


@dataclass(frozen=True)
class VocalScore:
    """A monophonic vocal score with tempo map and section annotations.

    ``tempo_map`` is a sequence of ``(tick, microseconds_per_quarter)`` pairs,
    sorted by tick with the first entry at tick 0.  ``time_signature`` must be
    ``(4, 4)``; the field exists so readers can reject other meters with a
    clear message instead of silently assuming one.
    """

    notes: tuple[Note, ...] = ()
    tempo_map: tuple[tuple[int, int], ...] = ((0, DEFAULT_TEMPO_US),)
    time_signature: tuple[int, int] = (4, 4)
    ticks_per_quarter: int = DEFAULT_TICKS_PER_QUARTER
    sections: tuple[Section, ...] = ()
    title: str = ""

    def __post_init__(self) -> None:
        # Accept any iterable for convenience but store immutable tuples.
        object.__setattr__(self, "notes", tuple(self.notes))
        object.__setattr__(
            self, "tempo_map", tuple((int(t), int(u)) for t, u in self.tempo_map)
        )
        object.__setattr__(self, "time_signature", tuple(self.time_signature))
        object.__setattr__(self, "sections", tuple(self.sections))

    @property
    def end_tick(self) -> int:
        """End of the score: the latest note-off or section edge."""
        note_end = max((n.end_tick for n in self.notes), default=0)
        section_end = max((s.end_tick for s in self.sections), default=0)
        return max(note_end, section_end)

    @property
    def ticks_per_bar(self) -> int:
        return BEATS_PER_BAR * self.ticks_per_quarter

    @property
    def num_bars(self) -> int:
        return math.ceil(self.end_tick / self.ticks_per_bar) if self.end_tick else 0

    def duration_seconds(self) -> float:
        return tick_to_seconds(self, self.end_tick)


def validate_score(score: VocalScore) -> list[str]:
    """Check every model invariant and return one message per violation.

    An empty list means the score is well formed.  Messages carry note or
    section indices so a caller can point at the offending event.
    """
    problems: list[str] = []

    if tuple(score.time_signature) != (4, 4):
        problems.append(f"time signature must be 4/4, got {score.time_signature}")
    if score.ticks_per_quarter < 1:
        problems.append(f"ticks_per_quarter must be >= 1, got {score.ticks_per_quarter}")

    if not score.tempo_map:
        problems.append("tempo map is empty")
    else:
        if score.tempo_map[0][0] != 0:
            problems.append(
                f"tempo map must start at tick 0, first entry at tick {score.tempo_map[0][0]}"
            )
        for i in range(1, len(score.tempo_map)):
            if score.tempo_map[i][0] <= score.tempo_map[i - 1][0]:
                problems.append(f"tempo map entry {i} not strictly after entry {i - 1}")
        for i, (_, tempo) in enumerate(score.tempo_map):
            if tempo < 1:
                problems.append(f"tempo map entry {i} has non-positive tempo {tempo}")

    for i, note in enumerate(score.notes):
        if not 0 <= note.pitch <= 127:
            problems.append(f"note {i} pitch {note.pitch} outside [0, 127]")
        if note.duration_ticks < 1:
            problems.append(f"note {i} has non-positive duration {note.duration_ticks}")
        if note.onset_tick < 0:
            problems.append(f"note {i} has negative onset {note.onset_tick}")
        if note.syllable is not None and not note.syllable:
            problems.append(f"note {i} has empty syllable text")

    for i in range(1, len(score.notes)):
        prev, cur = score.notes[i - 1], score.notes[i]
        if cur.onset_tick < prev.onset_tick:
            problems.append(f"note {i} onset {cur.onset_tick} before note {i - 1}")
        elif cur.onset_tick < prev.end_tick:
            problems.append(
                f"notes {i - 1} and {i} overlap (melody must be monophonic)"
            )

    for i, sec in enumerate(score.sections):
        if sec.label not in SECTION_LABELS:
            problems.append(f"section {i} has unknown label {sec.label!r}")
        if sec.end_tick <= sec.start_tick:
            problems.append(f"section {i} is empty or inverted")

    if score.sections:
        if score.sections[0].start_tick != 0:
            problems.append(
                f"section 0 starts at tick {score.sections[0].start_tick}, expected 0"
            )
        for i in range(1, len(score.sections)):
            a, b = score.sections[i - 1], score.sections[i]
            if b.start_tick != a.end_tick:
                problems.append(
                    f"sections {i - 1} and {i} not contiguous "
                    f"({a.end_tick} -> {b.start_tick})"
                )
        note_end = max((n.end_tick for n in score.notes), default=0)
        if score.sections[-1].end_tick < note_end:
            problems.append(
                f"sections end at tick {score.sections[-1].end_tick} "
                f"but notes run to tick {note_end}"
            )
    elif score.notes:
        problems.append("score has notes but no sections covering them")

    return problems


def tick_to_seconds(score: VocalScore, tick: int | float) -> float:
    """Convert a tick position to seconds through the piecewise tempo map."""
    if tick < 0:
        raise ValueError(f"tick must be non-negative, got {tick}")
    if not score.tempo_map:
        raise ValueError("score has an empty tempo map")
    seconds = 0.0
    for i, (start, tempo) in enumerate(score.tempo_map):
        end = score.tempo_map[i + 1][0] if i + 1 < len(score.tempo_map) else None
        if end is not None and tick >= end:
            seconds += (end - start) * tempo / (score.ticks_per_quarter * 1e6)
        else:
            seconds += (tick - start) * tempo / (score.ticks_per_quarter * 1e6)
            break
    return seconds


def prepend_instrumental(score: VocalScore, bars: int) -> VocalScore:
    """Shift a score later by ``bars`` bars and open it with an instrumental section.

    All notes, sections and tempo changes move by ``bars`` whole bars; the new
    leading section is an ``intro`` with no notes.  The tempo at tick 0 is
    kept, so the inserted bars run at the score's initial tempo.
    """
    if bars < 1:
        raise ValueError(f"bars must be >= 1, got {bars}")
    offset = bars * score.ticks_per_bar
    notes = tuple(replace(n, onset_tick=n.onset_tick + offset) for n in score.notes)
    sections = (Section("intro", 0, offset),) + tuple(
        replace(s, start_tick=s.start_tick + offset, end_tick=s.end_tick + offset)
        for s in score.sections
    )
    tempo = ((0, score.tempo_map[0][1]),) + tuple(
        (t + offset, u) for t, u in score.tempo_map if t > 0
    )
    return replace(score, notes=notes, sections=sections, tempo_map=tempo)
