"""Symbolic preparation: reference-lyric selection and register matching.

Two independent pre-generation steps live here.  The first picks, from a
bank of reference lyric sheets, the one whose shape best matches the target
lyrics, scored by a weighted penalty over line counts, per-line token
profiles and section-tag structure.  The second fits a melody to a singer's
comfortable range by trying whole-octave shifts.
"""
from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, replace
from statistics import median

from .formats import content_lines, read_file
from .score import SECTION_LABELS, VocalScore

#: Relative weights of the three penalty components.
SENTENCE_WEIGHT = 0.4
PROFILE_WEIGHT = 0.4
STRUCTURE_WEIGHT = 0.2

#: Whole-octave shifts tried by the register search.  Ties prefer the
#: smaller absolute shift (negative before positive at equal size).
OCTAVE_SHIFTS = (-12, 0, 12)


@dataclass(frozen=True)
class SingerProfile:
    """A named comfortable range of inclusive MIDI pitches."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high <= 127:
            raise ValueError(
                f"profile {self.name!r} range [{self.low}, {self.high}] is invalid"
            )

    def contains(self, pitch: int) -> bool:
        return self.low <= pitch <= self.high


#: Default singer tessituras as inclusive MIDI pitch ranges.
DEFAULT_PROFILES = (
    SingerProfile("male", 45, 64),
    SingerProfile("female", 55, 74),
)


@dataclass(frozen=True)
class PenaltyBreakdown:
    """Component penalties and their weighted total for one candidate."""

    sentence: float
    profile: float
    structure: float
    total: float


@dataclass(frozen=True)
class RegisterDecision:
    """Outcome of the register search: chosen profile, octave shift, fit count."""

    profile: SingerProfile
    shift: int
    in_range: int
    total_notes: int


@dataclass(frozen=True)
class SheetShape:
    """A lyric sheet as selection reads it: each line's token count and section-tag index."""

    counts: tuple[int, ...]
    tags: tuple[int, ...]


# ---------------------------------------------------------------------------
# Penalty scoring


def penalty_score(
    target: SheetShape, candidate: SheetShape, reject_fewer_lines: bool = False
) -> PenaltyBreakdown:
    """Score how badly a candidate sheet's shape matches the target's.

    Components, each in [0, 1]:

    * sentence: ``|n_target - n_candidate| / max(n_target, n_candidate)``
      over line counts;
    * profile: mean absolute difference of per-line token counts, the
      shorter count list padded with its own median, scaled by the largest
      token count observed in either sheet;
    * structure: position-wise section-tag mismatches over the shorter
      length, plus the length difference, divided by the longer length.

    ``total = 0.4 * sentence + 0.4 * profile + 0.2 * structure``.  With
    ``reject_fewer_lines`` a candidate with fewer lines than the target gets
    an infinite total (components still reported).
    """
    counts_t, counts_c = target.counts, candidate.counts
    if not counts_t or not counts_c:
        raise ValueError("both lyric sheets must carry at least one line")
    n_t, n_c = len(counts_t), len(counts_c)
    sentence = abs(n_t - n_c) / max(n_t, n_c)

    padded_t, padded_c = _pad_with_median(counts_t, counts_c)
    scale = max(max(counts_t), max(counts_c))
    profile = sum(abs(a - b) for a, b in zip(padded_t, padded_c)) / len(padded_t) / scale

    tags_t, tags_c = target.tags, candidate.tags
    shorter, longer = min(n_t, n_c), max(n_t, n_c)
    mismatches = sum(1 for a, b in zip(tags_t, tags_c) if a != b)
    structure = (mismatches + (longer - shorter)) / longer

    total = (
        SENTENCE_WEIGHT * sentence
        + PROFILE_WEIGHT * profile
        + STRUCTURE_WEIGHT * structure
    )
    if reject_fewer_lines and n_c < n_t:
        total = math.inf
    return PenaltyBreakdown(sentence, profile, structure, total)


def _pad_with_median(a: list[int], b: list[int]) -> tuple[list[float], list[float]]:
    """Equalize lengths by padding the shorter list with its own median."""
    out_a: list[float] = list(map(float, a))
    out_b: list[float] = list(map(float, b))
    if len(out_a) < len(out_b):
        out_a += [float(median(a))] * (len(out_b) - len(out_a))
    elif len(out_b) < len(out_a):
        out_b += [float(median(b))] * (len(out_a) - len(out_b))
    return out_a, out_b


def select_reference(
    target: SheetShape, bank: list[SheetShape], reject_fewer_lines: bool = False
) -> tuple[int, PenaltyBreakdown]:
    """Pick the bank entry with the lowest penalty against the target.

    Returns ``(index, breakdown)``; equal totals resolve to the earlier bank
    entry.  Raises if the bank is empty or every entry was rejected.
    """
    if not bank:
        raise ValueError("reference bank is empty")
    best_index, best = min(
        enumerate(penalty_score(target, candidate, reject_fewer_lines) for candidate in bank),
        key=lambda item: item[1].total,
    )
    if math.isinf(best.total):
        raise ValueError("every bank entry was rejected (all have fewer lines)")
    return best_index, best


# ---------------------------------------------------------------------------
# Register matching


def register_match(
    score: VocalScore,
    profiles: tuple[SingerProfile, ...] = DEFAULT_PROFILES,
) -> RegisterDecision:
    """Choose the profile and octave shift keeping most notes in range.

    Every ``(profile, shift)`` pair with shift in ``{-12, 0, +12}`` is
    scored by the number of shifted notes inside the profile's tessitura.
    Ties prefer the smaller absolute shift, then the earlier profile.
    """
    if not profiles:
        raise ValueError("no singer profiles given")
    if not score.notes:
        raise ValueError("score has no notes; register match is undefined")
    neg_count, _, pi, shift = min(
        (-sum(1 for n in score.notes if profile.contains(n.pitch + shift)), abs(shift), pi, shift)
        for pi, profile in enumerate(profiles) for shift in OCTAVE_SHIFTS
    )
    return RegisterDecision(profiles[pi], shift, -neg_count, len(score.notes))


def apply_transpose(score: VocalScore, shift: int) -> VocalScore:
    """Shift every note by ``shift`` semitones, erroring if any pitch leaves 0..127."""
    notes = []
    for i, note in enumerate(score.notes):
        pitch = note.pitch + shift
        if not 0 <= pitch <= 127:
            raise ValueError(
                f"note {i} would leave the MIDI range: {note.pitch} + {shift} = {pitch}"
            )
        notes.append(replace(note, pitch=pitch))
    return replace(score, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Lyric tokenization and file formats


#: One CJK ideograph (extensions included) or kana character.
_CJK_CHAR = re.compile(
    "[\u4e00-\u9fff\u3400-\u4dbf\U00020000-\U0002a6df\uf900-\ufaff\u3040-\u30ff]"
)


def tokenize_lyric_text(text: str) -> list[str]:
    """Split lyric text into tokens.

    Lines containing CJK characters yield one token per visible character;
    everything else splits on whitespace.
    """
    if _CJK_CHAR.search(text):
        return [c for c in text if not c.isspace()]
    return text.split()


def parse_lyrics(text: str) -> SheetShape:
    """Parse the plain-text lyric format into its :class:`SheetShape`.

    Each line that is not blank or a ``#`` comment is one lyric line, of
    :func:`tokenize_lyric_text`'s tokens.  A leading ``[tag]`` sets the
    section tag for that line and the following ones; lines before any tag
    default to ``verse``.  A line consisting only of ``[tag]`` changes the
    running tag without adding a line.
    """
    counts: list[int] = []
    tags: list[int] = []
    tag = SECTION_LABELS.index("verse")
    for lineno, stripped in content_lines(text):
        if stripped.startswith("["):
            close = stripped.find("]")
            if close < 0:
                raise ValueError(f"lyric line {lineno}: unterminated [tag]")
            label = stripped[1:close].strip().lower()
            if label not in SECTION_LABELS:
                raise ValueError(f"lyric line {lineno}: unknown section label {label!r}")
            tag = SECTION_LABELS.index(label)
            stripped = stripped[close + 1 :].strip()
            if not stripped:
                continue
        counts.append(len(tokenize_lyric_text(stripped)))
        tags.append(tag)
    return SheetShape(tuple(counts), tuple(tags))


def load_lyrics(path) -> SheetShape:
    """Read a lyric sheet from ``path``; a decoding or format error names the file."""
    return read_file(path, parse_lyrics)


#: The shapes of the bank read last, by the SHA-256 of each file's bytes.
#: Keys are contents, so a hit is the shape of exactly those bytes.
_BANK_SHAPES: dict[bytes, SheetShape] = {}


def load_reference_bank(directory) -> tuple[list[str], list[SheetShape]]:
    """Every ``*.txt`` lyric file under a directory, sorted by name, as a :class:`SheetShape`.

    Returns parallel lists of file names and shapes; the index into these
    lists is the bank index reported by :func:`select_reference`.  Every call
    lists the directory and reads every file, but parses only a file whose
    bytes the previous successful call did not read.  Errors are
    :func:`load_lyrics`'s, and a file without lyric lines is refused by name.
    """
    names = sorted(n for n in os.listdir(directory) if n.endswith(".txt"))
    if not names:
        raise ValueError(f"no .txt lyric files under {directory}")
    found = [read_file(os.path.join(directory, n), _keyed_shape, mode="rb") for n in names]
    for name, (_, shape) in zip(names, found):
        if not shape.counts:
            raise ValueError(f"bank file {os.path.join(directory, name)} has no lyric lines")
    _BANK_SHAPES.clear()
    _BANK_SHAPES.update(found)
    return names, [shape for _, shape in found]


def _keyed_shape(data: bytes) -> tuple[bytes, SheetShape]:
    key = hashlib.sha256(data).digest()
    shape = _BANK_SHAPES.get(key)
    if shape is None:
        shape = parse_lyrics(data.decode("utf-8-sig"))
    return key, shape
