"""Generation-window planning.

The accompaniment generator renders one bounded window at a time (at most
:data:`MAX_WINDOW_SEC` seconds), so a song is covered by a tiling of
windows, each anchored to a structural section and carrying a reference
policy:

* the first verse is generated first with no reference;
* sections before that verse (the intro, plus anything else ahead of it)
  come next, each referencing the first verse *backward* in time;
* every remaining section follows in chronological order, referencing the
  chronologically previous window.

Sections longer than a window are split at the latest downbeat that still
fits.  Training uses a simpler section-anchored slicing with a seeded coin
flip that swaps an intro-initial slice's forward reference for a backward
one half the time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .conditioning import beat_downbeat_events
from .formats import json_text, read_document, typed
from .score import VocalScore, tick_to_seconds

#: Longest span the downstream generator can produce in one call, seconds.
MAX_WINDOW_SEC = 47.0

#: Probability that an intro-initial training slice swaps to a backward reference.
DEFAULT_BACKWARD_PROB = 0.5

REFERENCE_NONE = "none"
REFERENCE_PREVIOUS = "previous_window"
REFERENCE_BACKWARD = "backward"

PLAN_JSON_FORMAT = "plan"
PLAN_JSON_VERSION = 1


@dataclass(frozen=True)
class WindowReference:
    """How a window is conditioned on already-generated audio.

    ``kind`` is one of ``none`` (free generation), ``previous_window``
    (continue from the chronologically previous window) or ``backward``
    (use a later window, identified by ``section``, as the reference).
    """

    kind: str
    section: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (REFERENCE_NONE, REFERENCE_PREVIOUS, REFERENCE_BACKWARD):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if (self.kind == REFERENCE_BACKWARD) != (self.section is not None):
            raise ValueError("backward references (and only those) carry a section index")


@dataclass(frozen=True)
class GenerationWindow:
    """One span to generate: ``[start_sec, end_sec)`` with order and reference."""

    start_sec: float
    end_sec: float
    anchor_section: int
    order: int
    reference: WindowReference

    def __post_init__(self) -> None:
        if not self.end_sec > self.start_sec:
            raise ValueError(
                f"window [{self.start_sec}, {self.end_sec}) is empty or inverted"
            )
        if self.end_sec - self.start_sec > MAX_WINDOW_SEC + 1e-9:
            raise ValueError(
                f"window of {self.end_sec - self.start_sec:.3f} s exceeds the "
                f"{MAX_WINDOW_SEC} s limit"
            )

    @property
    def duration_sec(self) -> float:
        return self.end_sec - self.start_sec


@dataclass(frozen=True)
class TrainingSlice:
    """A section-anchored training window plus the reference-swap flag."""

    window: GenerationWindow
    reference_swapped: bool


def plan_inference(
    score: VocalScore, max_window_sec: float = MAX_WINDOW_SEC
) -> list[GenerationWindow]:
    """Tile a score's sections into ordered generation windows.

    Windows partition ``[0, duration)`` exactly; each is at most
    ``max_window_sec`` long, anchored to its section, and ordered so every
    reference points at an earlier-ordered window.  Raises if the score has
    no verse or an oversized section has no interior downbeat to split at.
    """
    if not score.sections:
        raise ValueError("score has no sections to plan")
    if max_window_sec <= 0:
        raise ValueError(f"max_window_sec must be positive, got {max_window_sec}")
    first_verse = next(
        (i for i, s in enumerate(score.sections) if s.label == "verse"), None
    )
    if first_verse is None:
        raise ValueError("score has no verse section; cannot seed generation")

    _, downbeats = beat_downbeat_events(score)
    spans_per_section = [
        _split_section(score, i, downbeats, max_window_sec)
        for i in range(len(score.sections))
    ]

    windows: list[GenerationWindow] = []
    order = 0

    def emit(section: int, reference_first: WindowReference) -> None:
        nonlocal order
        for j, (a, b) in enumerate(spans_per_section[section]):
            ref = reference_first if j == 0 else WindowReference(REFERENCE_PREVIOUS)
            windows.append(GenerationWindow(a, b, section, order, ref))
            order += 1

    emit(first_verse, WindowReference(REFERENCE_NONE))
    for i in range(first_verse):  # intro and anything else ahead of the verse
        emit(i, WindowReference(REFERENCE_BACKWARD, first_verse))
    for i in range(first_verse + 1, len(score.sections)):
        emit(i, WindowReference(REFERENCE_PREVIOUS))
    return windows


def _split_section(
    score: VocalScore,
    section_index: int,
    downbeats: list[float],
    max_window_sec: float,
) -> list[tuple[float, float]]:
    """Spans covering one section, each at most ``max_window_sec`` long.

    Oversized stretches are cut at the latest downbeat not more than
    ``max_window_sec`` after the stretch start.
    """
    sec = score.sections[section_index]
    start = tick_to_seconds(score, sec.start_tick)
    end = tick_to_seconds(score, sec.end_tick)
    spans: list[tuple[float, float]] = []
    cursor = start
    while end - cursor > max_window_sec + 1e-9:
        candidates = [d for d in downbeats if cursor < d <= cursor + max_window_sec]
        if not candidates:
            raise ValueError(
                f"section {section_index} ({sec.label}) cannot be split: no downbeat "
                f"within {max_window_sec} s after {cursor:.3f} s"
            )
        cut = candidates[-1]
        spans.append((cursor, cut))
        cursor = cut
    spans.append((cursor, end))
    return spans


def plan_training_slices(
    score: VocalScore,
    p_backward: float = DEFAULT_BACKWARD_PROB,
    seed: int = 0,
    max_window_sec: float = MAX_WINDOW_SEC,
) -> list[TrainingSlice]:
    """One section-anchored slice per section, with seeded reference swaps.

    Each slice starts at its section start and runs to the section end,
    capped at ``max_window_sec``.  A slice whose window begins with an intro
    section swaps its forward reference for a backward one with probability
    ``p_backward``; the draw is deterministic in ``seed``.
    """
    if not score.sections:
        raise ValueError("score has no sections to slice")
    if not 0.0 <= p_backward <= 1.0:
        raise ValueError(f"p_backward must be in [0, 1], got {p_backward}")
    rng = random.Random(seed)
    slices: list[TrainingSlice] = []
    for i, sec in enumerate(score.sections):
        start = tick_to_seconds(score, sec.start_tick)
        end = min(tick_to_seconds(score, sec.end_tick), start + max_window_sec)
        reference = (
            WindowReference(REFERENCE_NONE)
            if i == 0
            else WindowReference(REFERENCE_PREVIOUS)
        )
        swapped = False
        if sec.label == "intro":
            swapped = rng.random() < p_backward
        window = GenerationWindow(start, end, i, i, reference)
        slices.append(TrainingSlice(window, swapped))
    return slices


# ---------------------------------------------------------------------------
# Serialization


def plan_to_json(windows: list[GenerationWindow]) -> str:
    return json_text({
        "format": PLAN_JSON_FORMAT,
        "version": PLAN_JSON_VERSION,
        "windows": [
            {
                "order": w.order,
                "start_sec": w.start_sec,
                "end_sec": w.end_sec,
                "anchor_section": w.anchor_section,
                "reference": {"kind": w.reference.kind, "section": w.reference.section},
            }
            for w in sorted(windows, key=lambda w: w.order)
        ],
    })


def plan_from_json(text: str | bytes) -> list[GenerationWindow]:
    windows = read_document(text, PLAN_JSON_FORMAT, PLAN_JSON_VERSION, lambda doc: [
        GenerationWindow(
            typed(w["start_sec"], float, "start_sec"),
            typed(w["end_sec"], float, "end_sec"),
            typed(w["anchor_section"], int, "anchor_section"),
            typed(w["order"], int, "order"),
            WindowReference(
                typed(w["reference"]["kind"], str, "reference kind"),
                None if w["reference"]["section"] is None
                else typed(w["reference"]["section"], int, "reference section"),
            ),
        )
        for w in doc["windows"]
    ])
    orders = sorted(w.order for w in windows)
    if orders != list(range(len(windows))):
        raise ValueError("window orders must be a permutation of 0..n-1")
    return windows


def format_plan_table(windows: list[GenerationWindow]) -> str:
    """Human-readable plan table, one row per window in generation order."""
    rows = [f"{'order':>5}  {'span':<22} {'section':>7}  reference"]
    for w in sorted(windows, key=lambda w: w.order):
        span = f"[{w.start_sec:9.3f}, {w.end_sec:9.3f})"
        ref = w.reference.kind
        if w.reference.section is not None:
            ref += f"(section {w.reference.section})"
        rows.append(f"{w.order:>5}  {span:<22} {w.anchor_section:>7}  {ref}")
    return "\n".join(rows) + "\n"
