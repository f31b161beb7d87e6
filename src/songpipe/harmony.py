"""Bar-level melody harmonization over the 24 major/minor triads.

One chord is chosen per 4/4 bar by Viterbi dynamic programming.  The
emission score of a chord for a bar is the duration-weighted fraction of the
bar's melody pitch classes that fall inside the chord's triad (0 for an
all-rest bar); the transition score between consecutive bars rewards shared
triad tones and charges a flat penalty for changing chords:

    transition(c1, c2) = transition_weight * |tones(c1) & tones(c2)|
                         - chord_change_penalty * [c1 != c2]

Score ties are broken toward the lower chord index; chords are indexed by
root C..B with major before minor at each root, so the ordering is
C:maj, C:min, C#:maj, ... B:min.  With the default weights an all-rest bar
holds the previous bar's chord, because staying put keeps all three common
tones and avoids the change penalty.

The harmonize stage's song (:func:`harmonize_song`, which may prepend an
intro) and the condition stage's section keys (:func:`section_keys`) are
built here too.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics
from .conditioning import ChordSequence, ChordSpan, KeyLabel, triad_pitch_classes
from .score import VocalScore, prepend_instrumental, tick_to_seconds

#: All 24 candidate chords in tie-break order.
CHORDS: tuple[tuple[int, str], ...] = tuple(
    (root, quality) for root in range(12) for quality in ("maj", "min")
)

NUM_CHORDS = len(CHORDS)

#: Number of bars of instrumental lead-in added by :func:`prepend_intro_chords`.
DEFAULT_INTRO_BARS = 4


@dataclass(frozen=True)
class HarmonizerWeights:
    """Scoring weights for the harmonizer DP."""

    emission_weight: float = 1.0
    transition_weight: float = 0.1
    chord_change_penalty: float = 0.05

    def __post_init__(self) -> None:
        for name in ("emission_weight", "transition_weight", "chord_change_penalty"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def chord_index(root: int, quality: str) -> int:
    """Index of a chord in the canonical tie-break ordering."""
    if not 0 <= root <= 11:
        raise ValueError(f"chord root must be in [0, 11], got {root}")
    if quality not in ("maj", "min"):
        raise ValueError(f"chord quality must be 'maj' or 'min', got {quality!r}")
    return root * 2 + (0 if quality == "maj" else 1)


def bar_pitch_class_weights(score: VocalScore) -> np.ndarray:
    """Per-bar pitch-class tick totals, shape (num_bars, 12).

    A note straddling a bar line contributes its overlap ticks to each bar it
    touches.
    """
    n_bars = score.num_bars
    weights = np.zeros((n_bars, 12))
    bar_len = score.ticks_per_bar
    for note in score.notes:
        first = note.onset_tick // bar_len
        last = (note.end_tick - 1) // bar_len
        for bar in range(first, last + 1):
            lo = max(note.onset_tick, bar * bar_len)
            hi = min(note.end_tick, (bar + 1) * bar_len)
            if hi > lo:
                weights[bar, note.pitch % 12] += hi - lo
    return weights


def emission_matrix(bar_weights: np.ndarray) -> np.ndarray:
    """Emission scores, shape (num_bars, 24): in-triad duration fractions."""
    n_bars = len(bar_weights)
    out = np.zeros((n_bars, NUM_CHORDS))
    totals = bar_weights.sum(axis=1)
    for c, (root, quality) in enumerate(CHORDS):
        pcs = list(triad_pitch_classes(root, quality))
        in_triad = bar_weights[:, pcs].sum(axis=1)
        nonzero = totals > 0
        out[nonzero, c] = in_triad[nonzero] / totals[nonzero]
    return out


def transition_matrix(weights: HarmonizerWeights) -> np.ndarray:
    """Transition scores between all chord pairs, shape (24, 24)."""
    out = np.zeros((NUM_CHORDS, NUM_CHORDS))
    tone_sets = [set(triad_pitch_classes(r, q)) for r, q in CHORDS]
    for a in range(NUM_CHORDS):
        for b in range(NUM_CHORDS):
            common = len(tone_sets[a] & tone_sets[b])
            out[a, b] = weights.transition_weight * common
            if a != b:
                out[a, b] -= weights.chord_change_penalty
    return out


def harmonize(
    score: VocalScore, weights: HarmonizerWeights | None = None
) -> ChordSequence:
    """Choose one chord per bar by Viterbi DP and return timed chord spans.

    The returned sequence has exactly one entry per bar (adjacent bars may
    repeat the same chord), with boundaries converted to seconds through the
    score's tempo map.
    """
    if weights is None:
        weights = HarmonizerWeights()
    n_bars = score.num_bars
    if n_bars == 0:
        raise ValueError("score is empty; nothing to harmonize")
    emis = weights.emission_weight * emission_matrix(bar_pitch_class_weights(score))
    path = viterbi_path(emis, transition_matrix(weights))
    bar_len, end_tick = score.ticks_per_bar, score.end_tick
    entries = []
    for bar, c in enumerate(path):
        root, quality = CHORDS[c]
        start = tick_to_seconds(score, bar * bar_len)
        end = tick_to_seconds(score, min((bar + 1) * bar_len, end_tick))
        if end <= start:  # final partial bar may collapse on pathological maps
            continue
        entries.append(ChordSpan(start, end, root, quality))
    return ChordSequence(tuple(entries))


def viterbi_path(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Best-scoring chord index per step; ties resolve to the lowest index.

    ``emissions`` is (steps, states), ``transitions`` (states, states).  The
    path maximizes ``sum(emissions[t, path[t]]) + sum(transitions[path[t-1],
    path[t]])``.  Tie-breaking is deterministic: the final state takes the
    lowest optimal index, then each predecessor the lowest index consistent
    with the chosen suffix.
    """
    steps, states = emissions.shape
    if steps == 0:
        return []
    # delta[s] = best total score of any path ending in state s.
    delta = emissions[0].copy()
    back = np.zeros((steps, states), dtype=np.int64)
    for t in range(1, steps):
        cand = delta[:, None] + transitions  # (prev, cur)
        # argmax returns the first (lowest) index on ties, which combined
        # with the final backward pass yields the lexicographically smallest
        # optimal path.
        best_prev = cand.argmax(axis=0)
        delta = cand[best_prev, np.arange(states)] + emissions[t]
        back[t] = best_prev
    path = [int(delta.argmax())]
    for t in range(steps - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path


def path_score(
    path: list[int], emissions: np.ndarray, transitions: np.ndarray
) -> float:
    """Total DP objective of a chord path (emissions plus transitions)."""
    total = sum(emissions[t, c] for t, c in enumerate(path))
    total += sum(
        transitions[path[t - 1], path[t]] for t in range(1, len(path))
    )
    return float(total)


def prepend_intro_chords(
    chords: ChordSequence,
    bar_duration_sec: float,
    bars: int = DEFAULT_INTRO_BARS,
) -> ChordSequence:
    """Open a progression with an instrumental intro copying its first bars.

    The chords overlapping the first ``bars`` bars are duplicated, the whole
    original progression is shifted later by ``bars * bar_duration_sec``, and
    the duplicate is placed in front, so the result is ``bars`` bars longer
    and starts with the same harmony the vocal entry will have.
    ``bars=0`` returns the sequence unchanged.
    """
    if bars < 0:
        raise ValueError(f"bars must be non-negative, got {bars}")
    if bars == 0:
        return chords
    if bar_duration_sec <= 0:
        raise ValueError(f"bar_duration_sec must be positive, got {bar_duration_sec}")
    intro_len = bars * bar_duration_sec
    if chords.end_sec + 1e-9 < intro_len:
        raise ValueError(
            f"progression is shorter ({chords.end_sec} s) than {bars} bars "
            f"({intro_len} s); nothing to duplicate"
        )
    intro = []
    for c in chords:
        if c.start_sec >= intro_len - 1e-9:
            break
        intro.append(
            ChordSpan(c.start_sec, min(c.end_sec, intro_len), c.root, c.quality)
        )
    return ChordSequence(tuple(intro) + chords.shifted(intro_len).entries)


def harmonize_song(
    score: VocalScore, intro_bars: int, weights: HarmonizerWeights | None = None
) -> tuple[VocalScore, ChordSequence]:
    """The song to accompany and its chords, one span per bar.

    An instrumental intro of ``intro_bars`` bars, copying the opening chords,
    is prepended only when the score has no ``intro`` section and
    ``0 < intro_bars <= score.num_bars``; otherwise ``score`` itself is returned.
    """
    chords = harmonize(score, weights)
    if any(s.label == "intro" for s in score.sections) or not 0 < intro_bars <= score.num_bars:
        return score, chords
    bar_duration = tick_to_seconds(score, score.ticks_per_bar)
    chords = prepend_intro_chords(chords, bar_duration, intro_bars)
    return prepend_instrumental(score, intro_bars), chords


def section_key_estimates(score: VocalScore) -> list[tuple[int, KeyLabel]]:
    """Per-section key labels from duration-weighted pitch-class histograms.

    Sections without any notes (instrumental intros, breaks) fall back to
    the whole-score histogram.
    """
    on, off, pc = np.array([(n.onset_tick, n.end_tick, n.pitch % 12) for n in score.notes],
                           dtype=np.int64).reshape(-1, 3).T
    # Tick overlaps are integers, so these float64 sums are exact in any order.
    per_section = np.array([np.bincount(
        pc, np.maximum(np.minimum(off, s.end_tick) - np.maximum(on, s.start_tick), 0), minlength=12
    ) for s in score.sections]).reshape(-1, 12)
    overall = per_section.sum(axis=0)
    if not overall.any():
        raise ValueError("score has no notes; cannot estimate keys")
    keys = []
    for i in range(len(score.sections)):
        hist = per_section[i] if per_section[i].any() else overall
        keys.append((i, metrics.estimate_key(hist[None, :])))
    return keys


def section_keys(score: VocalScore, labels: Sequence[str] | None) -> list[tuple[int, KeyLabel]]:
    """One key per section: ``labels`` parsed in section order, or estimated if None."""
    if labels is None:
        return section_key_estimates(score)
    if len(labels) != len(score.sections):
        raise ValueError(f"{len(labels)} section keys given for {len(score.sections)} sections")
    return [(i, KeyLabel.parse(k)) for i, k in enumerate(labels)]
